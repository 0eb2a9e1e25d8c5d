import math

import numpy as np
import pytest

from remcr.engine import TRIAL_BLOCK
from remcr.geometry import (
    MAX_POPULATION,
    cr_population,
    sample_annulus_points,
    sample_cr_count,
    sample_placement,
    snap_points,
)
from remcr.scenario import ConfigError, ScenarioConfig


def _snap_one(v, delta):
    """One coordinate snapped to its cell center, in scalar arithmetic."""
    return (math.floor(v / delta) + 0.5) * delta


class TestSnap:
    def test_cell_center_example(self):
        assert snap_points([37.0, -12.0], 50.0).tolist() == [25.0, -25.0]

    def test_zero_grid_is_identity(self):
        assert snap_points([37.0, -12.0], 0.0).tolist() == [37.0, -12.0]

    def test_center_is_fixed_point(self):
        assert snap_points([25.0, 25.0], 50.0).tolist() == [25.0, 25.0]

    def test_snap_error_bounded_by_half_cell(self, rng):
        pts = rng.uniform(-1000.0, 1000.0, size=(500, 2))
        snapped = snap_points(pts, 50.0)
        assert np.max(np.abs(pts - snapped)) <= 25.0 + 1e-12

    def test_vector_matches_scalar(self, rng):
        pts = rng.uniform(-300.0, 300.0, size=(50, 2))
        snapped = snap_points(pts, 50.0)
        for (x, y), (sx, sy) in zip(pts, snapped):
            assert (_snap_one(x, 50.0), _snap_one(y, 50.0)) == (sx, sy)


class TestAnnulusSampling:
    def test_support(self):
        stream = np.random.default_rng(3)
        pts = sample_annulus_points(stream, 200, 10.0, 1000.0)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.all(r >= 10.0) and np.all(r <= 1000.0)

    def test_area_uniformity(self):
        stream = np.random.default_rng(4)
        pts = sample_annulus_points(stream, 100_000, 10.0, 1000.0)
        r = np.hypot(pts[:, 0], pts[:, 1])
        frac = np.mean(r <= 500.0)
        expected = (500.0**2 - 10.0**2) / (1000.0**2 - 10.0**2)
        assert abs(frac - expected) < 0.01

    def test_thin_annulus_mean_radius(self):
        stream = np.random.default_rng(5)
        pts = sample_annulus_points(stream, 100_000, 999.0, 1000.0)
        r = np.hypot(pts[:, 0], pts[:, 1])
        # mean of the radial density 2r/(R^2-R0^2)
        expected = 2.0 / 3.0 * (1000.0**3 - 999.0**3) / (1000.0**2 - 999.0**2)
        assert abs(np.mean(r) - expected) < 0.01

    def test_licensed_transmitter_draw(self):
        # the discarded licensed position is a one-point draw of the vector
        # sampler; it must consume what the two-scalar-uniform draw it
        # replaced did, so the secondary positions and the stream end where
        # that draw left them (sample_placement's draw order)
        cfg = ScenarioConfig()
        for seed in range(50):
            stream = np.random.default_rng(seed)
            stream.uniform(cfg.R0 * cfg.R0, cfg.R * cfg.R)
            stream.uniform(0.0, 2.0 * math.pi)
            n = sample_cr_count(stream, cfg.cr_density, cfg.R, cfg.activity_p)
            crs = sample_annulus_points(stream, n, cfg.R0, cfg.R)
            drawn = np.random.default_rng(seed)
            assert np.array_equal(sample_placement(drawn, cfg), crs)
            assert drawn.bit_generator.state == stream.bit_generator.state


class TestPopulation:
    def test_default_density_population(self):
        assert cr_population(1000.0, 1000.0) == 3142

    def test_zero_density(self):
        stream = np.random.default_rng(7)
        assert sample_cr_count(stream, 0.0, 1000.0, 0.1) == 0

    def test_always_on_population(self):
        stream = np.random.default_rng(8)
        for _ in range(10):
            assert sample_cr_count(stream, 1000.0, 1000.0, 1.0) == 3142

    def test_binomial_mean(self):
        stream = np.random.default_rng(9)
        counts = [sample_cr_count(stream, 1000.0, 1000.0, 0.1) for _ in range(10_000)]
        assert abs(np.mean(counts) - 314.2) < 3.0

    def test_population_beyond_the_block_budget_is_a_config_error(self):
        # pi * R**2 / 1e3 transmitters: 419 430 at R = 11 554.597, inf at 1e154
        assert cr_population(1000.0, 11554.597) == MAX_POPULATION
        for radius in (11554.598, 1e7, 5e10, 1e100, 1e154):
            with pytest.raises(ConfigError, match="beyond the 419430 a block of trials holds"):
                cr_population(1000.0, radius)

    def test_population_bound_is_the_block_budget(self):
        # positions of a block: TRIAL_BLOCK * population * 2 float64 values in 64 MiB
        assert MAX_POPULATION == 2**26 // (TRIAL_BLOCK * 2 * 8)

    def test_invalid_inputs(self):
        stream = np.random.default_rng(10)
        with pytest.raises(ValueError):
            cr_population(-1.0, 1000.0)
        with pytest.raises(ValueError):
            sample_cr_count(stream, 1000.0, 1000.0, 1.5)
