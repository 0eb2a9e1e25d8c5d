import dataclasses
import math

import numpy as np
import pytest
from scipy import special

from remcr.fadingsim import (
    _BLOCK,
    FadingSeries,
    _add_path_power,
    _draw_path_params,
    count_crossings,
    generate_fading,
    merge_counted,
)
from remcr.engine import degradation_samples
from remcr.scenario import derive_stream


def _series(weights, k, runs=1, f_d=25.0, seed=40):
    out = []
    for i in range(runs):
        stream = np.random.default_rng(seed + i)
        out.append(generate_fading(stream, weights, k, f_d, 1.0 / (64.0 * f_d), 400.0 / f_d))
    return out


class TestGenerateFading:
    def test_mean_is_weight_sum(self):
        for k in (0.0, 10.0):
            samples = np.concatenate([x.samples for x in _series([0.3, 0.5, 0.2], k, runs=4)])
            assert abs(np.mean(samples) - 1.0) < 0.02

    def test_rayleigh_variance_is_square_sum(self):
        weights = [0.3, 0.5, 0.2]
        samples = np.concatenate([x.samples for x in _series(weights, 0.0, runs=12)])
        expected = float(np.sum(np.asarray(weights) ** 2))
        assert abs(np.var(samples) - expected) < 0.05 * expected

    def test_acf_matches_bessel_square(self):
        f_d = 25.0
        max_lag = int(round(0.5 / f_d / (1.0 / (64.0 * f_d))))  # tau*f_D <= 0.5
        acfs = []
        for series in _series([0.2, 0.5, 0.3], 0.0, runs=12, seed=41):
            x = series.samples - np.mean(series.samples)
            n = len(x)
            cov = [np.dot(x[: n - lag], x[lag:]) / (n - lag) for lag in range(max_lag + 1)]
            acfs.append(np.array(cov) / cov[0])
        mean_acf = np.mean(acfs, axis=0)
        tau = np.arange(max_lag + 1) * (1.0 / (64.0 * f_d))
        expected = special.j0(2.0 * math.pi * f_d * tau) ** 2
        assert np.max(np.abs(mean_acf - expected)) <= 0.03

    def test_preconditions(self):
        stream = np.random.default_rng(42)
        with pytest.raises(ValueError):
            generate_fading(stream, [1.0], 0.0, 25.0, dt=1.0, duration=100.0)
        with pytest.raises(ValueError):
            generate_fading(stream, [1.0], 0.0, 25.0, dt=1.0 / 1600.0, duration=1.0)
        with pytest.raises(ValueError):
            generate_fading(stream, [], 0.0, 25.0, dt=1.0 / 1600.0, duration=16.0)
        with pytest.raises(ValueError):
            generate_fading(stream, [1.0], -0.5, 25.0, dt=1.0 / 1600.0, duration=16.0)

    def test_deterministic_given_stream(self):
        a = generate_fading(np.random.default_rng(7), [0.5], 0.0, 25.0, 1.0 / 1600.0, 16.0)
        b = generate_fading(np.random.default_rng(7), [0.5], 0.0, 25.0, 1.0 / 1600.0, 16.0)
        assert np.array_equal(a.samples, b.samples)


def _direct_power(params, t):
    """Squared envelope of one path as a float64 sum of cosines."""
    norm = 1.0 / math.sqrt(len(params.omega_i))
    comp_i = np.cos(np.outer(params.omega_i, t) + params.phase_i[:, None]).sum(axis=0) * norm
    comp_q = np.cos(np.outer(params.omega_q, t) + params.phase_q[:, None]).sum(axis=0) * norm
    re = params.los_i + params.scatter_amp * comp_i
    im = params.los_q + params.scatter_amp * comp_q
    return re * re + im * im


def _path_power(params, n, dt, weight=1.0):
    total = np.zeros(n)
    _add_path_power(total, params, weight, dt, np.empty((2, -(-n // _BLOCK), _BLOCK)))
    return total


class TestPathPower:
    @pytest.mark.parametrize("k", [0.0, 10.0])
    def test_matches_float64_sum_of_cosines(self, k):
        dt = 1.0 / 1600.0
        n = 160 * _BLOCK - 13  # 16 s, angles to ~2500 rad; not a whole number of blocks
        params = _draw_path_params(np.random.default_rng(60), k, 25.0)
        expected = _direct_power(params, np.arange(n) * dt)
        assert np.max(np.abs(_path_power(params, n, dt) - expected)) <= 1e-4
        assert np.max(np.abs(_path_power(params, n, dt, weight=0.3) - 0.3 * expected)) <= 0.3e-4

    def test_rician_path_keeps_its_line_of_sight_phasor(self):
        k = 10.0
        params = _draw_path_params(np.random.default_rng(62), k, 25.0)
        assert math.isclose(params.los_i**2 + params.los_q**2, k / (k + 1.0), rel_tol=1e-12)
        n = 160 * _BLOCK
        with_los = _path_power(params, n, 1.0 / 1600.0)
        scatter = _path_power(dataclasses.replace(params, los_i=0.0, los_q=0.0), n, 1.0 / 1600.0)
        # |los + s|^2 - |s|^2 = |los|^2 + 2 Re(conj(los) s): the cross term
        # averages out over 400 Doppler times, the phasor's power stays.
        assert abs(np.mean(with_los - scatter) - k / (k + 1.0)) < 0.05

    @pytest.mark.parametrize("k", [0.0, 10.0])
    def test_generator_reads_one_path_draw_per_weight(self, k):
        weights = [0.2, 0.5, 0.3]
        used = np.random.default_rng(61)
        generate_fading(used, weights, k, 25.0, 1.0 / 1600.0, 8.0)
        ref = np.random.default_rng(61)
        for _ in weights:
            _draw_path_params(ref, k, 25.0)
        assert used.bit_generator.state == ref.bit_generator.state


class TestCountCrossings:
    def test_sine_oracle(self):
        dt = 1e-4
        t = np.arange(int(round(100.0 / dt))) * dt
        series = FadingSeries(samples=np.sin(2.0 * math.pi * t), dt=dt, duration=100.0)
        curve = count_crossings(series, [0.5])
        assert abs(curve.rates[0] - 1.0) <= 0.01  # within one count over 100 s
        assert abs(curve.fractions[0] - 1.0 / 3.0) <= 1e-3

    def test_constant_series(self):
        series = FadingSeries(samples=np.full(1000, 2.0), dt=1e-3, duration=1.0)
        curve = count_crossings(series, [1.0, 2.0, 3.0])
        assert np.all(curve.rates == 0.0)

    def test_identity_rate_aed_fraction(self):
        series = generate_fading(np.random.default_rng(43), [0.4, 0.6], 0.0, 25.0, 1.0 / 1600.0, 16.0)
        curve = count_crossings(series, np.geomspace(0.05, 5.0, 40))
        finite = np.isfinite(curve.aeds)
        assert np.allclose(curve.rates[finite] * curve.aeds[finite], curve.fractions[finite], rtol=0, atol=1e-15)

    def test_upcrossing_convention(self):
        # a crossing is a rising pair with before < T <= after
        series = FadingSeries(samples=np.array([0.0, 1.0, 0.0, 1.0]), dt=1.0, duration=4.0)
        curve = count_crossings(series, [0.5, 1.0])
        assert np.allclose(curve.rates * 4.0, [2.0, 2.0])
        curve = count_crossings(series, [0.0])
        assert curve.rates[0] == 0.0  # before < T fails at equality


class TestMergeCounted:
    def test_pooling_preserves_identity(self):
        runs = [
            count_crossings(
                generate_fading(np.random.default_rng(50 + i), [0.5, 0.5], 0.0, 25.0, 1.0 / 1600.0, 16.0),
                [0.3, 1.0, 2.0],
            )
            for i in range(3)
        ]
        merged = merge_counted(runs, 16.0)
        finite = np.isfinite(merged.aeds)
        assert np.allclose(
            merged.rates[finite] * merged.aeds[finite], merged.fractions[finite], atol=1e-15
        )
        assert np.allclose(merged.fractions, np.mean([r.fractions for r in runs], axis=0))
        assert np.allclose(merged.rates, np.mean([r.rates for r in runs], axis=0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_counted([], 16.0)


class TestDegradationCdf:
    def test_small_grid_rarely_exceeds_three_db(self, base_cfg, consts):
        cfg = dataclasses.replace(base_cfg, delta_grid=1.0)
        samples = degradation_samples(cfg, 400, consts)
        assert np.mean(samples > 3.0) <= 0.02

    def test_grid_size_orders_medians(self, base_cfg, consts):
        medians = []
        for delta in (1.0, 50.0, 100.0):
            cfg = dataclasses.replace(base_cfg, delta_grid=delta)
            medians.append(np.median(degradation_samples(cfg, 300, consts)))
        assert medians[0] < medians[1] < medians[2]
