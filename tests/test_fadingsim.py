import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from remcr.fadingsim import (
    _BLOCK,
    OSCILLATORS,
    FadingSeries,
    _draw_profile,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["profile", "k_factor", "doppler_hz", "dt", "duration"])
    def test_non_finite_input_rejected(self, name, bad):
        args = dict(profile=[0.5, 0.5], k_factor=10.0, doppler_hz=25.0, dt=1.0 / 1600.0, duration=16.0)
        args[name] = [0.5, bad] if name == "profile" else bad
        with pytest.raises(ValueError):
            generate_fading(np.random.default_rng(42), **args)

    def test_deterministic_given_stream(self):
        a = generate_fading(np.random.default_rng(7), [0.5], 0.0, 25.0, 1.0 / 1600.0, 16.0)
        b = generate_fading(np.random.default_rng(7), [0.5], 0.0, 25.0, 1.0 / 1600.0, 16.0)
        assert np.array_equal(a.samples, b.samples)


@dataclasses.dataclass(frozen=True)
class _OldPathParams:
    omega_i: np.ndarray
    phase_i: np.ndarray
    omega_q: np.ndarray
    phase_q: np.ndarray
    los_phase: float | None
    los_i: float
    los_q: float
    scatter_amp: float


def _old_path_params(stream, k_factor, doppler_hz):
    """The generator's former per-path draw: one path's oscillators and phasor."""

    def component():
        angles = stream.uniform(0.0, 2.0 * math.pi, size=OSCILLATORS)
        phases = stream.uniform(0.0, 2.0 * math.pi, size=OSCILLATORS)
        return 2.0 * math.pi * doppler_hz * np.cos(angles), phases

    omega_i, phase_i = component()
    omega_q, phase_q = component()
    los_phase, los_i, los_q, scatter_amp = None, 0.0, 0.0, 1.0
    if k_factor > 0.0:
        los_phase = stream.uniform(0.0, 2.0 * math.pi)
        los_amp = math.sqrt(k_factor / (1.0 + k_factor))
        los_i, los_q = los_amp * math.cos(los_phase), los_amp * math.sin(los_phase)
        scatter_amp = math.sqrt(1.0 / (1.0 + k_factor))
    return _OldPathParams(omega_i, phase_i, omega_q, phase_q, los_phase, los_i, los_q, scatter_amp)


def _direct_power(params, t):
    """Squared envelope of one path as a float64 sum of cosines."""
    norm = 1.0 / math.sqrt(len(params.omega_i))
    comp_i = np.cos(np.outer(params.omega_i, t) + params.phase_i[:, None]).sum(axis=0) * norm
    comp_q = np.cos(np.outer(params.omega_q, t) + params.phase_q[:, None]).sum(axis=0) * norm
    re = params.los_i + params.scatter_amp * comp_i
    im = params.los_q + params.scatter_amp * comp_q
    return re * re + im * im


_DT = 1.0 / 1600.0
_N = 160 * _BLOCK - 13  # 16 s, angles to ~2500 rad; not a whole number of blocks


def _power_and_direct(seed, weights, k, dt=_DT):
    """generate_fading's trace and the weighted float64 sum of its paths."""
    ref = np.random.default_rng(seed)
    t = np.arange(_N) * dt
    direct = sum(w * _direct_power(_old_path_params(ref, k, 25.0), t) for w in weights)
    return generate_fading(np.random.default_rng(seed), weights, k, 25.0, dt, _N * dt).samples, direct


class TestPathPower:
    @pytest.mark.parametrize("k", [0.0, 10.0])
    def test_matches_float64_sum_of_cosines(self, k):
        power, expected = _power_and_direct(60, [1.0], k)
        assert len(power) == _N
        assert np.max(np.abs(power - expected)) <= 1e-5
        power, expected = _power_and_direct(60, [0.3], k)
        assert np.max(np.abs(power - expected)) <= 0.3e-5

    @pytest.mark.parametrize("k", [0.0, 10.0])
    def test_unequal_aggregate_matches_weighted_direct_sum(self, k):
        weights = [0.2, 0.5, 1.7]
        power, expected = _power_and_direct(63, weights, k)
        assert np.max(np.abs(power - expected)) <= 1e-5 * sum(weights)

    @pytest.mark.parametrize("k", [0.0, 10.0])
    @pytest.mark.parametrize("weights", [[1.0], list(np.linspace(0.1, 2.1, 11))], ids=["one", "eleven"])
    def test_coarsest_grid_matches_direct_sum(self, k, weights):
        # dt * f_D = 1/32, the precondition's limit: the unreduced in-block
        # angles reach 2 pi (B - 1) / 32 = 31.2 rad and the head angles
        # 5000 rad.  Eleven paths leave a partial last group of three.
        power, expected = _power_and_direct(65, weights, k, dt=1.0 / 800.0)
        assert np.max(np.abs(power - expected)) <= 1e-5 * sum(weights)

    def test_rician_path_keeps_its_line_of_sight_phasor(self):
        k = 10.0
        params = _old_path_params(np.random.default_rng(62), k, 25.0)
        assert math.isclose(params.los_i**2 + params.los_q**2, k / (k + 1.0), rel_tol=1e-12)
        with_los = generate_fading(np.random.default_rng(62), [1.0], k, 25.0, _DT, 16.0).samples
        t = np.arange(len(with_los)) * _DT
        scatter = _direct_power(dataclasses.replace(params, los_i=0.0, los_q=0.0), t)
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
            _old_path_params(ref, k, 25.0)
        assert used.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("k", [0.0, 10.0])
    def test_profile_draw_equals_per_path_draws(self, k):
        stacked = np.random.default_rng(64)
        omegas, phases, los_phases = _draw_profile(stacked, 7, k, 25.0)
        ref = np.random.default_rng(64)
        paths = [_old_path_params(ref, k, 25.0) for _ in range(7)]
        assert np.array_equal(omegas, [[p.omega_i, p.omega_q] for p in paths])
        assert np.array_equal(phases, [[p.phase_i, p.phase_q] for p in paths])
        expected_los = [[p.los_phase] for p in paths] if k > 0.0 else np.empty((7, 0))
        assert np.array_equal(los_phases, expected_los)
        assert stacked.bit_generator.state == ref.bit_generator.state


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

    @settings(max_examples=60, deadline=None)
    @given(
        samples=hnp.arrays(np.float64, st.integers(2, 200), elements=st.floats(-10.0, 10.0)),
        thresholds=hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(-12.0, 12.0)),
        duration=st.floats(0.5, 100.0),
    )
    def test_rate_times_aed_is_fraction(self, samples, thresholds, duration):
        series = FadingSeries(samples=samples, dt=duration / len(samples), duration=duration)
        curve = count_crossings(series, np.sort(thresholds))
        positive = curve.rates > 0.0
        products = curve.rates[positive] * curve.aeds[positive]
        assert np.allclose(products, curve.fractions[positive], rtol=1e-14, atol=0.0)
        assert np.all(np.isnan(curve.aeds[~positive]))
        assert np.all(np.diff(curve.fractions) <= 0.0)

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

    def test_different_threshold_grids_rejected(self):
        series = generate_fading(np.random.default_rng(51), [1.0], 0.0, 25.0, 1.0 / 1600.0, 8.0)
        a = count_crossings(series, [0.3, 1.0, 2.0])
        b = count_crossings(series, [0.3, 1.0, 2.5])
        with pytest.raises(ValueError, match="one threshold grid"):
            merge_counted([a, b], 8.0)
        with pytest.raises(ValueError, match="one threshold grid"):
            merge_counted([a, count_crossings(series, [0.3, 1.0])], 8.0)
        assert np.array_equal(merge_counted([a, a], 8.0).rates, a.rates)


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
