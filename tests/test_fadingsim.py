import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from remcr.fadingsim import (
    _BATCH,
    FadingSeries,
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


def _full_length_idft(seed, weights, k, dt, duration, f_d=25.0):
    """The generator's documented draws, each path inverse-FFT'd at the full
    length n instead of the short length n_c."""
    stream = np.random.default_rng(seed)
    n = int(round(duration / dt))
    band = f_d * n * dt
    k_m = int(band)
    n_c = 1 << (4 * k_m).bit_length()
    edge = math.sqrt(k_m / 2.0 * (math.pi / 2.0 - math.atan((k_m - 1) / math.sqrt(2.0 * k_m - 1))))
    amps = np.append(1.0 / np.sqrt(2.0 * np.sqrt(1.0 - (np.arange(1, k_m) / band) ** 2)), edge)
    amps *= n_c / math.sqrt(4.0 * (1.0 + k) * np.sum(amps**2))
    los = np.zeros(len(weights))
    if k > 0.0:
        los = math.sqrt(k / (1.0 + k)) * np.exp(1j * stream.uniform(0.0, 2.0 * math.pi, len(weights)))
    total = np.zeros(n)
    for w, phasor in zip(weights, los):
        re, im = stream.standard_normal((2, 2 * k_m))
        spectrum = np.zeros(n, complex)
        spectrum[1 : k_m + 1] = amps * (re[:k_m] + 1j * im[:k_m])
        spectrum[n - k_m :] = amps[::-1] * (re[k_m:] + 1j * im[k_m:])
        total += w * np.abs(np.fft.ifft(spectrum) * (n / n_c) + phasor) ** 2
    return total


class _Recorder:
    """A generator that logs the name and result shape of every draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.draws.append((name, np.shape(out)))
            return out

        return draw


_PROFILES = {"one": [1.0], "three": [0.2, 0.5, 1.7], "eleven": list(np.linspace(0.1, 2.1, 11))}


class TestIdftOracle:
    @pytest.mark.parametrize("dt_fd", [1.0 / 64.0, 1.0 / 32.0])
    @pytest.mark.parametrize("name", sorted(_PROFILES))
    @pytest.mark.parametrize("k", [0.0, 10.0])
    def test_matches_full_length_idft(self, k, name, dt_fd):
        # eleven paths leave a partial last batch of three
        weights, dt = _PROFILES[name], dt_fd / 25.0
        got = generate_fading(np.random.default_rng(60), weights, k, 25.0, dt, 16.0).samples
        expected = _full_length_idft(60, weights, k, dt, 16.0)
        assert len(got) == len(expected) == int(round(16.0 / dt))
        assert np.max(np.abs(got - expected)) <= 1e-12 * sum(weights)

    @pytest.mark.parametrize("k", [0.0, 10.0])
    def test_stream_use(self, k):
        weights = _PROFILES["eleven"]
        used = _Recorder(61)
        generate_fading(used, weights, k, 25.0, 1.0 / 1600.0, 16.0)
        ref = np.random.default_rng(61)
        expected = []
        if k > 0.0:
            expected.append(("uniform", np.shape(ref.uniform(0.0, 2.0 * math.pi, 11))))
        for b in (_BATCH, 11 - _BATCH):
            expected.append(("standard_normal", np.shape(ref.standard_normal((b, 2, 800)))))
        assert used.draws == expected
        assert used.rng.bit_generator.state == ref.bit_generator.state

    def test_single_path_lcr_matches_closed_form(self):
        # Rayleigh: N(T) = sqrt(2 pi) f_D sqrt(T) exp(-T) for a unit-mean path
        f_d, levels = 25.0, np.array([0.1, 0.3, 1.0, 2.0])
        curves = [count_crossings(series, levels) for series in _series([1.0], 0.0, runs=200, seed=62)]
        rates = merge_counted(curves, 400.0 / f_d).rates
        expected = math.sqrt(2.0 * math.pi) * f_d * np.sqrt(levels) * np.exp(-levels)
        assert np.max(np.abs(rates / expected - 1.0)) <= 0.03


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

    @pytest.mark.parametrize(
        "samples, thresholds",
        [
            ([0.0, 1.0, 0.0, 1.0, 0.0], [math.nan, 0.5]),
            ([0.0, 1.0, math.nan, 1.0, 0.0], [0.5]),
            ([0.0, 1.0, math.inf, 1.0, 0.0], [0.5]),
            ([0.0, 1.0, -math.inf, 1.0, 0.0], [0.5]),
        ],
        ids=["nan-threshold", "nan-sample", "inf-sample", "minus-inf-sample"],
    )
    def test_nan_threshold_or_non_finite_sample_rejected(self, samples, thresholds):
        # each used to give plausible counts: rate 0 at a NaN level, and 0.2 /s
        # at 0.5 from a trace with one bad sample
        series = FadingSeries(samples=np.array(samples), dt=1.0, duration=5.0)
        with pytest.raises(ValueError):
            count_crossings(series, thresholds)


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
    def test_small_grid_rarely_exceeds_three_db(self, base_cfg, cr):
        cfg = dataclasses.replace(base_cfg, delta_grid=1.0)
        samples = degradation_samples(cfg, 400, cr)
        assert np.mean(samples > 3.0) <= 0.02

    def test_grid_size_orders_medians(self, base_cfg, cr):
        medians = []
        for delta in (1.0, 50.0, 100.0):
            cfg = dataclasses.replace(base_cfg, delta_grid=delta)
            medians.append(np.median(degradation_samples(cfg, 300, cr)))
        assert medians[0] < medians[1] < medians[2]
