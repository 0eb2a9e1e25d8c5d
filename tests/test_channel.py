import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from remcr.channel import (
    _percentile,
    calibrate,
    received_power,
    sample_shadows,
)
from remcr.geometry import sample_annulus_points
from remcr.rem import gudmundson_correlation
from remcr.scenario import DB_TO_NAT, ConfigError, ScenarioConfig, derive_stream

LN10_OVER_10 = math.log(10.0) / 10.0


class TestReceivedPower:
    def test_identity_point(self):
        assert received_power(1.0, 0.0, 1.0, 3.5) == 1.0

    def test_hand_example(self):
        assert math.isclose(received_power(2.0, math.log(2.0), 2.0, 2.0), 1.0, rel_tol=1e-14)

    def test_vector_distance(self):
        got = received_power(1.0, 0.0, np.array([1.0, 2.0]), 2.0)
        assert np.allclose(got, [1.0, 0.25])

    def test_vector_shadow_scalar_distance(self):
        got = received_power(1.0, np.array([0.1, 0.2]), 5.0, 3.5)
        assert got.shape == (2,)
        assert np.allclose(got, np.exp([0.1, 0.2]) * 5.0**-3.5, rtol=1e-14)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            received_power(1.0, np.zeros(2), np.array([1.0, 0.0]), 3.5)

    @pytest.mark.filterwarnings("error")
    def test_out_of_range_powers_without_warning(self):
        # exp(800) overflows: inf, or NaN where the path gain underflows to 0
        got = received_power(1.0, np.array([800.0, 800.0, -800.0]), np.array([1.0, 1e100, 1e100]), 3.5)
        assert got[0] == math.inf and math.isnan(got[1]) and got[2] == 0.0


class TestShadowing:
    def test_db_scale_std(self):
        stream = np.random.default_rng(11)
        x = sample_shadows(stream, 100_000, 8.0)
        std_db = np.std(10.0 * np.log10(np.exp(x)))
        assert abs(std_db - 8.0) < 0.1

    def test_zero_mean(self):
        stream = np.random.default_rng(12)
        x = sample_shadows(stream, 1_000_000, 8.0)
        sigma_x = LN10_OVER_10 * 8.0
        assert abs(np.mean(x)) < 0.01 * sigma_x

    def test_natural_log_std(self):
        stream = np.random.default_rng(13)
        x = sample_shadows(stream, 200_000, 8.0)
        expected = LN10_OVER_10 * 8.0  # 1.8421
        assert math.isclose(expected, 1.8421, rel_tol=1e-4)
        assert abs(np.std(x) - expected) < 0.01 * expected

    def test_same_values_as_scaled_normal_draw(self):
        x = sample_shadows(np.random.default_rng(15), 1000, 8.0)
        want = DB_TO_NAT * np.random.default_rng(15).normal(0.0, 8.0, size=1000)
        assert np.array_equal(x, want)

    def test_lognormal_mean(self):
        stream = np.random.default_rng(14)
        x = sample_shadows(stream, 1_000_000, 8.0)
        sigma_x = LN10_OVER_10 * 8.0
        expected = math.exp(sigma_x**2 / 2.0)  # 5.4554
        assert math.isclose(expected, 5.455, rel_tol=1e-4)
        assert abs(np.mean(np.exp(x)) - expected) < 0.02 * expected


class TestGudmundson:
    def test_no_displacement(self):
        assert gudmundson_correlation(0.0, 0.0, 100.0) == 1.0

    def test_decorrelation_distance_halves(self):
        assert math.isclose(gudmundson_correlation(100.0, 0.0, 100.0), 0.5, rel_tol=1e-14)

    def test_product_of_factors(self):
        assert math.isclose(gudmundson_correlation(100.0, 100.0, 100.0), 0.25, rel_tol=1e-14)

    def test_vector_form(self):
        got = gudmundson_correlation(np.array([0.0, 100.0]), np.array([0.0, 0.0]), 100.0)
        assert np.allclose(got, [1.0, 0.5])


class TestCalibration:
    def test_underflowed_percentile_is_a_config_error(self):
        # exp of a 1e5 dB shadow underflows: the secondary link's 5th-percentile
        # gain is 0 and no finite transmit power meets the SNR target
        with pytest.raises(ConfigError, match="cannot calibrate the secondary link: its 5th"):
            calibrate(ScenarioConfig(sigma_dB=1e5))

    def test_secondary_link_percentile_self_consistency(self, base_cfg):
        # larger calibration sample: the check compounds calibration noise
        # with re-simulation noise
        b = calibrate(base_cfg, n_samples=1_000_000)
        stream = np.random.default_rng(17)
        n = 1_000_000
        pts = sample_annulus_points(stream, n, base_cfg.R0, base_cfg.Rc)
        r = np.hypot(pts[:, 0], pts[:, 1])
        x = sample_shadows(stream, n, base_cfg.sigma_dB)
        snr_db = 10.0 * np.log10(b * np.exp(x) * r**-base_cfg.gamma_pl / base_cfg.noise_power)
        assert abs(np.percentile(snr_db, 5.0) - 5.0) < 0.1

    def test_thin_annulus_deterministic_limit(self):
        cfg = ScenarioConfig(R0=999.0, Rc=999.5, R=1000.0, sigma_dB=1e-9)
        b = calibrate(cfg)
        expected = 10.0**0.5 * cfg.noise_power * cfg.Rc**3.5
        assert math.isclose(b, expected, rel_tol=0.01)

    def test_scales_with_noise_power(self, base_cfg):
        doubled = dataclasses.replace(base_cfg, noise_power=2.0)
        b1 = calibrate(base_cfg, n_samples=50_000)
        b2 = calibrate(doubled, n_samples=50_000)
        assert math.isclose(b2, 2.0 * b1, rel_tol=1e-12)

    def test_power_ratio_deterministic_limit(self):
        cfg = ScenarioConfig(sigma_dB=1e-9)
        b = calibrate(cfg)
        # the 95th-percentile radius by area of the annulus fixes the quantile
        r95_cr = math.sqrt(0.95 * (cfg.Rc**2 - cfg.R0**2) + cfg.R0**2)
        expected = 10.0**0.5 * r95_cr**cfg.gamma_pl
        assert math.isclose(b / cfg.noise_power, expected, rel_tol=0.005)

    def test_reproducible(self, base_cfg, cr):
        again = calibrate(base_cfg)
        assert again == cr

    def test_infinite_constants_are_a_config_error(self):
        # the 5th-percentile gain is fine, but cr = 3.16 * 1e300 / q overflows
        with pytest.raises(ConfigError, match=r"secondary link: cr = inf must be finite"):
            calibrate(ScenarioConfig(noise_power=1e300))
        assert math.isfinite(calibrate(ScenarioConfig(noise_power=1e250)))

    def test_too_few_samples_rejected(self, base_cfg):
        with pytest.raises(ValueError, match="at least 1e4 samples"):
            calibrate(base_cfg, n_samples=9_999)


def _one_shot_calibrate(cfg, n):
    """The calibration formula with every draw and gain in one array each,
    and np.quantile for the percentile."""
    stream = derive_stream(cfg.master_seed, 0, "calibrate-cr")
    rr = stream.uniform(cfg.R0 * cfg.R0, cfg.Rc * cfg.Rc, size=n)
    shadows = DB_TO_NAT * stream.normal(0.0, cfg.sigma_dB, size=n)
    with np.errstate(over="ignore"):
        gains = 1.0 * np.exp(shadows) * np.sqrt(rr) ** (-cfg.gamma_pl)
    return 10.0**0.5 * cfg.noise_power / float(np.quantile(gains, 0.05))


_CAL_CONFIGS = [
    ScenarioConfig(),
    ScenarioConfig(sigma_dB=4.0, gamma_pl=2.5, master_seed=2),
    ScenarioConfig(sigma_dB=12.0, gamma_pl=4.0, master_seed=3),
    ScenarioConfig(R=500.0, Rc=200.0, master_seed=4),
    ScenarioConfig(R0=5.0, Rc=50.0, sigma_dB=6.0, master_seed=5),
    ScenarioConfig(R=2000.0, Rc=1000.0, gamma_pl=3.0, master_seed=6),
    ScenarioConfig(sigma_dB=1e-9, master_seed=7),
    ScenarioConfig(sigma_dB=60.0, gamma_pl=2.0, master_seed=8),
    ScenarioConfig(R0=99.0, Rc=100.0, R=101.0, master_seed=9),
    ScenarioConfig(noise_power=1e-20, master_seed=123456789012),
]


class TestCalibrationMatchesOneShot:
    @pytest.mark.parametrize("n", [10_000, 50_000, 200_001, 1_000_000])
    @pytest.mark.parametrize("cfg", _CAL_CONFIGS, ids=range(len(_CAL_CONFIGS)))
    def test_constants_bit_identical(self, cfg, n):
        # 50 000 and 200 001 are not multiples of the shadowing chunk
        got = calibrate(cfg, n_samples=n)
        assert got.hex() == _one_shot_calibrate(cfg, n).hex()

    def test_traced_peak_is_one_sample_array(self, base_cfg):
        calibrate(base_cfg)  # warm: first-use allocations are not scratch
        tracemalloc.start()
        try:
            calibrate(base_cfg, n_samples=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the gains take 1.6 MB; the one-shot formula holds about 7.6 MB
        assert peak < 3e6


class TestPercentile:
    @pytest.mark.parametrize("n", [2, 3, 7, 20, 101, 1000, 10_000, 16_385, 123_457])
    def test_matches_np_quantile(self, n):
        rng = np.random.default_rng(n)
        draws = [
            rng.lognormal(0.0, 3.0, n),
            rng.integers(0, 5, n).astype(float),  # many ties
            np.where(rng.random(n) < 0.3, math.inf, rng.random(n)),
        ]
        for x in draws:
            for q in (0.0, 0.05, 0.25, 0.5, 0.62, 0.95, 0.999, float(rng.random())):
                with np.errstate(invalid="ignore"):  # inf - inf in numpy's lerp
                    want = float(np.quantile(x, q))
                assert _percentile(x.copy(), q).hex() == want.hex()

    def test_nan_gives_nan(self):
        x = np.array([1.0, math.nan, 2.0, 3.0])
        assert math.isnan(_percentile(x, 0.05))
        assert math.isnan(float(np.quantile(np.array([1.0, math.nan, 2.0, 3.0]), 0.05)))
