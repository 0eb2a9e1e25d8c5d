import math

import numpy as np
import pytest
from scipy import special, stats

from remcr.fadingsim import count_crossings, generate_fading, merge_counted
from remcr.lcr import (
    FitFailureError,
    NcChiSqFit,
    aggregate_acf,
    default_threshold_grid,
    exceedance_duration,
    fit_ncx2,
    lcr_rician,
    rayleigh_curve,
    rician_component_moments,
    rician_curve,
)
from remcr.specfun import gamma_sf, ncx2_logpdf


def _gamma_law(fit):
    # the gamma law (shape, rate) of a central fit: shape dof/2, rate scale/2
    assert fit.noncentrality == 0.0
    return fit.dof / 2.0, fit.scale / 2.0


class TestFitGamma:
    # The moment-matched gamma law of Rayleigh fading is the K = 0 fit.
    def test_uniform_ones(self):
        shape, rate = _gamma_law(fit_ncx2([1.0] * 7, 0.0))
        assert math.isclose(shape, 7.0, rel_tol=1e-12)
        assert math.isclose(rate, 1.0, rel_tol=1e-12)

    def test_single_weight_is_exponential(self):
        shape, rate = _gamma_law(fit_ncx2([2.0], 0.0))
        assert math.isclose(shape, 1.0, rel_tol=1e-12)
        assert math.isclose(rate, 0.5, rel_tol=1e-12)

    def test_two_weight_arithmetic(self):
        shape, rate = _gamma_law(fit_ncx2([3.0, 1.0], 0.0))
        assert math.isclose(shape, 1.6, rel_tol=1e-12)
        assert math.isclose(rate, 0.4, rel_tol=1e-12)

    def test_ks_against_mc(self):
        # 3 E1 + E2 versus the fitted gamma(1.6, rate 0.4)
        stream = np.random.default_rng(30)
        samples = 3.0 * stream.exponential(size=1_000_000) + stream.exponential(size=1_000_000)
        shape, rate = _gamma_law(fit_ncx2([3.0, 1.0], 0.0))
        samples.sort()
        cdf = stats.gamma.cdf(samples, a=shape, scale=1.0 / rate)
        n = len(samples)
        ks = max(
            np.max(cdf - np.arange(n) / n),
            np.max((np.arange(1, n + 1)) / n - cdf),
        )
        assert ks <= 0.02

    @pytest.mark.parametrize("weight", [1e-300, 1e170, 1e308], ids=["w2-underflows", "w2-overflows", "sum-overflows"])
    def test_unusable_moment_sum_fails(self, weight):
        with pytest.raises(FitFailureError, match="power sum of the weights is (0|inf)"):
            fit_ncx2([weight] * 3, 0.0)


class TestComponentMoments:
    def test_rayleigh_degenerate(self):
        assert rician_component_moments(0.0) == (1.0, 1.0, 2.0)

    def test_k_ten(self):
        mean, var, mu3 = rician_component_moments(10.0)
        assert math.isclose(mean, 1.0, rel_tol=1e-14)
        assert math.isclose(var, 21.0 / 121.0, rel_tol=1e-12)
        assert math.isclose(mu3, 2.0 * 31.0 / 11.0**3, rel_tol=1e-12)

    def test_k_ten_against_mc(self):
        stream = np.random.default_rng(31)
        k = 10.0
        s = math.sqrt(k / (k + 1.0))
        sig = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        n = 1_000_000
        power = (s + sig * stream.standard_normal(n)) ** 2 + (sig * stream.standard_normal(n)) ** 2
        _, var, mu3 = rician_component_moments(k)
        assert abs(np.mean(power) - 1.0) < 0.01
        assert abs(np.var(power) - var) < 0.01 * var
        assert abs(np.mean((power - np.mean(power)) ** 3) - mu3) < 0.05 * abs(mu3)

    def test_large_k_deterministic_limit(self):
        _, var, mu3 = rician_component_moments(1e9)
        assert var < 1e-8
        assert abs(mu3) < 1e-8


class TestFitNcx2:
    def test_single_path_exact(self):
        fit = fit_ncx2([1.0], 10.0)
        assert math.isclose(fit.dof, 2.0, rel_tol=1e-9)
        assert math.isclose(fit.noncentrality, 20.0, rel_tol=1e-9)
        assert math.isclose(fit.scale, 22.0, rel_tol=1e-9)

    def test_k_zero_matches_gamma_moments(self):
        weights = [0.4, 0.7, 1.1]
        nc = fit_ncx2(weights, 0.0)
        # the gamma law's mean shape/rate is sum(w), its variance
        # shape/rate**2 is sum(w**2)
        assert math.isclose((nc.dof + nc.noncentrality) / nc.scale, sum(weights), rel_tol=1e-12)
        assert math.isclose(
            2.0 * (nc.dof + 2.0 * nc.noncentrality) / nc.scale**2,
            sum(w * w for w in weights),
            rel_tol=1e-12,
        )

    def test_moment_roundtrip(self):
        stream = np.random.default_rng(32)
        k = 10.0
        _, var_c, mu3_c = rician_component_moments(k)
        for _ in range(100):
            n = int(stream.integers(3, 40))
            w = stream.uniform(0.5, 1.5, size=n)
            m1, m2, m3 = np.sum(w), var_c * np.sum(w**2), mu3_c * np.sum(w**3)
            fit = fit_ncx2(w, k)
            m1_back = (fit.dof + fit.noncentrality) / fit.scale
            m2_back = 2.0 * (fit.dof + 2.0 * fit.noncentrality) / fit.scale**2
            m3_back = 8.0 * (fit.dof + 3.0 * fit.noncentrality) / fit.scale**3
            assert math.isclose(m1_back, m1, rel_tol=1e-9)
            assert math.isclose(m2_back, m2, rel_tol=1e-9)
            assert math.isclose(m3_back, m3, rel_tol=1e-9)

    @pytest.mark.parametrize(
        "weight", [1e-300, 1e-150, 1e110, 1e308],
        ids=["w2-underflows", "w3-underflows", "w3-overflows", "sum-overflows"],
    )
    def test_unusable_moment_sum_fails(self, weight):
        with pytest.raises(FitFailureError, match="power sum of the weights is (0|inf)"):
            fit_ncx2([weight] * 3, 10.0)

    def test_dominant_profile_fails_with_weights_echoed(self):
        with pytest.raises(FitFailureError, match="0.25"):
            fit_ncx2([1.0] + [0.25] * 6, 10.0)


class TestAcf:
    def test_normalized_at_zero(self):
        assert math.isclose(aggregate_acf([0.3, 0.7], 25.0, 0.0), 1.0, rel_tol=1e-14)

    def test_bessel_square_shape(self):
        tau = np.linspace(0.0, 0.02, 9)
        got = aggregate_acf([0.5, 0.5, 0.1], 25.0, tau)
        expected = special.j0(2.0 * math.pi * 25.0 * tau) ** 2
        assert np.allclose(got, expected, rtol=1e-12)

    def test_curvature_weights_cancel(self):
        # a shared Doppler frequency: the weights drop out of the autocovariance
        tau = np.linspace(0.0, 0.02, 9)
        assert np.array_equal(aggregate_acf([1.0], 25.0, tau), aggregate_acf([0.2, 0.9, 1.7], 25.0, tau))

    def test_curvature_matches_finite_difference(self):
        # Rice's slope 4 pi f_D**2 / scale rests on the curvature at lag
        # zero, -4 pi**2 f_D**2
        h = 1e-6
        fd = 2.0 * (aggregate_acf([1.0], 25.0, h) - 1.0) / h**2
        assert math.isclose(-4.0 * math.pi**2 * 625.0, fd, rel_tol=1e-4)


class TestLcrRayleigh:
    # Rayleigh rates are lcr_rician on the central (K = 0) fit, whose gamma
    # law has shape dof/2 and rate scale/2.
    def test_classical_single_path_value(self):
        fit = fit_ncx2([1.0], 0.0)
        got = lcr_rician(fit, 25.0, 1.0)
        expected = math.sqrt(2.0 * math.pi) * 25.0 * math.exp(-1.0)
        assert math.isclose(got, expected, rel_tol=1e-12)
        assert math.isclose(expected, 23.0534, rel_tol=1e-4)

    def test_classical_reduction_across_levels(self):
        fit = NcChiSqFit(dof=2.0, noncentrality=0.0, scale=2.0)  # shape 1, rate 1
        t = np.geomspace(0.01, 10.0, 40)
        got = lcr_rician(fit, 25.0, t)
        expected = math.sqrt(2.0 * math.pi) * 25.0 * np.sqrt(t) * np.exp(-t)
        assert np.allclose(got, expected, rtol=1e-10)

    def test_vanishes_at_low_threshold(self):
        fit = NcChiSqFit(dof=8.0, noncentrality=0.0, scale=4.0)  # shape 4, rate 2
        assert lcr_rician(fit, 25.0, 1e-12) < 1e-30

    def test_peak_location(self):
        fit = NcChiSqFit(dof=10.0, noncentrality=0.0, scale=16.0)  # shape 5, rate 8
        shape, rate = _gamma_law(fit)
        t = np.linspace(0.01, 3.0, 20_000)
        got = lcr_rician(fit, 25.0, t)
        t_peak = t[np.argmax(got)]
        assert abs(t_peak - (shape - 0.5) / rate) < 2e-4


class TestLcrRician:
    def test_matches_density_route(self):
        # same expression assembled through the density: lcr = pdf(T) *
        # sqrt(4 pi f_D^2 T / scale-free curvature term)
        fit = fit_ncx2([0.3, 0.5, 0.4], 10.0)
        f_d = 25.0
        t = np.geomspace(0.05, 5.0, 60)
        got = lcr_rician(fit, f_d, t)
        dens = np.exp(ncx2_logpdf(t, fit.dof, fit.noncentrality, fit.scale))
        expected = dens * np.sqrt(4.0 * math.pi * f_d**2 * t / fit.scale)
        assert np.allclose(got, expected, rtol=1e-10)

    def test_two_dof_textbook_rice_formula(self):
        f_d = 25.0
        for k in (0.1, 1.0, 10.0):
            fit = fit_ncx2([1.0], k)
            assert math.isclose(fit.dof, 2.0, rel_tol=1e-9)
            t = np.geomspace(0.02, 8.0, 50)
            got = lcr_rician(fit, f_d, t)
            z = 2.0 * np.sqrt(k * (k + 1.0) * t)
            expected = (
                np.sqrt(2.0 * math.pi * (k + 1.0) * t)
                * f_d
                * np.exp(-k - (k + 1.0) * t + z)
                * special.i0e(z)
            )
            assert np.allclose(got, expected, rtol=1e-6)

    def test_single_path_against_mc(self):
        k = 10.0
        fit = fit_ncx2([1.0], k)
        f_d = 25.0
        thresholds = np.linspace(0.3, 2.0, 35)
        analytic = lcr_rician(fit, f_d, thresholds)
        runs = []
        for i in range(100):
            stream = np.random.default_rng(1000 + i)
            series = generate_fading(stream, [1.0], k, f_d, 1.0 / (64.0 * f_d), 400.0 / f_d)
            runs.append(count_crossings(series, thresholds))
        mc = merge_counted(runs, 400.0 / f_d)
        mask = analytic / f_d > 0.01
        rel = np.abs(mc.rates[mask] - analytic[mask]) / analytic[mask]
        assert np.max(rel) < 0.10

    @pytest.mark.parametrize("dof", [0.5, 1.0, 3.0])
    def test_zero_threshold_is_the_limit(self, dof):
        # the rate goes as T**((dof - 1)/2) near 0; at dof = 1 it tends to
        # exp(-lam/2) * sqrt(scale * slope / (2 pi)) with slope 4 pi f_D**2 / scale
        fit = NcChiSqFit(dof=dof, noncentrality=2.0, scale=3.0)
        at_zero, near = lcr_rician(fit, 25.0, np.array([0.0, 1e-12]))
        if dof == 1.0:
            assert math.isclose(at_zero, math.exp(-1.0) * math.sqrt(2.0 * 625.0), rel_tol=1e-14)
            assert math.isclose(at_zero, 13.0065, rel_tol=1e-5)
            assert math.isclose(near, at_zero, rel_tol=1e-5)
        elif dof < 1.0:
            assert at_zero == math.inf and near > 1e3
        else:
            assert at_zero == 0.0 and near < 1e-9


def _gamma_moments(w):
    # (shape, rate) of the gamma law with mean sum(w) and variance sum(w**2)
    w = np.asarray(w, dtype=float)
    return np.sum(w) ** 2 / np.sum(w**2), np.sum(w) / np.sum(w**2)


def _gamma_closed_form_lcr(shape, rate, doppler_hz, t):
    # the gamma-process rate as its own closed form, with the autocovariance
    # curvature c = -4 pi**2 f_D**2 at lag zero,
    # (1 / (2 Gamma(shape))) sqrt(2 |c| / pi) (rate T)**(shape - 1/2) exp(-rate T)
    x = rate * t
    return np.exp(
        -math.log(2.0)
        - special.gammaln(shape)
        + 0.5 * math.log(8.0 * math.pi * doppler_hz**2)
        + (shape - 0.5) * np.log(x)
        - x
    )


class TestSingleRoute:
    def test_rayleigh_curve_equals_gamma_closed_form(self):
        stream = np.random.default_rng(40)
        for _ in range(50):
            w = stream.uniform(0.01, 0.5, size=int(stream.integers(1, 40)))
            curve = rayleigh_curve(w, 25.0)
            shape, rate = _gamma_moments(w)
            lcr = _gamma_closed_form_lcr(shape, rate, 25.0, curve.thresholds)
            aed = gamma_sf(curve.thresholds, shape, rate) / lcr
            np.testing.assert_allclose(curve.lcr, lcr, rtol=1e-12, atol=1e-280)
            big = lcr > 1e-280
            np.testing.assert_allclose(curve.aed[big], aed[big], rtol=1e-12)

    def test_central_rician_equals_rayleigh(self):
        w = [0.3, 0.05, 0.9, 0.2]
        shape, rate = _gamma_moments(w)
        central = NcChiSqFit(dof=2.0 * shape, noncentrality=0.0, scale=2.0 * rate)
        t = np.concatenate(([0.0], np.geomspace(1e-3, 20.0, 80)))
        f_d = 25.0
        got = lcr_rician(central, f_d, t)
        expected = rayleigh_curve(w, f_d, thresholds=t).lcr
        np.testing.assert_allclose(got, expected, rtol=1e-13)
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], _gamma_closed_form_lcr(shape, rate, f_d, t[1:]), rtol=1e-12)

    def test_rician_curve_at_zero_k_is_rayleigh(self):
        profile = [0.2, 0.2, 0.18, 0.01]
        curve = rician_curve(profile, 0.0, 25.0)
        again = rayleigh_curve(profile, 25.0)
        assert np.array_equal(curve.lcr, again.lcr)
        assert np.array_equal(curve.aed, again.aed, equal_nan=True)

    # at shape 1/2, sqrt(2 |c| / pi) / (2 sqrt(pi)) with |c| = 4 pi**2 f_D**2
    @pytest.mark.parametrize("shape,limit", [(0.3, math.inf), (0.5, 25.0 * math.sqrt(2.0)), (2.0, 0.0)])
    def test_rayleigh_zero_threshold_is_the_limit(self, shape, limit):
        central = NcChiSqFit(dof=2.0 * shape, noncentrality=0.0, scale=2.0)  # rate 1
        assert math.isclose(lcr_rician(central, 25.0, 0.0), limit, rel_tol=1e-14)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda t: rayleigh_curve([1.0], 25.0, thresholds=t),
        lambda t: lcr_rician(NcChiSqFit(3.0, 2.0, 3.0), 25.0, t),
    ],
    ids=["rayleigh_curve", "lcr_rician"],
)
@pytest.mark.parametrize("t", [math.nan, np.array([1.0, math.nan]), -1.0])
def test_nan_or_negative_threshold_rejected(evaluate, t):
    with pytest.raises(ValueError):
        evaluate(t)


class TestExceedanceDuration:
    def test_identity(self):
        assert math.isclose(exceedance_duration(2.0, 0.5), 0.25, rel_tol=1e-14)

    def test_zero_rate_nan(self):
        assert math.isnan(exceedance_duration(0.0, 0.3))

    def test_monotone_decreasing_on_fitted_curve(self):
        curve = rayleigh_curve([0.01] * 50, 25.0)
        aed = curve.aed
        finite = np.isfinite(aed)
        vals = aed[finite]
        assert np.all(np.diff(vals) < 0.0)


class TestCurves:
    def test_default_grid_shape(self):
        db, lin = default_threshold_grid(1.0)
        assert db[0] == -15.0 and db[-1] == 8.0
        assert len(db) == 231
        assert np.allclose(lin, 10.0 ** (db / 10.0))

    def test_rayleigh_curve_consistency(self):
        profile = [0.05, 0.1, 0.15]
        curve = rayleigh_curve(profile, 25.0)
        shape, rate = _gamma_moments(profile)
        direct = _gamma_closed_form_lcr(shape, rate, 25.0, curve.thresholds)
        assert np.allclose(curve.lcr, direct, rtol=1e-12)

    def test_rician_curve_consistency(self):
        profile = [0.2, 0.2, 0.18]
        curve = rician_curve(profile, 10.0, 25.0)
        fit = fit_ncx2(profile, 10.0)
        direct = lcr_rician(fit, 25.0, curve.thresholds)
        assert np.allclose(curve.lcr, direct, rtol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "build",
        [lambda w: fit_ncx2(w, 0.0), lambda w: fit_ncx2(w, 10.0), lambda w: rayleigh_curve(w, 25.0),
         lambda w: rician_curve(w, 10.0, 25.0)],
        ids=["fit_ncx2_k0", "fit_ncx2", "rayleigh_curve", "rician_curve"],
    )
    def test_non_finite_weight_rejected(self, build, bad):
        with pytest.raises(ValueError, match="positive finite weight"):
            build([1.0, bad])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
class TestRejectsNonFinite:
    # a non-finite K factor or Doppler frequency is bad input, not a fit failure
    def test_rician_component_moments(self, bad):
        with pytest.raises(ValueError, match="k_factor must be finite"):
            rician_component_moments(bad)

    def test_fit_ncx2(self, bad):
        with pytest.raises(ValueError, match="k_factor must be finite"):
            fit_ncx2([0.3, 0.5, 0.4], bad)

    def test_lcr_rician(self, bad):
        with pytest.raises(ValueError, match="doppler_hz must be positive and finite"):
            lcr_rician(fit_ncx2([0.3, 0.5, 0.4], 10.0), bad, np.array([0.5, 1.0]))

    def test_rician_curve(self, bad):
        with pytest.raises(ValueError, match="doppler_hz must be positive and finite"):
            rician_curve([0.3, 0.5, 0.4], 3.0, bad)
