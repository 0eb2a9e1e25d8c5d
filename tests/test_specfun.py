import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special

from remcr.specfun import (
    _log_pq,
    _ncx2_log_sf,
    bessel_j0,
    gamma_logpdf,
    gamma_sf,
    log_bessel_i,
    ncx2_logpdf,
    ncx2_sf,
)


class TestBesselJ0:
    def test_origin(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_zero(self):
        assert abs(bessel_j0(2.404825557695773)) < 1e-9

    def test_small_argument_series(self):
        x = 0.01
        series = 1.0 - x**2 / 4.0 + x**4 / 64.0
        assert abs(bessel_j0(x) - series) < 1e-12

    def test_vectorized(self):
        x = np.array([0.0, 1.0, 2.0])
        got = bessel_j0(x)
        assert got.shape == (3,)
        assert got[0] == 1.0

    def test_within_its_bound_of_scipy_across_the_domain(self):
        # the docstring's bound, 1e-15 * (1 + |x|) for |x| <= 1e5
        rng = np.random.default_rng(3)
        x = np.concatenate([
            np.linspace(-40.0, 40.0, 2001),
            np.geomspace(1e-8, 1e5, 1500),
            -np.geomspace(1e-3, 1e5, 100),
            rng.uniform(-1e5, 1e5, 100),
            [1e5, -1e5],
        ])
        err = np.abs(bessel_j0(x) - special.j0(x))
        assert np.all(err <= 1e-15 * (1.0 + np.abs(x)))

    def test_element_value_independent_of_the_array(self):
        x = [0.5, 30.0, 7e4, -2.0]
        assert bessel_j0(np.array(x)).tolist() == [bessel_j0(v) for v in x]

    @pytest.mark.parametrize("bad", [math.nan, 1.000001e5, -math.inf])
    def test_rejects_nan_and_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            bessel_j0(np.array([1.0, bad]))


class TestLogBesselI:
    def test_zero_order_at_origin(self):
        val = log_bessel_i(0.0, np.array([0.0]))
        assert math.isclose(math.exp(val[0]), 1.0, rel_tol=1e-14)

    def test_half_order_closed_form(self):
        expected = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        val = log_bessel_i(0.5, np.array([1.0]))
        assert math.isclose(math.exp(val[0]), expected, rel_tol=1e-12)

    def test_integer_order_series_oracle(self):
        # sum_k (x/2)^(2k+2) / (k! (k+2)!) summed to machine precision
        x = 3.0
        total, k = 0.0, 0
        while True:
            contrib = (x / 2.0) ** (2 * k + 2) / (math.factorial(k) * math.factorial(k + 2))
            total += contrib
            if contrib < 1e-20 * total:
                break
            k += 1
        val = log_bessel_i(2.0, np.array([3.0]))
        assert math.isclose(math.exp(val[0]), total, rel_tol=1e-12)
        assert math.isclose(total, 2.245212440929952, rel_tol=1e-12)

    def test_limits_at_origin(self):
        assert log_bessel_i(0.0, np.zeros(2)).tolist() == [0.0, 0.0]
        assert log_bessel_i(1.5, np.zeros(1))[0] == -math.inf
        assert log_bessel_i(-0.25, np.zeros(1))[0] == math.inf

    def test_underflow_uses_the_series(self):
        # ive(200, x) underflows for both arguments; at x = 1e-3 two terms
        # of the ascending series are exact to rounding
        got = log_bessel_i(200.0, np.array([1e-3, 1.0]))
        head = 200.0 * math.log(0.5e-3) - math.lgamma(201.0)
        assert math.isclose(got[0], head + math.log1p(0.25e-6 / 201.0), rel_tol=1e-15)
        assert np.isfinite(got[1])

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            log_bessel_i(0.0, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            log_bessel_i(-1.0, np.array([1.0]))

    def test_order_below_minus_half(self):
        # ncx2 with 0 < dof < 1 needs orders in (-1, -0.5):
        # I_{-0.75}(x) = I_{0.75}(x) + (2/pi) sin(0.75 pi) K_{0.75}(x)
        from scipy import stats

        x = np.array([0.5, 2.0])
        expected = special.iv(0.75, x) + 2.0 / math.pi * math.sin(0.75 * math.pi) * special.kv(0.75, x)
        assert np.allclose(np.exp(log_bessel_i(-0.75, x)), expected, rtol=1e-12)
        assert np.allclose(np.exp(ncx2_logpdf(x, 0.5, 2.0, 1.0)), stats.ncx2.pdf(x, 0.5, 2.0), rtol=1e-10)


    @pytest.mark.parametrize("order", [-0.75, 0.0, 0.5, 7.3, 39.5, 40.0, 41.2, 252.0, 1000.0])
    def test_matches_scipy_over_orders_and_arguments(self, order):
        # Debye's expansion from order 40 up, the downward recurrence below;
        # scipy's exponentially scaled ive keeps its log finite for large x
        x = np.geomspace(1e-3, 1e5, 81)
        scaled = special.ive(order, x)
        ok = scaled > 0.0
        want = np.log(scaled[ok]) + x[ok]
        got = log_bessel_i(order, x)[ok]
        assert np.all(np.abs(got - want) <= 2e-13 * np.maximum(1.0, np.abs(want)))


    def test_order_beyond_the_float_range_of_its_powers(self):
        # order**13 overflows at order 1e30: the terms from there on are below
        # rounding, so the leading Debye term is the answer
        order = 1e30
        x = np.array([1e-3, 1e29, 1e30, 1e31])
        r = np.hypot(order, x)
        want = r - order * np.arcsinh(order / x) - 0.5 * np.log(2.0 * math.pi * r)
        assert np.allclose(log_bessel_i(order, x), want, rtol=1e-15, atol=0.0)


class TestIncompleteGamma:
    @pytest.mark.parametrize("a", [0.25, 0.5, 3.7, 47.7, 252.5, 2500.0])
    def test_continuous_across_the_series_fraction_switch(self, a):
        # the series covers y < a + 1 and the continued fraction the rest: Q
        # agrees with scipy on both sides and falls across the switch, where
        # 1e-14 steps in y lower it by 1e-15 (a = 0.25) to 4e-13 (a = 2500)
        y = (a + 1.0) * (1.0 + 1e-14 * np.arange(-3, 4))
        q = np.exp(_log_pq(a, y)[1])
        assert np.all(np.diff(q) < 0.0)
        assert np.allclose(q, special.gammaincc(a, y), rtol=1e-13, atol=0.0)

    def test_matches_scipy_far_into_both_tails(self):
        for a in (0.5, 3.7, 88.0, 252.5):
            y = np.geomspace(1e-3, 30.0 * (a + 10.0), 200)
            want = special.gammaincc(a, y)
            big = want > 1e-290
            q = np.exp(_log_pq(a, y)[1])
            assert np.allclose(q[big], want[big], rtol=1e-11, atol=0.0)


    def test_survival_functions_at_the_ends(self):
        # 1 at and below 0 and where scale*x underflows to 0, 0 where it overflows
        x = np.array([-1.0, 0.0, 5e-324, 1e300])
        assert gamma_sf(x, 2.0, 0.1).tolist() == [1.0, 1.0, 1.0, 0.0]
        assert ncx2_sf(x, 3.0, 2.0, 0.1).tolist() == [1.0, 1.0, 1.0, 0.0]


class TestRejectsNaN:
    def test_log_bessel_i(self):
        with pytest.raises(ValueError):
            log_bessel_i(0.5, np.array([math.nan]))
        with pytest.raises(ValueError):
            log_bessel_i(math.nan, np.array([1.0]))

    @pytest.mark.parametrize("args", [(math.nan, 2.0, 1.0), (1.0, math.nan, 1.0), (1.0, 2.0, math.nan),
                                      (np.array([1.0, math.nan]), 2.0, 1.0)])
    def test_gamma_sf(self, args):
        with pytest.raises(ValueError):
            gamma_sf(*args)

    @pytest.mark.parametrize("args", [(1.0, math.nan, 2.0, 1.0), (math.nan, 3.0, 2.0, 1.0),
                                      (1.0, 3.0, math.nan, 1.0), (1.0, 3.0, 2.0, math.nan),
                                      (np.array([1.0, math.nan]), 3.0, 0.0, 1.0)])
    def test_ncx2_sf(self, args):
        with pytest.raises(ValueError):
            ncx2_sf(*args)


class TestDensities:
    def test_gamma_matches_scipy(self):
        from scipy import stats

        x = np.linspace(0.01, 30.0, 50)
        mine = np.exp(gamma_logpdf(x, 3.7, 0.9))
        ref = stats.gamma.pdf(x, a=3.7, scale=1.0 / 0.9)
        assert np.allclose(mine, ref, rtol=1e-10)
        assert np.allclose(gamma_sf(x, 3.7, 0.9), stats.gamma.sf(x, a=3.7, scale=1.0 / 0.9), rtol=1e-10)

    def test_ncx2_matches_scipy(self):
        from scipy import stats

        x = np.linspace(0.05, 80.0, 60)
        v, lam, alpha = 4.3, 7.1, 1.9
        # scaled variable: X = Y/alpha with Y ~ ncx2(v, lam)
        mine = np.exp(ncx2_logpdf(x, v, lam, alpha))
        ref = stats.ncx2.pdf(alpha * x, df=v, nc=lam) * alpha
        assert np.allclose(mine, ref, rtol=1e-8)
        assert np.allclose(
            ncx2_sf(x, v, lam, alpha), stats.ncx2.sf(alpha * x, df=v, nc=lam), rtol=1e-8
        )

    def test_ncx2_degenerates_to_gamma(self):
        x = np.linspace(0.1, 10.0, 30)
        near_central = np.exp(ncx2_logpdf(x, 5.0, 1e-12, 2.0))
        central = np.exp(gamma_logpdf(x, 2.5, 1.0))
        assert np.allclose(near_central, central, atol=1e-8, rtol=1e-6)

    def test_logpdfs_match_scipy(self):
        from scipy import stats

        x = np.geomspace(1e-3, 80.0, 60)
        assert np.allclose(
            gamma_logpdf(x, 3.7, 0.9), stats.gamma.logpdf(x, a=3.7, scale=1.0 / 0.9), rtol=1e-12
        )
        v, lam, alpha = 4.3, 7.1, 1.9
        ref = stats.ncx2.logpdf(alpha * x, df=v, nc=lam) + math.log(alpha)
        assert np.allclose(ncx2_logpdf(x, v, lam, alpha), ref, rtol=1e-8)

    def test_central_ncx2_is_the_gamma_law(self):
        x = np.geomspace(1e-3, 50.0, 40)
        for dof, scale in ((0.7, 0.3), (2.0, 1.0), (9.4, 2.6)):
            assert np.array_equal(ncx2_logpdf(x, dof, 0.0, scale), gamma_logpdf(x, dof / 2, scale / 2))
            x_sf = np.concatenate(([-1.0, 0.0], x))
            assert np.array_equal(ncx2_sf(x_sf, dof, 0.0, scale), gamma_sf(x_sf, dof / 2, scale / 2))

    @pytest.mark.parametrize(
        "logpdf", [lambda x: gamma_logpdf(x, 2.0, 1.0), lambda x: ncx2_logpdf(x, 3.0, 2.0, 1.5)],
        ids=["gamma_logpdf", "ncx2_logpdf"],
    )
    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_logpdf_needs_positive_x(self, logpdf, x):
        with pytest.raises(ValueError, match="requires x > 0"):
            logpdf(np.array([1.0, x]))

    def test_ncx2_normalized(self):
        total, err = integrate.quad(
            lambda x: np.exp(ncx2_logpdf(x, 2.7, 3.1, 0.8)), 0.0, np.inf, limit=200
        )
        assert abs(total - 1.0) < 1e-8

    def test_ncx2_sf_from_quadrature(self):
        t = 6.0
        tail, _ = integrate.quad(lambda x: np.exp(ncx2_logpdf(x, 2.7, 3.1, 0.8)), t, np.inf, limit=200)
        assert math.isclose(ncx2_sf(t, 2.7, 3.1, 0.8), tail, rel_tol=1e-8)


# Rician (K = 10 dB) moment fits of the two extreme profiles that study_lcr
# draws at master seed 1: dof, noncentrality, scale.  STALLING_FIT's
# half-noncentrality, about 290.9, is one where the summed Poisson weights
# stall short of 1 - 1e-16, and DOMINANT_FIT's upper tail is where a
# Poisson-mass stopping rule loses the sum.
STALLING_FIT = (845.0975571892866, 581.7601894174691, 2450.179024423665)
DOMINANT_FIT = (503.96254118497257, 205.90568496840694, 1251.708405559664)


def _mpmath_ncx2_sf(x, dof, noncentrality, scale):
    """The Poisson mixture sum_j Pois(j; h) Q(dof/2 + j, scale*x/2) at 40
    digits, from j = 0 until a term past the Poisson mode is below 1e-45 of
    the sum.  Q(dof/2, y) is mpmath's; the rest follow from the identity
    Q(a+1, y) = Q(a, y) + y^a e^-y / Gamma(a+1)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        h = mpmath.mpf(noncentrality) / 2
        a = mpmath.mpf(dof) / 2
        y = mpmath.mpf(scale) * mpmath.mpf(x) / 2
        q = mpmath.gammainc(a, y, mpmath.inf, regularized=True)
        d = mpmath.exp(a * mpmath.log(y) - y - mpmath.loggamma(a + 1))
        w = mpmath.exp(-h)
        total = mpmath.mpf(0)
        j = 0
        while True:
            term = w * q
            total += term
            if j > h and term < total * mpmath.mpf(10) ** -45:
                return total
            q += d
            d *= y / (a + j + 1)
            j += 1
            w *= h / j


class TestNcx2SfStoppingRule:
    @pytest.mark.parametrize(
        "fit, db",
        [pytest.param(DOMINANT_FIT, db, id=f"dominant{db:+}dB") for db in (-6.0, -0.7, 1.0, 2.5, 4.2, 4.8)]
        + [pytest.param(STALLING_FIT, db, id=f"no_dominant{db:+}dB") for db in (-3.0, 0.5, 3.0, 4.0)],
    )
    def test_matches_the_mpmath_sum(self, fit, db):
        # -0.7 dB and 4.2 dB are where a sum stopped at 1 - 1e-16 of Poisson
        # mass goes wrong: by 5e-6, and with 2.2e-288 for 6.9e-270
        x = 10.0 ** (db / 10.0)
        want = _mpmath_ncx2_sf(x, *fit)
        got = ncx2_sf(x, *fit)
        if want > 1e-300:
            assert abs(got / float(want) - 1.0) <= 1e-10
        else:  # 4.8 dB and 4.0 dB: 1.2e-341 and 6.2e-448, below the float range
            assert got == float(want) == 0.0

    def test_term_count(self):
        # The sums start within sqrt(82 h) + 28 of the Poisson mode, the
        # upper one upward and the lower one downward, and stop once the
        # falling term ratio bounds the rest under 1e-17 of the sum: for
        # h = 290.9 they take 1 024 terms together, in blocks of 64, where a
        # sum from j = 0 until the weights underflow takes about 1 160.
        x = np.linspace(0.2, 1.6, 15)
        dof, noncentrality, scale = STALLING_FIT
        _, terms = _ncx2_log_sf(0.5 * scale * x, 0.5 * dof, 0.5 * noncentrality)
        assert terms <= 1024
        # The count grows as sqrt(h): at h = 1e6 the thresholds 0.01 to 100
        # times the mean take under 40 sqrt(h) terms, where a sum from j = 0
        # would need 1e6 to reach the mode.
        y = np.geomspace(0.01, 100.0, 231) * (1.0 + 1e6)
        _, terms = _ncx2_log_sf(y, 1.0, 1e6)
        assert terms <= 40 * 1000

    def test_noncentrality_beyond_int64_decided_by_the_bounds(self):
        # h = 1e30: the law's standard deviation is 1e-15 of its mean, so the
        # Chernoff bounds fix every point below and above the mean to 1 and 0
        # and no term is summed
        mean = 2e30
        got = ncx2_sf(mean * np.array([0.5, 0.999, 1.001, 2.0]), 1e30, 1e30, 1.0)
        assert got.tolist() == [1.0, 1.0, 0.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(
        dof=st.floats(0.5, 1000.0),
        noncentrality=st.floats(0.0, 700.0),
        scale=st.floats(0.1, 5000.0),
        factors=st.lists(st.floats(0.0, 4.0), min_size=2, max_size=12),
    )
    # SF just below 1: a sum of Q terms upward gives 0.9999999999999993 and
    # then 1.0 here, where the downward sum over P falls as it should
    @example(dof=1.0, noncentrality=396.5, scale=1.0, factors=[0.34375, 0.359375])
    def test_in_unit_interval_and_nonincreasing(self, dof, noncentrality, scale, factors):
        mean = (dof + noncentrality) / scale
        x = mean * np.sort(factors)
        sf = ncx2_sf(x, dof, noncentrality, scale)
        assert np.all((sf >= 0.0) & (sf <= 1.0))
        assert np.all(np.diff(sf) <= 0.0)


_IMPORT_GUARD = """
import json, sys
sys.modules["scipy"] = None  # from here on, importing scipy raises ImportError
import remcr.cli
from remcr import experiments, lcr
from remcr.scenario import ScenarioConfig
codes = [remcr.cli.run([study, "--trials", "3", "--out", f"{sys.argv[1]}/{study}.csv"])
         for study in ("cdf", "grid-tradeoff", "backoff")]
for study in (experiments.study_lcr, experiments.study_aed):
    study(ScenarioConfig(), n_profile_trials=40, mc_runs=1)
codes.append(remcr.cli.run(["validate"]))
acf = lcr.aggregate_acf([1.0, 2.0], 25.0, [0.0, 0.01])
print(json.dumps({"codes": codes, "acf": acf.tolist()}))
"""


class TestNoScipySpecial:
    def test_studies_never_load_scipy_special(self, tmp_path):
        # the runtime is numpy alone: with scipy blocked, a fresh process runs
        # all five studies, validate and the squared-Bessel autocorrelation
        proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["codes"] == [0, 0, 0, 0]
        assert got["acf"][0] == 1.0
        assert abs(got["acf"][1] - special.j0(2.0 * math.pi * 0.25) ** 2) <= 1e-15
