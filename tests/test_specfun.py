import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special

from remcr.specfun import (
    bessel_j0,
    gamma_logpdf,
    gamma_pdf,
    gamma_sf,
    ln_gamma,
    log_bessel_i,
    ncx2_logpdf,
    ncx2_pdf,
    ncx2_sf,
)


class TestLnGamma:
    def test_unit(self):
        assert ln_gamma(1.0) == 0.0

    def test_half(self):
        assert math.isclose(ln_gamma(0.5), math.log(math.sqrt(math.pi)), rel_tol=1e-14)

    def test_factorial(self):
        assert math.isclose(ln_gamma(11.0), math.log(3628800.0), rel_tol=1e-14)


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
        assert np.allclose(ncx2_pdf(x, 0.5, 2.0, 1.0), stats.ncx2.pdf(x, 0.5, 2.0), rtol=1e-10)


class TestDensities:
    def test_exponential_at_origin(self):
        assert math.isclose(gamma_pdf(0.0, 1.0, 2.0), 2.0, rel_tol=1e-14)

    def test_gamma_matches_scipy(self):
        from scipy import stats

        x = np.linspace(0.01, 30.0, 50)
        mine = gamma_pdf(x, 3.7, 0.9)
        ref = stats.gamma.pdf(x, a=3.7, scale=1.0 / 0.9)
        assert np.allclose(mine, ref, rtol=1e-10)
        assert np.allclose(gamma_sf(x, 3.7, 0.9), stats.gamma.sf(x, a=3.7, scale=1.0 / 0.9), rtol=1e-10)

    def test_ncx2_matches_scipy(self):
        from scipy import stats

        x = np.linspace(0.05, 80.0, 60)
        v, lam, alpha = 4.3, 7.1, 1.9
        # scaled variable: X = Y/alpha with Y ~ ncx2(v, lam)
        mine = ncx2_pdf(x, v, lam, alpha)
        ref = stats.ncx2.pdf(alpha * x, df=v, nc=lam) * alpha
        assert np.allclose(mine, ref, rtol=1e-8)
        assert np.allclose(
            ncx2_sf(x, v, lam, alpha), stats.ncx2.sf(alpha * x, df=v, nc=lam), rtol=1e-8
        )

    def test_ncx2_degenerates_to_gamma(self):
        x = np.linspace(0.1, 10.0, 30)
        near_central = ncx2_pdf(x, 5.0, 1e-12, 2.0)
        central = gamma_pdf(x, 2.5, 1.0)
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
            assert np.array_equal(ncx2_pdf(x, dof, 0.0, scale), gamma_pdf(x, dof / 2, scale / 2))
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
            lambda x: ncx2_pdf(x, 2.7, 3.1, 0.8), 0.0, np.inf, limit=200
        )
        assert abs(total - 1.0) < 1e-8

    def test_ncx2_sf_from_quadrature(self):
        t = 6.0
        tail, _ = integrate.quad(lambda x: ncx2_pdf(x, 2.7, 3.1, 0.8), t, np.inf, limit=200)
        assert math.isclose(ncx2_sf(t, 2.7, 3.1, 0.8), tail, rel_tol=1e-8)


# Rician (K = 10 dB) moment fit of the no_dominant extreme profile that
# study_lcr draws at master seed 1: dof, noncentrality, scale.  Its
# half-noncentrality, about 290.9, is one where the summed Poisson weights
# stall short of 1 - 1e-16.
STALLING_FIT = (845.0975571892866, 581.7601894174691, 2450.179024423665)


def _ncx2_sf_mass_rule_only(x, dof, noncentrality, scale):
    """ncx2_sf's Poisson sum with only its mass and 100 001-term stops."""
    half = 0.5 * noncentrality
    y = 0.5 * scale * np.maximum(np.asarray(x, dtype=float), 0.0)
    out = np.zeros_like(y)
    mass = 0.0
    j = 0
    while mass < 1.0 - 1e-16:
        w = math.exp(-half + j * math.log(half) - special.gammaln(j + 1.0))
        out += w * special.gammaincc(0.5 * dof + j, y)
        mass += w
        j += 1
        if j > 100000:
            break
    return np.where(np.asarray(x) <= 0.0, 1.0, np.clip(out, 0.0, 1.0))


class TestNcx2SfStoppingRule:
    def test_same_result_as_the_sum_without_the_underflow_stop(self):
        x = np.linspace(0.2, 1.6, 15)
        assert np.array_equal(ncx2_sf(x, *STALLING_FIT), _ncx2_sf_mass_rule_only(x, *STALLING_FIT))

    def test_stops_soon_after_the_weights_underflow(self, monkeypatch):
        calls = []
        gammaincc = special.gammaincc

        def counted(a, y):
            calls.append(a)
            return gammaincc(a, y)

        monkeypatch.setattr(special, "gammaincc", counted)
        ncx2_sf(np.linspace(0.2, 1.6, 15), *STALLING_FIT)
        # w_j underflows past j = 1163 for h = 290.9; the old rule ran 100 001 terms
        assert 0.5 * STALLING_FIT[1] < len(calls) <= 1200

    @settings(max_examples=60, deadline=None)
    @given(
        dof=st.floats(0.5, 1000.0),
        noncentrality=st.floats(0.0, 700.0),
        scale=st.floats(0.1, 5000.0),
        factors=st.lists(st.floats(0.0, 4.0), min_size=2, max_size=12),
    )
    def test_in_unit_interval_and_nonincreasing(self, dof, noncentrality, scale, factors):
        mean = (dof + noncentrality) / scale
        x = mean * np.sort(factors)
        sf = ncx2_sf(x, dof, noncentrality, scale)
        assert np.all((sf >= 0.0) & (sf <= 1.0))
        assert np.all(np.diff(sf) <= 0.0)


_IMPORT_GUARD = """
import json, sys
import remcr, remcr.cli, remcr.experiments
codes = [remcr.cli.run([study, "--trials", "3", "--out", f"{sys.argv[1]}/{study}.csv"])
         for study in ("cdf", "grid-tradeoff", "backoff")]
before = "scipy.special" in sys.modules
from remcr import specfun
value = specfun.gamma_sf(1.0, 2.0, 1.0)
after = "scipy.special" in sys.modules
import scipy.special
print(json.dumps({"codes": codes, "before": before, "after": after,
                  "equal": bool(value == scipy.special.gammaincc(2.0, 1.0))}))
"""


class TestLazyImport:
    def test_scipy_special_loads_on_first_call(self, tmp_path):
        # the admission studies never evaluate a special function, so a fresh
        # process running them must not pay for importing scipy.special
        proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["codes"] == [0, 0, 0]
        assert not got["before"]
        assert got["equal"]
        assert got["after"]
