"""Log-space special functions for the analytic crossing-rate formulas.

Every density evaluated here can span hundreds of orders of magnitude over a
threshold sweep, so all magnitudes are carried as logarithms and exponentiated
only at the very end.  The primitive functions (log-gamma, Bessel J0, scaled
Bessel I) are delegated to scipy.special, which is accurate to near machine
precision on the domains used; the densities and survival functions built on
top of them are assembled here in log space.

scipy.special is imported inside the functions that call it, so it loads on
the first call and not with this module: the map-precision studies import
this module through remcr.lcr but never evaluate a special function, and the
import costs about 0.3 s of their start-up.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ln_gamma",
    "bessel_j0",
    "log_bessel_i",
    "gamma_logpdf",
    "gamma_pdf",
    "gamma_sf",
    "ncx2_logpdf",
    "ncx2_pdf",
    "ncx2_sf",
]


def ln_gamma(x):
    """Natural log of the gamma function for x > 0.

    Vectorized over x.  Raises ValueError on non-positive input, where the
    real-valued log would not be defined for our uses.
    """
    from scipy import special as _sp

    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("ln_gamma requires x > 0")
    out = _sp.gammaln(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def bessel_j0(x):
    """Bessel function of the first kind, order zero.  Vectorized."""
    from scipy import special as _sp

    arr = np.asarray(x, dtype=float)
    out = _sp.j0(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _log_i_series(order: float, x: float) -> float:
    # Leading ascending-series terms, used only if the scaled Bessel
    # underflows (tiny x with large order).  log I_nu(x) ~ nu*log(x/2)
    # - lnGamma(nu+1) + log(1 + r1 + r1*r2 + ...), r_k = (x^2/4)/(k*(nu+k)).
    from scipy import special as _sp

    q = 0.25 * x * x
    head = order * math.log(0.5 * x) - _sp.gammaln(order + 1.0)
    total = 1.0
    term = 1.0
    for k in range(1, 40):
        term *= q / (k * (order + k))
        total += term
        if term < 1e-18 * total:
            break
    return head + math.log(total)


def log_bessel_i(order: float, x) -> np.ndarray:
    """log of the modified Bessel function I_order(x), order > -1, x >= 0.

    I is positive there, and the orders (dof - 2)/2 of the noncentral
    chi-square densities with dof > 0 are all inside.  Returns an array of
    logarithms, so that I values far beyond float range (x of several
    hundred) stay usable inside log-space density formulas.  At x = 0 the
    limit is 0, -inf or +inf as the order is zero, positive or negative;
    where the scaled Bessel ive underflows the ascending series takes over.
    """
    from scipy import special as _sp

    if not order > -1.0:
        raise ValueError("log_bessel_i requires order > -1")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("log_bessel_i requires x >= 0")
    out = np.empty_like(x)
    with np.errstate(divide="ignore"):
        scaled = _sp.ive(order, x)
        good = (scaled > 0.0) & np.isfinite(scaled) & (x > 0.0)
        out[good] = np.log(scaled[good]) + x[good]
    zero = x == 0.0
    out[zero] = 0.0 if order == 0.0 else (-math.inf if order > 0 else math.inf)
    rest = ~(good | zero)
    if np.any(rest):
        out[rest] = [_log_i_series(order, v) for v in x[rest].tolist()]
    return out


def _density(x, logpdf, at_zero: float, name: str):
    # exp(logpdf) at x > 0 and the x = 0 limit at_zero; a NaN x fails the
    # x >= 0 test and is rejected rather than given the limit.
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 0.0):
        raise ValueError(f"{name} requires x >= 0")
    out = np.full_like(arr, at_zero)
    pos = arr > 0.0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(logpdf(arr[pos]))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def gamma_logpdf(x, shape: float, rate: float):
    """log of the gamma density (shape/rate parameterization, mean
    shape/rate) at x > 0:
        shape*ln(rate) + (shape-1)*ln(x) - rate*x - lnGamma(shape).
    Vectorized over x."""
    from scipy import special as _sp

    if shape <= 0.0 or rate <= 0.0:
        raise ValueError("gamma_logpdf requires shape > 0 and rate > 0")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("gamma_logpdf requires x > 0")
    return shape * math.log(rate) + (shape - 1.0) * np.log(x) - rate * x - _sp.gammaln(shape)


def gamma_pdf(x, shape: float, rate: float):
    """Gamma density with shape/rate parameterization (mean shape/rate).

    exp(gamma_logpdf) at x > 0; x = 0 follows the usual limits (rate for
    shape = 1, +inf below, 0 above).  Vectorized over x.
    """
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError("gamma_pdf requires shape > 0 and rate > 0")
    at_zero = rate if shape == 1.0 else (math.inf if shape < 1.0 else 0.0)
    return _density(x, lambda v: gamma_logpdf(v, shape, rate), at_zero, "gamma_pdf")


def gamma_sf(x, shape: float, rate: float):
    """Survival function of the gamma law, via the regularized upper
    incomplete gamma Q(shape, rate*x).  Vectorized over x."""
    from scipy import special as _sp

    if shape <= 0.0 or rate <= 0.0:
        raise ValueError("gamma_sf requires shape > 0 and rate > 0")
    arr = np.asarray(x, dtype=float)
    out = _sp.gammaincc(shape, rate * np.maximum(arr, 0.0))
    out = np.where(arr <= 0.0, 1.0, out)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def ncx2_logpdf(x, dof: float, noncentrality: float, scale: float):
    """log of the density of g = (noncentral chi-square with `dof` d.o.f.
    and given noncentrality) / scale at x > 0, with real dof > 0 allowed:
        ln(scale/2) - (noncentrality + scale*x)/2
        + (dof-2)/4 * ln(scale*x / noncentrality)
        + ln I_{(dof-2)/2}( sqrt(noncentrality*scale*x) ),
    which stays finite for extreme arguments.  At zero noncentrality it is
    gamma_logpdf with shape dof/2 and rate scale/2; a tiny positive
    noncentrality lands on that limit smoothly.  Vectorized over x.
    """
    if dof <= 0.0 or scale <= 0.0 or noncentrality < 0.0:
        raise ValueError("ncx2_logpdf requires dof > 0, scale > 0, noncentrality >= 0")
    if noncentrality == 0.0:
        return gamma_logpdf(x, 0.5 * dof, 0.5 * scale)
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("ncx2_logpdf requires x > 0")
    order = 0.5 * (dof - 2.0)
    logi = log_bessel_i(order, np.sqrt(noncentrality * scale * x))
    return (
        math.log(0.5 * scale)
        - 0.5 * (noncentrality + scale * x)
        + 0.5 * order * (np.log(scale * x) - math.log(noncentrality))
        + logi
    )


def ncx2_pdf(x, dof: float, noncentrality: float, scale: float):
    """Density of the scaled noncentral chi-square of ncx2_logpdf.

    exp(ncx2_logpdf) at x > 0; x = 0 follows the limits (scale/2 *
    exp(-noncentrality/2) for dof = 2, +inf below, 0 above).  Vectorized
    over x.
    """
    if dof <= 0.0 or scale <= 0.0 or noncentrality < 0.0:
        raise ValueError("ncx2_pdf requires dof > 0, scale > 0, noncentrality >= 0")
    if dof == 2.0:
        at_zero = 0.5 * scale * math.exp(-0.5 * noncentrality)
    else:
        at_zero = math.inf if dof < 2.0 else 0.0
    return _density(
        x, lambda v: ncx2_logpdf(v, dof, noncentrality, scale), at_zero, "ncx2_pdf"
    )


def ncx2_sf(x, dof: float, noncentrality: float, scale: float):
    """Survival function of the scaled noncentral chi-square above.

    Uses the Poisson mixture of central chi-square tails,
        SF(x) = sum_j w_j * Q(dof/2 + j, scale*x/2),  w_j = Pois(j; h),
    h = noncentrality/2, summed from j = 0 upward; at zero noncentrality it is
    gamma_sf with shape dof/2 and rate scale/2.  Each Q term is <= 1, so
    the truncation error is at most the Poisson mass left out.  The sum stops
    at the first of:
      - the float sum of the weights reaches 1 - 1e-16.  The weights come
        from exp(log w_j) and carry a relative error of about
        2.2e-16 * h * ln(h), so the mass left out is below about that much
        (measured: 3.7e-14 at h = 103, 1.3e-11 at h = 1e4);
      - past the mode (j > h) a weight underflows to 0.  The weights fall
        from there on, w_{i+1}/w_i = h/(i+1), so the tail from j is at most
        w_j / (1 - h/(j+1)): every later term is an exact 0.0 and the sum is
        final.  This is the rule that ends the sum when the summed weights
        stall short of 1 - 1e-16, as they do at about 1 - 7e-14 for h = 291;
      - 100 001 terms, reached only for h near 1e5 or above, where the sum
        is cut before the mode and the result is not bounded.
    Vectorized over x.
    """
    from scipy import special as _sp

    if dof <= 0.0 or scale <= 0.0 or noncentrality < 0.0:
        raise ValueError("ncx2_sf requires dof > 0, scale > 0, noncentrality >= 0")
    half = 0.5 * noncentrality
    if half == 0.0:  # also where a subnormal noncentrality halves to 0
        return gamma_sf(x, 0.5 * dof, 0.5 * scale)
    arr = np.asarray(x, dtype=float)
    y = 0.5 * scale * np.maximum(arr, 0.0)
    out = np.zeros_like(y)
    mass = 0.0
    j = 0
    while mass < 1.0 - 1e-16:
        logw = -half + j * math.log(half) - _sp.gammaln(j + 1.0)
        w = math.exp(logw)
        if w == 0.0 and j > half:
            break
        out += w * _sp.gammaincc(0.5 * dof + j, y)
        mass += w
        j += 1
        if j > 100000:  # hard stop, see the docstring
            break
    out = np.where(arr <= 0.0, 1.0, np.clip(out, 0.0, 1.0))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out
