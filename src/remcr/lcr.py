"""Analytic level-crossing rates and exceedance durations for the aggregate.

With N admitted transmitters the instantaneous aggregate interference is
sum_i w_i * |h_i(t)|**2 with unit-power fading per path.  It is approximated
by a scaled noncentral chi-square process with real (possibly fractional)
degrees of freedom, matched to the first three moments under Rician fading.
Rayleigh fading is the K = 0 case of the same fit, and the only Rayleigh
route: the noncentrality vanishes, the first two moments fix the fit, and the
density is the gamma law.  Either way the crossing rate at level T is Rice's
formula on the fitted density,
    N(T) = pdf(T) * sqrt(slope * T),
with slope = 4*pi * f_D**2 / scale, evaluated in log space.  Moment fits
that admit no valid noncentral chi-square parameters raise FitFailureError,
mirroring a real limitation of the three-moment method for some weight
profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from remcr.allocation import FitFailureError, power_sum, profile_weights

# remcr.specfun is imported by the functions that use it, on their first
# call: the map-precision studies import this module but never evaluate a
# curve, and compiling specfun with them costs them about 0.3 MB of peak RSS
# where no bytecode is cached.

__all__ = [
    "NcChiSqFit",
    "LcrCurve",
    "FitFailureError",
    "fit_ncx2",
    "rician_component_moments",
    "aggregate_acf",
    "lcr_rician",
    "exceedance_duration",
    "default_threshold_grid",
    "rayleigh_curve",
    "rician_curve",
]


@dataclass(frozen=True)
class NcChiSqFit:
    """Scaled noncentral chi-square approximation of the aggregate.

    The variate is (chi-square with `dof` d.o.f., noncentrality lam) / scale:
    mean (dof + noncentrality)/scale, variance 2*(dof + 2*noncentrality)/scale**2.
    """

    dof: float
    noncentrality: float
    scale: float


@dataclass(frozen=True)
class LcrCurve:
    """Crossing rate and exceedance duration over a threshold grid.

    thresholds are linear interference levels; lcr entries are crossing rates
    per second (divide by the Doppler frequency for the normalized form);
    aed entries are seconds, NaN where the crossing rate is zero.
    """

    thresholds: np.ndarray
    lcr: np.ndarray
    aed: np.ndarray


def rician_component_moments(k_factor: float) -> tuple[float, float, float]:
    """(mean, variance, third central moment) of one unit-power Rician
    squared envelope with linear K factor.

    k_factor = 0 reduces to the exponential values (1, 1, 2).  ValueError
    unless k_factor is finite and non-negative.
    """
    if not 0.0 <= k_factor < math.inf:  # also rejects NaN
        raise ValueError("k_factor must be finite and non-negative")
    kp1 = 1.0 + k_factor
    var = (1.0 + 2.0 * k_factor) / kp1**2
    third = 2.0 * (1.0 + 3.0 * k_factor) / kp1**3
    return 1.0, var, third


def fit_ncx2(profile, k_factor: float) -> NcChiSqFit:
    """Three-moment fit of a scaled noncentral chi-square to the aggregate
    under Rician fading with the given linear K factor.

    Matching mean m1, variance m2 and third central moment m3 of the
    aggregate eliminates dof and noncentrality and leaves
        (m3/8)*scale**2 - m2*scale + m1 = 0.
    A root must satisfy dof > 0 and noncentrality >= 0 to define a process;
    when no root does (which genuinely happens for moderately dominant
    profiles), FitFailureError is raised, as it is when a power sum of the
    weights underflows to zero or overflows.  k_factor = 0 is Rayleigh
    fading and degenerates to the central case: the first two moments fix
    dof = 2*m1**2/m2 and scale = 2*m1/m2, twice the shape and rate of the
    moment-matched gamma law, and the third moment is no longer free.
    ValueError unless k_factor is finite and non-negative.
    """
    w = profile_weights(profile)
    _, c2, c3 = rician_component_moments(k_factor)
    m1 = power_sum(w, 1)
    m2 = c2 * power_sum(w, 2)  # c2 = 1 at k_factor = 0
    if k_factor == 0.0:
        return NcChiSqFit(dof=2.0 * (m1 * m1 / m2), noncentrality=0.0, scale=2.0 * (m1 / m2))
    m3 = c3 * power_sum(w, 3)
    # (m3/8) a^2 - m2 a + m1 = 0
    disc = m2 * m2 - 0.5 * m1 * m3
    if disc < 0.0:
        raise FitFailureError(
            f"no real scale solves the moment equations (discriminant {disc:.3e}) "
            f"for weights {np.array2string(w, precision=6)}"
        )
    root = math.sqrt(disc)
    candidates = []
    for a in ((m2 + root) / (0.25 * m3), (m2 - root) / (0.25 * m3)):
        lam = 0.5 * a * a * m2 - a * m1
        dof = a * m1 - lam
        if a > 0.0 and dof > 0.0 and lam >= 0.0:
            candidates.append(NcChiSqFit(dof=dof, noncentrality=lam, scale=a))
    if not candidates:
        raise FitFailureError(
            f"no admissible (dof, noncentrality) for weights {np.array2string(w, precision=6)}"
        )
    # Both roots reproduce all three moments; prefer the larger scale, which
    # is the exact solution in the single-component case.
    return max(candidates, key=lambda f: f.scale)


def aggregate_acf(profile, doppler_hz: float, tau):
    """Normalized autocovariance of the aggregate at lags tau.

    Each path contributes the squared zeroth-order Bessel function of
    2*pi*f_D*tau; with a shared Doppler frequency the weights cancel.
    """
    from remcr import specfun

    profile_weights(profile)
    out = specfun.bessel_j0(2.0 * math.pi * doppler_hz * np.asarray(tau, dtype=float)) ** 2
    return float(out) if np.isscalar(tau) else out


def _rice_rate(fit: NcChiSqFit, slope: float, thresholds):
    # Rice's formula pdf(T) * sqrt(slope * T) on the fitted density, in log
    # space.  At T = 0 it takes its limit: 0 for dof > 1, +inf for dof < 1,
    # and exp(-noncentrality/2) * sqrt(scale * slope / (2*pi)) for dof = 1.
    from remcr import specfun

    t = np.asarray(thresholds, dtype=float)
    if not np.all(t >= 0.0):  # also rejects NaN
        raise ValueError("thresholds must be non-negative")
    out = np.empty_like(t)
    pos = t > 0.0
    x = t[pos]
    with np.errstate(over="ignore"):
        logpdf = specfun.ncx2_logpdf(x, fit.dof, fit.noncentrality, fit.scale)
        out[pos] = np.exp(logpdf + 0.5 * np.log(slope * x))
    if fit.dof == 1.0:
        out[~pos] = math.exp(-0.5 * fit.noncentrality) * math.sqrt(fit.scale * slope / (2.0 * math.pi))
    else:
        out[~pos] = math.inf if fit.dof < 1.0 else 0.0
    return float(out) if np.isscalar(thresholds) else out


def lcr_rician(fit: NcChiSqFit, doppler_hz: float, thresholds):
    """Crossing rate of the scaled noncentral chi-square approximation.

    Equals pdf(T) * sqrt(4*pi * f_D**2 * T / scale), evaluated in log space.
    A central fit (zero noncentrality) gives the gamma-process rate, the
    Rayleigh case.  ValueError unless doppler_hz is positive and finite.
    """
    if fit.dof <= 0.0 or fit.scale <= 0.0 or fit.noncentrality < 0.0:
        raise ValueError("invalid noncentral chi-square fit")
    if not 0.0 < doppler_hz < math.inf:  # also rejects NaN
        raise ValueError("doppler_hz must be positive and finite")
    return _rice_rate(fit, 4.0 * math.pi * doppler_hz**2 / fit.scale, thresholds)


def exceedance_duration(crossing_rate, survival_prob):
    """Mean time above a level: probability of being above divided by the
    rate of upward crossings.  NaN where the crossing rate is zero."""
    rate = np.asarray(crossing_rate, dtype=float)
    sf = np.asarray(survival_prob, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(rate > 0.0, sf / rate, math.nan)
    if np.isscalar(crossing_rate) and np.isscalar(survival_prob):
        return float(out)
    return out


def default_threshold_grid(noise_power: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Threshold sweep used by the studies: -15 dB to +8 dB relative to the
    noise power in 0.1 dB steps.  Returns (grid in dB, grid in linear)."""
    db = np.round(np.arange(-150, 81) * 0.1, 10)
    return db, noise_power * 10.0 ** (db / 10.0)


def rayleigh_curve(profile, doppler_hz: float, noise_power: float = 1.0,
                   thresholds=None) -> LcrCurve:
    """Analytic LCR/AED curve for Rayleigh fading: the K = 0 Rician curve."""
    return rician_curve(profile, 0.0, doppler_hz, noise_power, thresholds)


def rician_curve(profile, k_factor: float, doppler_hz: float, noise_power: float = 1.0,
                 thresholds=None) -> LcrCurve:
    """Analytic LCR/AED curve for Rician fading with linear K factor over a
    threshold grid; k_factor = 0 is Rayleigh fading."""
    from remcr import specfun

    fit = fit_ncx2(profile, k_factor)
    t = default_threshold_grid(noise_power)[1] if thresholds is None else np.asarray(thresholds, float)
    lcr = lcr_rician(fit, doppler_hz, t)
    sf = specfun.ncx2_sf(t, fit.dof, fit.noncentrality, fit.scale)
    return LcrCurve(thresholds=t, lcr=lcr, aed=exceedance_duration(lcr, sf))
