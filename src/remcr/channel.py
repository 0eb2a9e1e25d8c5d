"""Lognormal-shadowed path-gain model and transmit-power calibration.

Mean received power over a link of length r is  C * exp(X) * r**(-gamma_pl),
where C is a transmit-power constant and X = ln(10)/10 * N(0, sigma_dB**2) is
the shadowing term in the natural-log domain.  calibrate returns the one
constant of the model, the float cr of the secondary transmitters: a
secondary link then meets a 5 dB SNR target at the 95th percentile of its
distribution, which fixes the interference scale of every study.  The
licensed link needs no constant: the interference budget does not involve
its power (see scenario.interference_threshold).  How the map's shadowing
correlates with this model's is remcr.rem's.
"""

from __future__ import annotations

import math

import numpy as np

from remcr.scenario import DB_TO_NAT, ConfigError, ScenarioConfig, derive_stream

__all__ = [
    "received_power",
    "sample_shadows",
    "calibrate",
]

# 5 dB SNR target held with 95% probability at calibration time.
SNR_TARGET_LINEAR = 10.0**0.5
SNR_TARGET_QUANTILE = 0.05

_CAL_CR_TAG = "calibrate-cr"
_CHUNK = 2**14  # shadowing values drawn at a time; bounds calibration's scratch


def received_power(power_const, shadow_log, distance_m, pathloss_exp: float):
    """Mean received power power_const * exp(shadow_log) * distance**(-exp).

    Array in, array out: power_const, shadow_log and distance_m broadcast
    against each other.  A power beyond the float range is inf, and one
    whose shadowing factor overflows while its path gain underflows to 0 is
    NaN, both with no floating-point warning; the callers decide what an
    infinite or undefined power means."""
    d = np.asarray(distance_m, dtype=float)
    if (d <= 0.0).any():
        raise ValueError("received_power requires positive distance")
    # one output buffer and the path gains: the products of
    # power_const * exp(shadow_log) * d**(-exp), in that order, in place
    out = np.empty(np.broadcast(power_const, shadow_log, d).shape)
    with np.errstate(over="ignore", invalid="ignore"):
        np.exp(shadow_log, out=out)
        np.multiply(power_const, out, out=out)
        out *= d ** (-pathloss_exp)
    return out if out.ndim else out[()]


def sample_shadows(stream: np.random.Generator, n: int, sigma_db: float) -> np.ndarray:
    """n shadowing values in the natural-log domain.

    exp of each value is lognormal with a dB-domain standard deviation of
    sigma_db; draws are independent across links."""
    if sigma_db <= 0.0:
        raise ValueError("sigma_db must be positive")
    out = stream.normal(0.0, sigma_db, size=n)
    out *= DB_TO_NAT
    return out


def _link_quantile(cfg: ScenarioConfig, n_samples: int) -> float:
    """5th percentile of exp(X) * r**(-gamma_pl) over shadowing and a
    secondary link distance drawn like the annulus placements (r**2 uniform
    on [R0**2, Rc**2]).

    The working set is one n_samples array: it takes the r**2 draws, then
    their square roots in place, then the gains, _CHUNK at a time.  The
    shadowing is drawn in those chunks after all the radii; Generator.normal
    fills its output in stream order, so the chunks hold the values of one
    n_samples draw and the gains are those of the one-shot computation, bit
    for bit.

    A ConfigError if that percentile is not finite and positive: the
    transmit power that meets the SNR target would then be infinite or
    undefined (sigma_dB = 1e5 underflows the percentile to 0; an undefined
    gain, inf * 0, makes it NaN)."""
    stream = derive_stream(cfg.master_seed, 0, _CAL_CR_TAG)
    gains = stream.uniform(cfg.R0 * cfg.R0, cfg.Rc * cfg.Rc, size=n_samples)
    np.sqrt(gains, out=gains)
    for lo in range(0, n_samples, _CHUNK):
        part = gains[lo : lo + _CHUNK]
        shadows = sample_shadows(stream, len(part), cfg.sigma_dB)
        part[:] = received_power(1.0, shadows, part, cfg.gamma_pl)
    q = _percentile(gains, SNR_TARGET_QUANTILE)
    if not (math.isfinite(q) and q > 0.0):
        raise ConfigError(
            f"cannot calibrate the secondary link: its 5th-percentile gain is {q:g} "
            f"(sigma_dB = {cfg.sigma_dB:g}, gamma_pl = {cfg.gamma_pl:g})"
        )
    return q


def _percentile(values: np.ndarray, q: float) -> float:
    """np.quantile(values, q) bit for bit (numpy's default, the type-7
    linear interpolation), found by partitioning values in place instead of
    a copy; len(values) >= 2 and 0 <= q < 1.

    With pos = (n - 1) * q, lo = floor(pos) and t = pos - lo, the order
    statistics a = values[lo] and b = values[lo + 1] give
    b - (b - a) * (1 - t) if t >= 0.5, else a + (b - a) * t, as numpy's own
    interpolation does.  NaN sorts last, and any NaN gives NaN."""
    n = len(values)
    pos = (n - 1) * q
    lo = math.floor(pos)
    t = pos - lo
    values.partition([lo, lo + 1, n - 1])
    if math.isnan(values[-1]):
        return math.nan
    a, b = float(values[lo]), float(values[lo + 1])
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def calibrate(cfg: ScenarioConfig, n_samples: int = 200_000) -> float:
    """The secondary transmit-power constant cr of a scenario, calibrated
    from n_samples >= 1e4 draws of a secondary link.

    The constant is chosen so a secondary link whose distance spans the
    secondary cell (annulus [R0, Rc]) has an SNR of at least 5 dB with
    probability 0.95 over placement and shadowing.  The 5th percentile of
    the link gain is linear in the constant, so no search is needed:
        cr = SNR_TARGET_LINEAR * noise_power / quantile(secondary link);
    with shadowing switched off it approaches
    SNR_TARGET_LINEAR * noise_power * r95**gamma_pl, r95 being the radius
    that holds 95 % of the annulus area (see _link_quantile for the draw).

    A ConfigError if the constant is not finite and positive
    (noise_power = 1e300 overflows it).
    """
    if n_samples < 10_000:
        raise ValueError("calibration needs at least 1e4 samples")
    cr = SNR_TARGET_LINEAR * cfg.noise_power / _link_quantile(cfg, n_samples)
    if not 0.0 < cr < math.inf:
        raise ConfigError(
            f"cannot calibrate the secondary link: cr = {cr:g} must be finite and "
            f"positive (noise_power = {cfg.noise_power:g})"
        )
    return cr
