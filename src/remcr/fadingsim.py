"""Monte Carlo fading synthesis and empirical crossing statistics.

The aggregate interference process is synthesized path by path with a
sum-of-sinusoids model: each quadrature component of a path is a sum of
M = 32 cosines with independent random arrival angles and phases, giving the
classical zeroth-order-Bessel autocorrelation per component.  A Rician path
adds a fixed line-of-sight phasor carrying K/(K+1) of the path power.  The
sinusoids are evaluated block-wise on the uniform time grid by angle addition,
as one small matrix product per path (see _add_path_power).

Crossing counting is discrete: an upcrossing of level T happens at tick k
when samples[k] < T <= samples[k+1].  No sub-sample interpolation is applied;
the sampling rate of 64 ticks per Doppler time keeps the discretization bias
below the tolerances used anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FadingSeries",
    "EmpiricalCurve",
    "generate_fading",
    "count_crossings",
    "merge_counted",
]

OSCILLATORS = 32  # per quadrature component per path
_BLOCK = 160  # samples per block of the time grid, about sqrt(n) for a default run
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FadingSeries:
    """Sampled aggregate interference trace."""

    samples: np.ndarray
    dt: float
    duration: float


@dataclass(frozen=True)
class EmpiricalCurve:
    """Counted crossing statistics over a threshold grid.

    rates are upcrossings per second, fractions the time share spent above
    each threshold, aeds their ratio (NaN where no crossing was seen).  The
    identity rates * aeds = fractions holds exactly by construction.
    """

    thresholds: np.ndarray
    fractions: np.ndarray
    rates: np.ndarray
    aeds: np.ndarray


@dataclass(frozen=True)
class _PathParams:
    """Frozen oscillator parameters of one path, reusable across time grids."""

    omega_i: np.ndarray
    phase_i: np.ndarray
    omega_q: np.ndarray
    phase_q: np.ndarray
    los_i: float
    los_q: float
    scatter_amp: float


def _draw_path_params(stream: np.random.Generator, k_factor: float, doppler_hz: float) -> _PathParams:
    def component():
        angles = stream.uniform(0.0, 2.0 * math.pi, size=OSCILLATORS)
        phases = stream.uniform(0.0, 2.0 * math.pi, size=OSCILLATORS)
        return 2.0 * math.pi * doppler_hz * np.cos(angles), phases

    omega_i, phase_i = component()
    omega_q, phase_q = component()
    if k_factor > 0.0:
        los_phase = stream.uniform(0.0, 2.0 * math.pi)
        los_amp = math.sqrt(k_factor / (1.0 + k_factor))
        los_i = los_amp * math.cos(los_phase)
        los_q = los_amp * math.sin(los_phase)
        scatter_amp = math.sqrt(1.0 / (1.0 + k_factor))
    else:
        los_i = los_q = 0.0
        scatter_amp = 1.0
    return _PathParams(omega_i, phase_i, omega_q, phase_q, los_i, los_q, scatter_amp)


def _add_path_power(
    total: np.ndarray, params: _PathParams, weight: float, dt: float, field: np.ndarray
) -> None:
    """Add weight times the squared envelope of one unit-power path to total.

    total holds the grid t = k * dt, k < n.  The grid is cut into blocks of
    _BLOCK samples, t = t0_j + tau_m with t0_j = j * _BLOCK * dt and
    tau_m = m * dt.  By angle addition, with -sin a = cos(a + pi/2) and
    sin b = cos(b - pi/2),
        cos(w t + phi) = cos(w t0_j + phi) cos(w tau_m)
                         + cos(w t0_j + phi + pi/2) cos(w tau_m - pi/2),
    so each quadrature component is one (blocks x 2M) @ (2M x _BLOCK) matrix
    product, built from 2M (blocks + _BLOCK) cosines instead of M n.  The
    angles are formed and reduced to [-pi, pi] in float64, the cosines run in
    float32 and the product in float64, which keeps each sample within about
    1e-6 of a float64 sum of cosines.  field is a float64 work array of shape
    (2, blocks, _BLOCK), reused across paths so that no path allocates a
    trace-length array.
    """
    n = len(total)
    n_blocks = field.shape[1]
    omega = np.tile(np.stack([params.omega_i, params.omega_q]), 2)
    phase = np.tile(np.stack([params.phase_i, params.phase_q]), 2)
    quarter = np.repeat([0.0, 0.5 * math.pi], OSCILLATORS)
    block_starts = np.arange(n_blocks)[:, None] * (_BLOCK * dt)
    offsets = np.arange(_BLOCK) * dt
    heads = _cos32(block_starts * omega[:, None, :] + (phase + quarter)[:, None, :])  # (2, blocks, 2M)
    tails = _cos32(omega[:, :, None] * offsets - quarter[:, None])  # (2, 2M, _BLOCK)
    amp = math.sqrt(weight)
    tails *= amp * params.scatter_amp / math.sqrt(OSCILLATORS)
    np.matmul(heads, tails, out=field)
    flat = field.reshape(2, -1)[:, :n]
    flat[0] += amp * params.los_i
    flat[1] += amp * params.los_q
    np.square(flat, out=flat)
    total += flat[0]
    total += flat[1]


def _cos32(angles: np.ndarray) -> np.ndarray:
    """Cosines of float64 angles, reduced in place to [-pi, pi] and taken in float32."""
    angles -= _TWO_PI * np.rint(angles / _TWO_PI)
    return np.cos(angles.astype(np.float32)).astype(float)


def generate_fading(
    stream: np.random.Generator,
    profile,
    k_factor: float,
    doppler_hz: float,
    dt: float,
    duration: float,
) -> FadingSeries:
    """Synthesize the aggregate interference of a weight profile.

    Requires dt * doppler_hz <= 1/32 and duration * doppler_hz >= 200 so the
    trace resolves individual fades and holds enough of them to be useful.
    Each path gets independent oscillator draws; per path the mean of the
    squared envelope is 1, so the aggregate mean is the weight sum.
    """
    weights = np.asarray(getattr(profile, "weights", profile), dtype=float)
    if weights.ndim != 1 or len(weights) == 0 or np.any(weights <= 0.0):
        raise ValueError("profile must hold positive weights")
    if k_factor < 0.0:
        raise ValueError("k_factor must be non-negative")
    if doppler_hz <= 0.0 or dt <= 0.0:
        raise ValueError("doppler_hz and dt must be positive")
    if dt * doppler_hz > 1.0 / 32.0 + 1e-12:
        raise ValueError("dt too coarse: need dt * doppler_hz <= 1/32")
    if duration * doppler_hz < 200.0 - 1e-9:
        raise ValueError("duration too short: need duration * doppler_hz >= 200")
    n = int(round(duration / dt))
    total = np.zeros(n)
    field = np.empty((2, -(-n // _BLOCK), _BLOCK))
    for w in weights:
        params = _draw_path_params(stream, k_factor, doppler_hz)
        _add_path_power(total, params, w, dt, field)
    return FadingSeries(samples=total, dt=dt, duration=n * dt)


def count_crossings(series: FadingSeries, thresholds) -> EmpiricalCurve:
    """Count discrete upcrossings and time-above fractions per threshold.

    Implemented with sorted rising sample pairs: the number of pairs with
    a < T <= b equals (number of a below T) - (number of b below T), so one
    sort serves the whole threshold grid.
    """
    t = np.asarray(thresholds, dtype=float)
    s = series.samples
    if len(s) < 2:
        raise ValueError("need at least two samples")
    a, b = s[:-1], s[1:]
    rising = a < b
    lo = np.sort(a[rising])
    hi = np.sort(b[rising])
    counts = np.searchsorted(lo, t, side="left") - np.searchsorted(hi, t, side="left")
    sorted_s = np.sort(s)
    above = len(s) - np.searchsorted(sorted_s, t, side="right")
    fractions = above / len(s)
    rates = counts / series.duration
    with np.errstate(divide="ignore", invalid="ignore"):
        aeds = np.where(counts > 0, fractions * series.duration / counts, math.nan)
    return EmpiricalCurve(thresholds=t, fractions=fractions, rates=rates, aeds=aeds)


def merge_counted(curves: list[EmpiricalCurve], duration_each: float) -> EmpiricalCurve:
    """Pool crossing statistics of independent runs of equal duration.

    The pooled rate is total crossings over total time and the pooled
    fraction the plain mean, so rate * aed = fraction stays exact.
    """
    if not curves:
        raise ValueError("need at least one curve")
    t = curves[0].thresholds
    total_counts = np.sum([c.rates * duration_each for c in curves], axis=0)
    fractions = np.mean([c.fractions for c in curves], axis=0)
    total_time = duration_each * len(curves)
    rates = total_counts / total_time
    with np.errstate(divide="ignore", invalid="ignore"):
        aeds = np.where(total_counts > 0, fractions * total_time / total_counts, math.nan)
    return EmpiricalCurve(thresholds=t, fractions=fractions, rates=rates, aeds=aeds)

