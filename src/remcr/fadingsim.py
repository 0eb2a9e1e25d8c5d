"""Monte Carlo fading synthesis and empirical crossing statistics.

The aggregate interference process is synthesized path by path with a
sum-of-sinusoids model: each quadrature component of a path is a sum of
M = 32 cosines with independent random arrival angles and phases, giving the
classical zeroth-order-Bessel autocorrelation per component.  A Rician path
adds a fixed line-of-sight phasor carrying K/(K+1) of the path power.  The
sinusoids are evaluated block-wise on the uniform time grid by angle addition,
as one small float32 matrix product of phasors per path.  The block-start
angles are reduced exactly in turns (whole cycles) before they are rounded to
float32; the in-block angles stay unreduced, because the precondition on dt
bounds them by about 31 rad.  Paths' squared envelopes are summed in float32
in groups of up to eight and each group is added into the float64 trace (see
generate_fading for the error this leaves, under 1e-5 of the weight sum).

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
_GROUP = 8  # paths summed in float32 before each add into the float64 trace


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
    identity rates * aeds = fractions holds by construction, up to the
    rounding of the two divisions (a few ulp).
    """

    thresholds: np.ndarray
    fractions: np.ndarray
    rates: np.ndarray
    aeds: np.ndarray


def _draw_profile(stream: np.random.Generator, n_paths: int, k_factor: float, doppler_hz: float):
    """Oscillator draws of n_paths paths from one uniform call.

    Row p holds path p's I arrival angles and phases, then its Q ones, then
    its line-of-sight phase if k_factor > 0: the order of one draw per path.
    Returns the angular frequencies and phases, each (n_paths, 2, M), and the
    line-of-sight phases, (n_paths, 1) or (n_paths, 0).
    """
    m = OSCILLATORS
    draws = stream.uniform(0.0, _TWO_PI, size=(n_paths, 4 * m + (k_factor > 0.0)))
    angles = draws[:, : 4 * m].reshape(n_paths, 2, 2, m)  # (path, I/Q, arrival/phase, M)
    return _TWO_PI * doppler_hz * np.cos(angles[:, :, 0]), angles[:, :, 1], draws[:, 4 * m :]


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

    All paths' oscillators come from one uniform draw (see _draw_profile).
    The grid t = k * dt is cut into blocks of _BLOCK samples, t = t0_j + tau_m.
    With x = w t0_j + phi and z = -w tau_m, angle addition gives
        cos(w t + phi) = cos x cos z + sin x sin z,
    so each quadrature component of a path is one float32
    (blocks x 2M) @ (2M x _BLOCK) product of the phasors [cos x, sin x] and
    [cos z, sin z]: M (blocks + _BLOCK) angles instead of M n.

    The head angles x grow with t, so they are reduced in turns:
    u = (w / 2 pi) t0_j + phi / 2 pi is formed in float64, u - rint(u) lies
    in [-1/2, 1/2], and 2 pi times it is rounded once to float32, where the
    phasors are taken.  The reduction is exact, so the error does not grow
    with t.  The tail angles z are not reduced: |z| <= 2 pi doppler_hz
    (_BLOCK - 1) dt <= 31.2 rad under the precondition, so rounding them to
    float32 costs at most 2^-24 * 31.2, about 1.9e-6 rad, whatever the
    duration.  The product, the line-of-sight phasor (one broadcast add) and
    the squared envelope are float32; the powers of up to _GROUP paths are
    summed in one float32 buffer, which is added into the float64 trace once
    per group.  A sample's error is then float32 rounding of the 2M terms,
    of their sum and of the group sum, so it grows with the envelope.
    Against a float64 sum of cosines over 25 587 samples, 1-, 3-, 11- and
    20-path profiles at seeds 60-69 measured at most 6.8e-6 of the weight
    sum at K = 0 and 9.4e-7 at K = 10 for dt * doppler_hz = 1/64, and
    7.6e-6 and 1.2e-6 at 1/32; the tests hold it within 1e-5.
    """
    weights = np.asarray(getattr(profile, "weights", profile), dtype=float)
    if weights.ndim != 1 or len(weights) == 0 or not np.all(np.isfinite(weights) & (weights > 0.0)):
        raise ValueError("profile must hold positive finite weights")
    if not all(map(math.isfinite, (k_factor, doppler_hz, dt, duration))):
        raise ValueError("k_factor, doppler_hz, dt and duration must be finite")
    if k_factor < 0.0:
        raise ValueError("k_factor must be non-negative")
    if doppler_hz <= 0.0 or dt <= 0.0:
        raise ValueError("doppler_hz and dt must be positive")
    if dt * doppler_hz > 1.0 / 32.0 + 1e-12:
        raise ValueError("dt too coarse: need dt * doppler_hz <= 1/32")
    if duration * doppler_hz < 200.0 - 1e-9:
        raise ValueError("duration too short: need duration * doppler_hz >= 200")
    m = OSCILLATORS
    omegas, phases, los_phases = _draw_profile(stream, len(weights), k_factor, doppler_hz)
    n = int(round(duration / dt))
    n_blocks = -(-n // _BLOCK)
    block_starts = np.arange(n_blocks) * (_BLOCK * dt)
    offsets = np.arange(_BLOCK) * -dt
    rates, cycles = omegas / _TWO_PI, phases / _TWO_PI  # turns per second, turns
    amps = np.sqrt(weights)
    scales = amps * (1.0 / math.sqrt(m * (1.0 + k_factor)))
    los = amps[:, None, None] * math.sqrt(k_factor / (1.0 + k_factor))
    los = (los * np.stack([np.cos(los_phases), np.sin(los_phases)], axis=1)).astype(np.float32)
    heads, tails = np.empty((2, 2 * m, n_blocks), np.float32), np.empty((2, 2 * m, _BLOCK), np.float32)
    turns, whole = np.empty((2, m, n_blocks)), np.empty((2, m, n_blocks))
    head_angles, tail_angles = np.empty((2, m, n_blocks), np.float32), np.empty((2, m, _BLOCK))
    field = np.empty((2, n_blocks, _BLOCK), np.float32)
    flat = field.reshape(2, -1)[:, :n]
    group = np.empty(n, np.float32)
    total = np.zeros(n)
    last = len(weights) - 1
    for p in range(len(weights)):
        np.multiply(rates[p, :, :, None], block_starts, out=turns)
        turns += cycles[p, :, :, None]
        np.rint(turns, out=whole)
        turns -= whole
        np.multiply(turns, _TWO_PI, out=head_angles, casting="same_kind")
        np.cos(head_angles, out=heads[:, :m])
        np.sin(head_angles, out=heads[:, m:])
        np.multiply(omegas[p, :, :, None], offsets, out=tail_angles)
        np.cos(tail_angles, out=tails[:, :m], dtype=np.float32, casting="same_kind")
        np.sin(tail_angles, out=tails[:, m:], dtype=np.float32, casting="same_kind")
        tails *= np.float32(scales[p])
        np.matmul(heads.transpose(0, 2, 1), tails, out=field)
        if k_factor > 0.0:
            flat += los[p]
        np.square(field, out=field)
        if p % _GROUP == 0:
            np.add(flat[0], flat[1], out=group)
        else:
            group += flat[0]
            group += flat[1]
        if p % _GROUP == _GROUP - 1 or p == last:
            total += group
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
    fraction the plain mean, so rate * aed = fraction holds up to rounding.
    All curves must share one threshold grid.
    """
    if not curves:
        raise ValueError("need at least one curve")
    t = curves[0].thresholds
    if not all(np.array_equal(c.thresholds, t) for c in curves[1:]):
        raise ValueError("curves must share one threshold grid")
    total_counts = np.sum([c.rates * duration_each for c in curves], axis=0)
    fractions = np.mean([c.fractions for c in curves], axis=0)
    total_time = duration_each * len(curves)
    rates = total_counts / total_time
    with np.errstate(divide="ignore", invalid="ignore"):
        aeds = np.where(total_counts > 0, fractions * total_time / total_counts, math.nan)
    return EmpiricalCurve(thresholds=t, fractions=fractions, rates=rates, aeds=aeds)

