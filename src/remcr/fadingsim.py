"""Monte Carlo fading synthesis and empirical crossing statistics.

The aggregate interference process is synthesized path by path with a
sum-of-sinusoids model: each quadrature component of a path is a sum of
M = 32 cosines with independent random arrival angles and phases, giving the
classical zeroth-order-Bessel autocorrelation per component.  A Rician path
adds a fixed line-of-sight phasor carrying K/(K+1) of the path power.

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
_TIME_CHUNK = 1 << 17


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


def _path_power(params: _PathParams, t: np.ndarray) -> np.ndarray:
    """Squared envelope of one unit-power path on the time grid t.

    The big cosine evaluations run in float32 (the arguments are a few
    thousand radians at most, well within float32 resolution for this use);
    sums are accumulated in float64.
    """
    norm = 1.0 / math.sqrt(OSCILLATORS)
    out = np.empty_like(t)
    for lo in range(0, len(t), _TIME_CHUNK):
        tc = t[lo : lo + _TIME_CHUNK].astype(np.float32)
        arg_i = np.outer(params.omega_i.astype(np.float32), tc)
        arg_i += params.phase_i.astype(np.float32)[:, None]
        comp_i = np.cos(arg_i).sum(axis=0, dtype=np.float64) * norm
        arg_q = np.outer(params.omega_q.astype(np.float32), tc)
        arg_q += params.phase_q.astype(np.float32)[:, None]
        comp_q = np.cos(arg_q).sum(axis=0, dtype=np.float64) * norm
        re = params.los_i + params.scatter_amp * comp_i
        im = params.los_q + params.scatter_amp * comp_q
        out[lo : lo + _TIME_CHUNK] = re * re + im * im
    return out


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
    t = np.arange(n) * dt
    total = np.zeros(n)
    for w in weights:
        params = _draw_path_params(stream, k_factor, doppler_hz)
        total += w * _path_power(params, t)
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

