"""Monte Carlo fading synthesis and empirical crossing statistics.

The aggregate interference process is synthesized path by path as filtered
white Gaussian noise (Smith 1975; Young & Beaulieu 2000): complex Gaussian
draws on the Doppler bins are shaped by the discretized Jakes spectrum and
inverse-FFT'd, which gives each path a complex Gaussian envelope with the
classical zeroth-order-Bessel autocorrelation.  A Rician path adds a fixed
line-of-sight phasor carrying K/(K+1) of the path power.

Crossing counting is discrete: an upcrossing of level T happens at tick k
when samples[k] < T <= samples[k+1].  No sub-sample interpolation is applied;
the sampling rate of 64 ticks per Doppler time keeps the discretization bias
below the tolerances used anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from remcr.allocation import profile_weights

__all__ = [
    "FadingSeries",
    "EmpiricalCurve",
    "generate_fading",
    "count_crossings",
    "merge_counted",
]

_BATCH = 8  # paths transformed together; bounds the memory of a batch


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
    Each path gets independent draws; per path the mean of the squared
    envelope is 1, so the aggregate mean is the weight sum.

    Over the n = round(duration/dt) samples the Doppler band spans
    band = doppler_hz * n * dt frequency bins, of which bins 1..k_m,
    k_m = floor(band), and their negatives carry the Young-Beaulieu filter
    F[k] = 1/sqrt(2 sqrt(1 - (k/band)**2)), with the edge bin k_m holding the
    integral of the spectrum's singularity.  The draws are, in this order:
    for a Rician profile (k_factor > 0) one line-of-sight phase per path,
    stream.uniform(0, 2 pi, P); then per batch of up to _BATCH paths,
    stream.standard_normal((b, 2, 2 k_m)), the real and imaginary parts on
    bins 1..k_m followed by bins -k_m..-1.  Each path's envelope is
    inverse-FFT'd at the short length n_c, the smallest power of two above
    4 k_m.  The weighted power sum has no frequency above 2 k_m < n_c / 2
    bins, so its spectrum, zero-padded to n samples, gives the full trace
    exactly.
    """
    weights = profile_weights(profile)
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
    n = int(round(duration / dt))
    band = doppler_hz * n * dt
    k_m = int(band)
    n_c = 1 << (4 * k_m).bit_length()
    k = np.arange(1, k_m)
    edge = math.sqrt(k_m / 2.0 * (math.pi / 2.0 - math.atan((k_m - 1) / math.sqrt(2.0 * k_m - 1))))
    half = np.append(1.0 / np.sqrt(2.0 * np.sqrt(1.0 - (k / band) ** 2)), edge)
    half *= n_c / math.sqrt(4.0 * (1.0 + k_factor) * np.sum(half**2))
    filt = np.concatenate([half, half[::-1]])
    bins = np.r_[1 : k_m + 1, n_c - k_m : n_c]
    los = np.zeros(len(weights))
    if k_factor > 0.0:
        phases = stream.uniform(0.0, 2.0 * math.pi, len(weights))
        los = math.sqrt(k_factor / (1.0 + k_factor)) * np.exp(1j * phases)
    coarse = np.zeros(n_c)
    for lo in range(0, len(weights), _BATCH):
        w = weights[lo : lo + _BATCH]
        draws = stream.standard_normal((len(w), 2, 2 * k_m))
        spec = np.zeros((len(w), n_c), complex)
        spec[:, bins] = filt * (draws[:, 0] + 1j * draws[:, 1])
        field = np.fft.ifft(spec, axis=1) + los[lo : lo + _BATCH, None]
        coarse += w @ (field.real**2 + field.imag**2)
    full = np.zeros(n // 2 + 1, complex)
    full[: 2 * k_m + 1] = np.fft.rfft(coarse)[: 2 * k_m + 1]
    samples = np.fft.irfft(full, n=n) * (n / n_c)
    return FadingSeries(samples=samples, dt=dt, duration=n * dt)


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

