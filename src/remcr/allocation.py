"""Admitted interference profiles: their realized degradation and the
fluctuation extremes of a batch.

Admission itself is the greedy prefix rule of remcr.engine.Evaluation.admitted.
The controller only sees estimated link powers, and admits transmitters in
ascending order of estimated interference while the estimated total stays
within the interference budget implied by the protection buffer (the rule
that maximizes the admitted count for the information it has).  The budget
does not involve the protected link's power (see interference_threshold), so
its estimate s_est is recorded in a profile but cannot change the decision.
The realized degradation is evaluated with the true link powers, which is
where map imperfection shows up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "InterferenceProfile",
    "FitFailureError",
    "TooFewProfilesError",
    "profile_weights",
    "power_sum",
    "degradation_db",
    "select_extreme_profiles",
]


class FitFailureError(ValueError):
    """The moment fit of a weight profile has no admissible solution, or a
    power sum of its weights is out of the float range the fit needs."""


class TooFewProfilesError(ValueError):
    """Fewer than two profiles admit a transmitter; non_empty counts those
    that do."""

    def __init__(self, non_empty: int):
        super().__init__("need at least two non-empty profiles")
        self.non_empty = non_empty


@dataclass(frozen=True)
class InterferenceProfile:
    """Admitted set of one trial.

    weights      true mean interference of each admitted transmitter
    est_weights  the estimates the admission decision was based on, in the
                 ascending order the greedy rule visited them
    s_true       true mean power of the protected link
    s_est        the map's estimate of the same
    """

    weights: np.ndarray
    est_weights: np.ndarray
    s_true: float = math.nan
    s_est: float = math.nan

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        e = np.asarray(self.est_weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "est_weights", e)
        if w.shape != e.shape:
            raise ValueError("weights and est_weights must have equal length")
        if (w <= 0.0).any() or (e <= 0.0).any():
            raise ValueError("interference weights must be positive")

    def __len__(self) -> int:
        return len(self.weights)


def profile_weights(profile) -> np.ndarray:
    """The weights of a profile (or of a plain weight sequence) as a float
    array, checked to be non-empty, 1-D, positive and finite."""
    w = np.asarray(getattr(profile, "weights", profile), dtype=float)
    if w.ndim != 1 or len(w) == 0 or not np.all(np.isfinite(w) & (w > 0.0)):
        raise ValueError("profile must hold at least one positive finite weight")
    return w


def power_sum(w: np.ndarray, k: int) -> float:
    """sum(w**k), checked to be usable as a moment: FitFailureError, with no
    floating-point warning, when it underflows to zero or overflows."""
    with np.errstate(under="ignore", over="ignore"):
        total = float(np.sum(w**k))
    if not (0.0 < total < math.inf):
        raise FitFailureError(
            f"a power sum of the weights is {total:g}, where the moment fit needs it "
            f"positive and finite; the weights range from {np.min(w):g} to {np.max(w):g}: "
            f"{np.array2string(w, precision=6)}"
        )
    return total


def degradation_db(profile: InterferenceProfile, noise_power: float) -> float:
    """Realized SNR degradation of the protected receiver in dB:
    10*log10((true interference sum + noise) / noise)."""
    if noise_power <= 0.0:
        raise ValueError("noise_power must be positive")
    total = float(np.sum(profile.weights))
    return 10.0 * math.log10((total + noise_power) / noise_power)


def select_extreme_profiles(
    profiles: Iterable[InterferenceProfile],
) -> tuple[InterferenceProfile, InterferenceProfile]:
    """Pick the fluctuation extremes from a batch of admitted profiles.

    Under unit-power fading the variance of the aggregate is proportional to
    the sum of squared weights, so the profile maximizing that sum has the
    most dominant single contribution and the one minimizing it is the most
    uniform.  Returns (dominant, no_dominant); ties keep first occurrence.

    profiles may be any iterable, a one-shot generator included: it is read
    once, in order, and only the two running extremes are kept.  Raises
    FitFailureError as soon as a sum of squares underflows to zero or
    overflows, and TooFewProfilesError when fewer than two profiles are
    non-empty.
    """
    non_empty = 0
    hi, lo = -math.inf, math.inf
    for p in profiles:
        if len(p) == 0:
            continue
        non_empty += 1
        sq = power_sum(p.weights, 2)  # finite, so the first profile sets both
        if sq > hi:
            dominant, hi = p, sq
        if sq < lo:
            no_dominant, lo = p, sq
    if non_empty < 2:
        raise TooFewProfilesError(non_empty)
    return dominant, no_dominant
