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
from typing import Sequence

import numpy as np

__all__ = [
    "InterferenceProfile",
    "profile_weights",
    "degradation_db",
    "select_extreme_profiles",
]


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


def degradation_db(profile: InterferenceProfile, noise_power: float) -> float:
    """Realized SNR degradation of the protected receiver in dB:
    10*log10((true interference sum + noise) / noise)."""
    if noise_power <= 0.0:
        raise ValueError("noise_power must be positive")
    total = float(np.sum(profile.weights))
    return 10.0 * math.log10((total + noise_power) / noise_power)


def select_extreme_profiles(
    profiles: Sequence[InterferenceProfile],
) -> tuple[InterferenceProfile, InterferenceProfile]:
    """Pick the fluctuation extremes from a batch of admitted profiles.

    Under unit-power fading the variance of the aggregate is proportional to
    the sum of squared weights, so the profile maximizing that sum has the
    most dominant single contribution and the one minimizing it is the most
    uniform.  Returns (dominant, no_dominant); ties keep first occurrence.
    Raises ValueError when fewer than two non-empty profiles are supplied.
    """
    non_empty = [p for p in profiles if len(p) > 0]
    if len(non_empty) < 2:
        raise ValueError("need at least two non-empty profiles")
    sq = [float(np.sum(p.weights**2)) for p in non_empty]
    return non_empty[int(np.argmax(sq))], non_empty[int(np.argmin(sq))]
