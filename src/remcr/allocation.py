"""Centralized admission of secondary transmitters under the map's estimates.

The controller only sees estimated link powers.  It admits transmitters in
ascending order of estimated interference while the estimated total stays
within the interference budget implied by the protection buffer (a greedy
rule that maximizes the admitted count for the information it has).  The
realized degradation is then evaluated with the true link powers, which is
where map imperfection shows up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from remcr.channel import LinkGain
from remcr.rem import RemEstimate
from remcr.scenario import interference_threshold

__all__ = [
    "InterferenceProfile",
    "allocate",
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


def _admit_prefix(est_sorted: np.ndarray, budget: float) -> int:
    """Number of leading entries of an ascending estimate array whose running
    sum stays within the budget."""
    if len(est_sorted) == 0:
        return 0
    cum = np.cumsum(est_sorted)
    return int(np.searchsorted(cum, budget, side="right"))


def allocate(
    candidates: Sequence[tuple[LinkGain, RemEstimate]],
    s_est: float,
    buffer_db: float,
    noise_power: float,
    s_true: float = math.nan,
) -> InterferenceProfile:
    """Admit a subset of candidate transmitters using estimated powers only.

    Candidates are (true link, map estimate) pairs.  The admission
    inequality, written with the estimated protected-link power s_est,
    cancels s_est and reduces to a budget on the estimated interference sum
    (see interference_threshold), so s_est is recorded in the profile but
    cannot influence the decision.  Ties in the estimates keep candidate
    order.  Returns the admitted profile, possibly empty of members but
    never violating the estimated budget.
    """
    budget = interference_threshold(buffer_db, noise_power)
    est = np.array([e.power_est for _, e in candidates], dtype=float)
    true = np.array([g.power() for g, _ in candidates], dtype=float)
    order = np.argsort(est, kind="stable")
    est_sorted = est[order]
    true_sorted = true[order]
    k = _admit_prefix(est_sorted, budget)
    profile = InterferenceProfile(
        weights=true_sorted[:k],
        est_weights=est_sorted[:k],
        s_true=s_true,
        s_est=s_est,
    )
    assert float(np.sum(profile.est_weights)) <= budget * (1.0 + 1e-12)
    return profile


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
