"""Admission pipeline shared by every study: draw each trial once, then
evaluate it at any number of sweep points.

No random draw of a trial depends on the sweep variables (grid size delta,
decorrelation distance D_d, buffer): the transmitter positions, the true
shadowing and the fresh map draws all come from per-(trial, purpose)
streams.  draw_trials takes those draws for a block of trials into padded
arrays; evaluate turns a block into map estimates and the greedy admission
order at one (delta, D_d), vectorized across trials.  Admission for any
budget, realized degradation and critical budgets are reductions over one
Evaluation; trial_profile and degradation_samples are views onto it.  The
map itself (grid, receiver and estimate) is remcr.rem's.

Studies walk trials in blocks of TRIAL_BLOCK, which bounds the working
memory of an evaluation whatever the trial count or link density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from remcr.allocation import InterferenceProfile
from remcr.channel import calibrate, received_power, sample_shadows
from remcr.geometry import sample_placement
from remcr.rem import estimate_links
from remcr.scenario import ConfigError, ScenarioConfig, derive_stream, interference_threshold

__all__ = [
    "TRIAL_BLOCK",
    "MAX_TRIALS",
    "TrialBatch",
    "Evaluation",
    "draw_trials",
    "trial_batches",
    "evaluate",
    "sweep",
    "check_trial_count",
    "trial_profile",
    "degradation_samples",
]

_PLACE_TAG = "place"
_SHADOW_TAG = "shadow"
_REM_TAG = "rem"

# Trials per block.  At 3 142 links a trial, ten trials keep an evaluation's
# temporaries to a few MB.
TRIAL_BLOCK = 10

# Largest trial count of a study that keeps a float64 result a trial for each
# sweep point (sweep) or visited grid size (study_grid_tradeoff): a budget of
# 8 MiB an array allows 2**23 // 8 trials (the defaults are 600 to 2 000).
MAX_TRIALS = 2**20


@dataclass(frozen=True)
class TrialBatch:
    """Raw draws of a block of trials; row i is trial trials[i].

    The link arrays have one column per secondary transmitter: the active
    ones come first, and zero padding fills the row up to the block's
    largest count.  active marks the columns that hold a transmitter,
    (n_trials, max_active).  The licensed transmitter has no
    column: the interference budget does not involve its link.

    cr           the calibrated secondary transmit-power constant
    xy           positions, (n_trials, max_active, 2)
    shadows      true shadowing in the natural-log domain
    fresh        the fresh shadowing draws the map estimate mixes in
    true_powers  true mean received power at the protected receiver
    """

    cfg: ScenarioConfig
    cr: float
    trials: np.ndarray
    active: np.ndarray
    xy: np.ndarray
    shadows: np.ndarray
    fresh: np.ndarray
    true_powers: np.ndarray

    def __len__(self) -> int:
        return len(self.trials)


def draw_trials(cfg: ScenarioConfig, cr: float, trials) -> TrialBatch:
    """Draw the given trials: placement, true shadowing and fresh map draws.

    Each trial reads its "place", "shadow" and "rem" streams in the same
    order as one-trial-at-a-time drawing, so a trial's draws do not depend
    on the block it is drawn in; cr is the constant calibrate returns.  A
    trial's draws are copied into its row of the zero-padded block arrays
    and then dropped, so the block holds one copy of them.  A ConfigError if
    some trial's true link powers and the noise power do not sum to a finite
    value: a link power beyond the float range, or a sum that overflows,
    leaves its degradation undefined.
    """
    trials = np.array(trials, dtype=np.int64).reshape(-1)
    if len(trials) == 0:
        raise ValueError("need at least one trial")
    draws = []
    for i in trials.tolist():
        place_stream = derive_stream(cfg.master_seed, i, _PLACE_TAG)
        shadow_stream = derive_stream(cfg.master_seed, i, _SHADOW_TAG)
        rem_stream = derive_stream(cfg.master_seed, i, _REM_TAG)
        xy = sample_placement(place_stream, cfg)
        draws.append((xy, sample_shadows(shadow_stream, len(xy), cfg.sigma_dB),
                      sample_shadows(rem_stream, len(xy), cfg.sigma_dB)))

    counts = np.array([len(xy) for xy, _, _ in draws], dtype=np.int64)
    active = np.arange(counts.max(initial=0)) < counts[:, None]
    xy = np.zeros(active.shape + (2,))
    shadows = np.zeros(active.shape)
    fresh = np.zeros(active.shape)
    for row, n in enumerate(counts.tolist()):
        xy[row, :n], shadows[row, :n], fresh[row, :n] = draws[row]
        draws[row] = None
    # np.hypot, unlike the map distances: these bits reach the profile
    # weights; padding takes distance 1 and then power 0
    distances = np.hypot(xy[..., 0], xy[..., 1])
    np.copyto(distances, 1.0, where=~active)
    true_powers = received_power(cr, shadows, distances, cfg.gamma_pl)
    np.copyto(true_powers, 0.0, where=~active)
    with np.errstate(over="ignore"):
        totals = true_powers.sum(axis=1) + cfg.noise_power
    if not np.isfinite(totals).all():
        row = int(np.argmin(np.isfinite(totals)))
        raise ConfigError(
            f"trial {trials[row]}: its true link powers and the noise power sum to "
            f"{totals[row]:g} (noise_power = {cfg.noise_power:g}, cr = {cr:g}); "
            f"the degradation needs a finite sum"
        )
    return TrialBatch(
        cfg=cfg,
        cr=cr,
        trials=trials,
        active=active,
        xy=xy,
        shadows=shadows,
        fresh=fresh,
        true_powers=true_powers,
    )


def trial_batches(cfg: ScenarioConfig, cr: float, n_trials: int):
    """Draws of trials 0 .. n_trials-1, one TrialBatch per TRIAL_BLOCK trials.

    A generator: a block is drawn only when the previous one is done with.
    """
    for lo in range(0, n_trials, TRIAL_BLOCK):
        yield draw_trials(cfg, cr, range(lo, min(lo + TRIAL_BLOCK, n_trials)))


@dataclass(frozen=True)
class Evaluation:
    """A TrialBatch seen through the map at one (delta, D_d).

    est_sorted / true_sorted list each trial's secondary links in ascending
    order of estimated power (ties keep link order); padding sorts last with
    an infinite estimate and zero true power, so it is never admitted and
    adds nothing.
    """

    batch: TrialBatch
    est_sorted: np.ndarray
    true_sorted: np.ndarray

    def admitted(self, budget: float) -> np.ndarray:
        """Per trial, the length of the greedy prefix whose estimated sum
        stays within budget."""
        return (np.cumsum(self.est_sorted, axis=1) <= budget).sum(axis=1)

    def degradation(self, budget: float) -> np.ndarray:
        """Realized degradation (dB) per trial when admitting against budget."""
        noise = self.batch.cfg.noise_power
        out = np.empty(len(self.batch))
        for row, k in enumerate(self.admitted(budget).tolist()):
            # a per-row sum of the prefix (np.add.reduce: np.sum's pairwise
            # sum without its Python wrapper) and a scalar log keep the
            # rounding of one-trial evaluation
            total = float(np.add.reduce(self.true_sorted[row, :k]))
            out[row] = 10.0 * math.log10((total + noise) / noise)
        return out

    def critical_budgets(self, true_cap: float) -> np.ndarray:
        """Per trial, the estimated budget at which the realized interference
        first exceeds true_cap; +inf when it never does.  The estimated
        running sum only grows, so that is its smallest value where the true
        running sum is over the cap.

        For budgets below a trial's critical value the realized interference
        stays within true_cap; at or above it, it exceeds.  Backoff searches
        reduce to a quantile of these values because greedy admission is a
        prefix rule: shrinking the budget can only drop the last-admitted
        candidates."""
        cum = np.cumsum(self.true_sorted, axis=1)
        over = cum > true_cap
        # the same buffer takes the estimated running sums, +inf where the
        # true one is within the cap
        np.cumsum(self.est_sorted, axis=1, out=cum)
        np.copyto(cum, math.inf, where=~over)
        return cum.min(axis=1, initial=math.inf)

    def profiles(self, budget: float) -> list[InterferenceProfile]:
        """Admitted profile of every trial for the budget: the true and
        estimated powers of its admitted secondary links, less those whose
        true power underflowed to 0, which add nothing to the aggregate.
        The profiles own their weights, so keeping them does not keep the
        block's arrays."""
        rows = [
            (self.true_sorted[row, :k], self.est_sorted[row, :k])
            for row, k in enumerate(self.admitted(budget).tolist())
        ]
        return [InterferenceProfile(weights=w[w > 0.0], est_weights=e[w > 0.0]) for w, e in rows]


def evaluate(batch: TrialBatch, delta: float, D_d: float) -> Evaluation:
    """Map estimates and admission order of a batch at grid size delta and
    decorrelation distance D_d; pure and vectorized across trials."""
    return next(_evaluations(batch, delta, [D_d]))


def _evaluations(batch: TrialBatch, delta: float, dds):
    """evaluate(batch, delta, D_d) for each D_d in dds, one at a time.

    The map geometry of a grid size does not depend on D_d, so one
    estimate_links call computes it once for all of dds.  The block is
    sorted with numpy's default (SIMD) argsort, which need not keep the
    link order of equal estimates; only when some sorted row holds two equal
    finite estimates is the block sorted again with the stable sort.
    Padding needs no such care: its estimates are set to +inf in place, and
    each padding column pairs that with zero true power, so their order
    changes nothing.
    """
    cfg = batch.cfg
    est = estimate_links(
        batch.fresh, batch.cr, cfg.gamma_pl, batch.shadows, batch.xy, delta,
        np.array(dds, dtype=float)[:, None, None], cfg.R0,
    )
    np.copyto(est, math.inf, where=~batch.active)
    for est_dd in est:
        yield _admission_order(batch, est_dd)


def _admission_order(batch: TrialBatch, est: np.ndarray) -> Evaluation:
    """The Evaluation of a batch whose unsorted estimates, +inf on padding,
    are est.  A function of its own, so that none of its temporaries
    outlives it while the Evaluation is reduced."""
    rows = np.arange(len(batch))[:, None]
    order = np.argsort(est, axis=1)
    est_sorted = est[rows, order]
    tie = est_sorted[:, 1:] == est_sorted[:, :-1]
    if tie.any() and np.isfinite(est_sorted[:, 1:][tie]).any():
        order = np.argsort(est, axis=1, kind="stable")
        est_sorted = est[rows, order]
    return Evaluation(
        batch=batch,
        est_sorted=est_sorted,
        true_sorted=batch.true_powers[rows, order],
    )


def sweep(batches, n_trials: int, points, reduce) -> list[np.ndarray]:
    """reduce(evaluate(batch, delta, D_d)) over all trials, per point.

    batches cover trials 0 .. n_trials-1 (trial_batches, or a list of them
    to sweep again later); points are (delta, D_d) pairs.  Each batch is
    evaluated at every point before the next one is taken, so a trial is
    drawn once however many points there are, and the points that share a
    grid size share its map geometry.  Returns one (n_trials,) array per
    point; a ConfigError before any is made if n_trials > MAX_TRIALS.
    """
    check_trial_count(n_trials)
    out = [np.empty(n_trials) for _ in points]
    by_delta: dict[float, tuple[list, list]] = {}
    for values, (delta, dd) in zip(out, points):
        outs, dds = by_delta.setdefault(float(delta), ([], []))
        outs.append(values)
        dds.append(float(dd))
    for batch in batches:
        for delta, (outs, dds) in by_delta.items():
            # evaluations first: zip then runs the generator to its end,
            # which frees its arrays before the next batch is drawn
            for result, values in zip(map(reduce, _evaluations(batch, delta, dds)), outs):
                values[batch.trials] = result
    return out


def check_trial_count(n_trials: int) -> None:
    """A ConfigError if n_trials exceeds MAX_TRIALS."""
    if n_trials > MAX_TRIALS:
        raise ConfigError(f"{n_trials} trials exceed the {MAX_TRIALS} a study keeps results of")


def trial_profile(cfg: ScenarioConfig, cr: float, trial_index: int) -> InterferenceProfile:
    """Admitted profile of one trial for the configured buffer; a view
    kept for benchmark/workloads.py, which is its one caller."""
    ev = evaluate(draw_trials(cfg, cr, [trial_index]), cfg.delta_grid, cfg.D_d)
    return ev.profiles(interference_threshold(cfg.buffer_dB, cfg.noise_power))[0]


def degradation_samples(
    cfg: ScenarioConfig, n_trials: int, cr: float | None = None
) -> np.ndarray:
    """Realized degradation (dB) over independent trials, cr calibrated when
    not given; a view kept for benchmark/workloads.py, which is its one caller."""
    cr = calibrate(cfg) if cr is None else cr
    budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
    return sweep(
        trial_batches(cfg, cr, n_trials), n_trials, [(cfg.delta_grid, cfg.D_d)],
        lambda ev: ev.degradation(budget),
    )[0]
