"""Scripted studies: degradation CDFs, grid and backoff tradeoffs, crossing
rates and exceedance durations of the admitted interference.

Every study is a pure function of its configuration: all randomness comes
from streams derived off cfg.master_seed, so rerunning a study with the same
inputs reproduces the same table, row for row.  Results are returned as
StudyTable records carrying the column names used by the CLI serializers plus
a summary dict of scalar findings.  Each study's `consts` keyword is the
float cr that channel.calibrate returns; None calibrates it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from remcr import lcr as lcrmod
from remcr.allocation import TooFewProfilesError, select_extreme_profiles
from remcr.channel import calibrate
from remcr.engine import evaluate, sweep, trial_batches
from remcr.fadingsim import EmpiricalCurve, count_crossings, merge_counted, generate_fading
from remcr.scenario import ConfigError, ScenarioConfig, derive_stream, interference_threshold

__all__ = [
    "StudyTable",
    "study_cdf",
    "study_grid_tradeoff",
    "study_backoff",
    "study_lcr",
    "study_aed",
    "DEFAULT_GRID_SIZES",
    "DEFAULT_DD_LIST",
    "DEFAULT_EXTRA_LIST",
    "DEFAULT_BACKOFF_DELTAS",
    "RICIAN_K_DB_DEFAULT",
]

DEFAULT_GRID_SIZES = (1.0, 25.0, 50.0, 100.0)
DEFAULT_DD_LIST = (50.0, 100.0, 200.0)
DEFAULT_EXTRA_LIST = (1.0, 2.0, 3.0)
DEFAULT_BACKOFF_DELTAS = (10.0, 25.0, 50.0)
DELTA_SEARCH_CAP = 400  # meters; upper end of the grid-size search range
RICIAN_K_DB_DEFAULT = 10.0

# Monte Carlo sampling of the fading oracle: 64 ticks per Doppler time and
# 400 Doppler times per run keep single-run discretization and counting noise
# small; runs are pooled.
MC_TICKS_PER_DOPPLER = 64
MC_DOPPLER_TIMES_PER_RUN = 400.0
DEFAULT_MC_RUNS = 10


@dataclass(frozen=True)
class StudyTable:
    """One study's tabular output plus scalar findings."""

    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary: dict


def _key(value: float) -> str:
    return "%.9g" % float(value)


def study_cdf(
    cfg: ScenarioConfig,
    grid_sizes=DEFAULT_GRID_SIZES,
    n_trials: int = 2000,
    consts: float | None = None,
) -> StudyTable:
    """Empirical degradation CDF per map grid size.

    One block of rows per grid size: (delta_m, degradation_db, cdf) on a
    0.05 dB threshold grid.  The summary carries the exceedance probabilities
    of the buffer and of the 3 dB level for each grid size.
    """
    cr = calibrate(cfg) if consts is None else consts
    budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
    per_delta = sweep(
        trial_batches(cfg, cr, n_trials), n_trials,
        [(delta, cfg.D_d) for delta in grid_sizes], lambda ev: ev.degradation(budget),
    )
    rows: list[tuple] = []
    p3: dict[str, float] = {}
    pbuf: dict[str, float] = {}
    for delta, samples in zip(grid_sizes, per_delta):
        top = max(float(np.max(samples)), cfg.buffer_dB)
        grid = np.round(np.arange(0.0, top + 0.1, 0.05), 10)
        sorted_s = np.sort(samples)
        above = len(samples) - np.searchsorted(sorted_s, grid, side="right")
        cdf = 1.0 - above / len(samples)
        for t, c in zip(grid, cdf):
            rows.append((float(delta), float(t), float(c)))
        p3[_key(delta)] = float(np.mean(samples > 3.0))
        pbuf[_key(delta)] = float(np.mean(samples > cfg.buffer_dB))
    return StudyTable(
        headers=("delta_m", "degradation_db", "cdf"),
        rows=tuple(rows),
        summary={
            "n_trials": n_trials,
            "p_exceed_3db": p3,
            "p_exceed_buffer": pbuf,
        },
    )


def study_grid_tradeoff(
    cfg: ScenarioConfig,
    dd_list=DEFAULT_DD_LIST,
    extra_buffer_list=DEFAULT_EXTRA_LIST,
    n_trials: int = 600,
    consts: float | None = None,
) -> StudyTable:
    """Largest tolerable grid size per decorrelation distance and extra buffer.

    For each (D_d, extra) pair, bisects the grid size at 1 m resolution for
    the largest delta whose exceedance probability of buffer+extra stays at
    or below 5 percent.  A result equal to DELTA_SEARCH_CAP means the constraint
    never bound inside the search range.

    The trials are drawn once, and each (D_d, delta) the bisections visit is
    evaluated once; the extra-buffer levels share those samples.
    """
    cr = calibrate(cfg) if consts is None else consts
    budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
    batches = list(trial_batches(cfg, cr, n_trials))
    samples: dict[tuple[float, int], np.ndarray] = {}

    def exceed(dd: float, delta: int, level_db: float) -> float:
        if (dd, delta) not in samples:
            samples[dd, delta] = sweep(
                batches, n_trials, [(delta, dd)], lambda ev: ev.degradation(budget)
            )[0]
        return float(np.mean(samples[dd, delta] > level_db))

    rows: list[tuple] = []
    for dd in dd_list:
        for extra in extra_buffer_list:
            level = cfg.buffer_dB + float(extra)
            if exceed(dd, DELTA_SEARCH_CAP, level) <= 0.05:
                rows.append((float(dd), float(extra), float(DELTA_SEARCH_CAP)))
                continue
            lo, hi = 0, DELTA_SEARCH_CAP  # lo satisfies the bound, hi does not
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if exceed(dd, mid, level) <= 0.05:
                    lo = mid
                else:
                    hi = mid
            rows.append((float(dd), float(extra), float(lo)))
    return StudyTable(
        headers=("dd_m", "extra_db", "delta_star_m"),
        rows=tuple(rows),
        summary={"n_trials": n_trials, "delta_cap_m": float(DELTA_SEARCH_CAP)},
    )


def study_backoff(
    cfg: ScenarioConfig,
    dd_list=DEFAULT_DD_LIST,
    delta_list=DEFAULT_BACKOFF_DELTAS,
    n_trials: int = 2000,
    consts: float | None = None,
) -> StudyTable:
    """Reduced admission buffer keeping the realized buffer 99 percent safe.

    For each (D_d, delta): the largest target buffer b on a 0.01 dB grid such
    that P(realized degradation > cfg.buffer_dB) <= 0.01 when the allocator
    admits against b.  Because greedy admission is a prefix rule, one pass of
    per-trial critical budgets answers every candidate b at once; scanning
    the grid reproduces the bisection limit exactly.  The trials are drawn
    once for all (D_d, delta) pairs.
    """
    cr = calibrate(cfg) if consts is None else consts
    grid_b = np.round(np.arange(0.0, cfg.buffer_dB + 1e-9, 0.01), 10)
    budgets = cfg.noise_power * (10.0 ** (grid_b / 10.0) - 1.0)
    true_cap = interference_threshold(cfg.buffer_dB, cfg.noise_power)
    pairs = [(float(dd), float(delta)) for dd in dd_list for delta in delta_list]
    per_pair = sweep(
        trial_batches(cfg, cr, n_trials), n_trials,
        [(delta, dd) for dd, delta in pairs], lambda ev: ev.critical_budgets(true_cap),
    )
    rows: list[tuple] = []
    for (dd, delta), crits in zip(pairs, per_pair):
        viol = np.searchsorted(np.sort(crits), budgets, side="right") / n_trials
        feasible = np.nonzero(viol <= 0.01)[0]
        rows.append((dd, delta, float(grid_b[feasible[-1]])))
    return StudyTable(
        headers=("dd_m", "delta_m", "buffer_star_db"),
        rows=tuple(rows),
        summary={"n_trials": n_trials, "violation_cap": 0.01},
    )


def _mc_crossing_curve(
    cfg: ScenarioConfig,
    profile,
    k_factor: float,
    thresholds_linear: np.ndarray,
    mc_runs: int,
    purpose: str,
) -> EmpiricalCurve:
    """Pooled empirical crossing statistics of one profile and fading type."""
    dt = 1.0 / (MC_TICKS_PER_DOPPLER * cfg.f_D)
    duration = MC_DOPPLER_TIMES_PER_RUN / cfg.f_D
    counted = []
    for run in range(mc_runs):
        stream = derive_stream(cfg.master_seed, run, purpose)
        series = generate_fading(stream, profile, k_factor, cfg.f_D, dt, duration)
        counted.append(count_crossings(series, thresholds_linear))
    return merge_counted(counted, duration)


def _lcr_aed_tables(
    cfg: ScenarioConfig,
    n_profile_trials: int,
    mc_runs: int,
    consts: float | None,
) -> tuple[StudyTable, StudyTable]:
    """Shared pipeline behind study_lcr and study_aed."""
    cr = calibrate(cfg) if consts is None else consts
    budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
    # a generator: the selection keeps only its two extremes, so the profile
    # stage holds one block's profiles at a time
    profiles = (
        prof
        for batch in trial_batches(cfg, cr, n_profile_trials)
        for prof in evaluate(batch, cfg.delta_grid, cfg.D_d).profiles(budget)
    )
    try:
        dominant, no_dominant = select_extreme_profiles(profiles)
    except TooFewProfilesError as exc:
        raise ConfigError(
            f"{exc}: the {n_profile_trials} profile trials admit a transmitter in "
            f"{exc.non_empty}; raise cr_density, activity_p or the trial count"
        ) from None
    k_db = cfg.K_dB if cfg.K_dB is not None else RICIAN_K_DB_DEFAULT
    k_factor = 10.0 ** (k_db / 10.0)
    thr_db, thr_lin = lcrmod.default_threshold_grid(cfg.noise_power)

    lcr_rows: list[tuple] = []
    aed_rows: list[tuple] = []
    summary: dict = {
        "n_profile_trials": n_profile_trials,
        "mc_runs": mc_runs,
        "mc_doppler_times": mc_runs * MC_DOPPLER_TIMES_PER_RUN,
        "k_db_rician": float(k_db),
        "profiles": {},
    }
    for pname, prof in (("dominant", dominant), ("no_dominant", no_dominant)):
        summary["profiles"][pname] = {
            "n_links": int(len(prof.weights)),
            "mean": float(np.sum(prof.weights)),
            "gamma_shape": 0.5 * lcrmod.fit_ncx2(prof, 0.0).dof,
            "max_weight_share": float(np.max(prof.weights) / np.sum(prof.weights)),
        }
    combos = [
        (fading, kf, pname, prof)
        for fading, kf in (("rayleigh", 0.0), ("rician", k_factor))
        for pname, prof in (("dominant", dominant), ("no_dominant", no_dominant))
    ]
    # Fit everything before spending time on Monte Carlo so a moment-fit
    # failure surfaces immediately.
    analytic_curves = {
        (fading, pname): lcrmod.rician_curve(prof, kf, cfg.f_D, cfg.noise_power, thr_lin)
        for fading, kf, pname, prof in combos
    }
    for fading, kf, pname, prof in combos:
        analytic = analytic_curves[(fading, pname)]
        mc = _mc_crossing_curve(cfg, prof, kf, thr_lin, mc_runs, f"mc-{fading}-{pname}")
        for j, t_db in enumerate(thr_db.tolist()):
            lcr_rows.append((fading, pname, t_db, float(analytic.lcr[j] / cfg.f_D),
                             float(mc.rates[j] / cfg.f_D)))
            aed_rows.append((fading, pname, t_db, float(analytic.aed[j]), float(mc.aeds[j])))
    lcr_headers = ("fading", "profile", "threshold_db", "lcr_analytic_norm", "lcr_mc_norm")
    aed_headers = ("fading", "profile", "threshold_db", "aed_analytic_s", "aed_mc_s")
    return (StudyTable(lcr_headers, tuple(lcr_rows), summary),
            StudyTable(aed_headers, tuple(aed_rows), summary))


def study_lcr(
    cfg: ScenarioConfig,
    n_profile_trials: int = 1000,
    mc_runs: int = DEFAULT_MC_RUNS,
    consts: float | None = None,
) -> StudyTable:
    """Analytic versus Monte Carlo crossing rates of the extreme profiles.

    Runs the allocation for n_profile_trials trials, keeps the admitted sets
    with the largest and the smallest aggregate variance, and sweeps the
    threshold grid for Rayleigh and Rician fading.  Rates are normalized by
    the Doppler frequency.
    """
    return _lcr_aed_tables(cfg, n_profile_trials, mc_runs, consts)[0]


def study_aed(
    cfg: ScenarioConfig,
    n_profile_trials: int = 1000,
    mc_runs: int = DEFAULT_MC_RUNS,
    consts: float | None = None,
) -> StudyTable:
    """Analytic versus Monte Carlo mean exceedance durations (seconds)."""
    return _lcr_aed_tables(cfg, n_profile_trials, mc_runs, consts)[1]
