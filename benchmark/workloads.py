"""The benchmark's workloads: inputs, one pass of work, and output checks.

Each workload calls remcr's public study and curve functions.  A pass is a
fixed, seed-determined amount of work made of operations (one study call or
one analytic curve).  An operation fails when it raises anything but the
documented `remcr.lcr.FitFailureError`, or when its output fails `check`.

Reference outputs live in `reference/<workload>.json`.  They were made at the
default `ScenarioConfig.master_seed` and the sizes below; at any other seed or
size only the invariants are checked.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import numpy as np

from remcr import allocation, channel, engine, experiments, lcr
from remcr.scenario import ScenarioConfig

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = ScenarioConfig().master_seed
# Values at or below this magnitude count as underflowed in the analytic
# curves; there only the invariants are checked.
UNDERFLOW = 1e-280
CURVE_RTOL = 1e-9
# Pooled Monte Carlo crossing counts may differ from the reference by this
# many Poisson standard errors, so a different but correct fading generator
# passes.
MC_MAX_Z = 5.0


class Op:
    """Outcome of one operation, or a documented miss.

    `value` is the program's output made JSON-able by `convert`.  It is
    converted when first read, after the pass is timed, so neither the
    conversion nor a garbage collection it sets off counts as the program's
    time.
    """

    def __init__(self, label, output=None, convert=None, fit_failed=False):
        self.label = label
        self.fit_failed = fit_failed
        self._output, self._convert = output, convert

    @functools.cached_property
    def value(self):
        if self._output is None or self._convert is None:
            return self._output
        return self._convert(self._output)


def _rounded(values):
    """Floats to 12 significant digits, well inside CURVE_RTOL."""
    return [float("%.12g" % v) for v in values]


def _rows(table):
    return [list(r) for r in table.rows]


def _table_value(table):
    return {"rows": _rows(table), "summary": table.summary}


def _as_float_list(a):
    return np.asarray(a, dtype=float).tolist()


def _curve_value(curve):
    return {"lcr": _as_float_list(curve.lcr), "aed": _as_float_list(curve.aed)}


class Workload:
    """Defaults: the default scenario at the seed, calibrated in set-up, and
    the whole op value kept as reference."""

    def config(self, seed):
        return ScenarioConfig(master_seed=seed)

    def setup(self, cfg, sizes):
        return {"cfg": cfg, "consts": channel.calibrate(cfg), **sizes}

    def reference_of(self, inp, value):
        return value

    def warmup_input(self, inp):
        """Inputs of the untimed pass before the timed ones: a whole pass."""
        return inp


class GridTradeoff(Workload):
    """study_grid_tradeoff: the bisection redraws every trial at each step."""

    name = "grid-tradeoff"
    work_name = "trials_per_s"
    sizes = {"n_trials": 30}

    def run_pass(self, inp):
        t = experiments.study_grid_tradeoff(inp["cfg"], n_trials=inp["n_trials"], consts=inp["consts"])
        return [Op("study_grid_tradeoff", t, _table_value)]

    def work(self, inp, ops):
        return float(inp["n_trials"])

    def check(self, inp, op, ref, thorough):
        rows = op.value["rows"]
        cap = float(experiments.DELTA_SEARCH_CAP)
        keys = [[dd, ex] for dd in experiments.DEFAULT_DD_LIST for ex in experiments.DEFAULT_EXTRA_LIST]
        problems = []
        if [r[:2] for r in rows] != keys:
            return ["row keys differ from the (D_d, extra) sweep"]
        for dd, extra, d in rows:
            if not (0.0 <= d <= cap and d == int(d)):
                problems.append(f"delta_star {d} at D_d={dd}, extra={extra} is not an integer in [0, {cap}]")
        if thorough and not problems:
            problems += self._check_brackets(inp, rows)
        if ref is not None and op.value != ref:
            problems.append("table differs from the reference")
        return problems

    @staticmethod
    def _check_brackets(inp, rows):
        """delta_star passes the 5 % exceedance bound and delta_star+1 fails it."""
        cfg, n = inp["cfg"], inp["n_trials"]

        def exceed(dd, delta, level):
            sub = dataclasses.replace(cfg, D_d=dd, delta_grid=float(delta))
            return float(np.mean(engine.degradation_samples(sub, n, inp["consts"]) > level))

        problems = []
        for dd, extra, d in rows:
            level = cfg.buffer_dB + extra
            if d > 0 and exceed(dd, d, level) > 0.05:
                problems.append(f"delta_star {d} at D_d={dd}, extra={extra} exceeds the 5% bound")
            if d < experiments.DELTA_SEARCH_CAP and exceed(dd, d + 1, level) <= 0.05:
                problems.append(f"delta_star {d} at D_d={dd}, extra={extra} is not the largest")
        return problems


class CdfDense(Workload):
    """study_cdf with every transmitter active: per-link vector work."""

    name = "cdf-dense"
    work_name = "trials_per_s"
    sizes = {"n_trials": 100}

    def config(self, seed):
        return ScenarioConfig(master_seed=seed, activity_p=1.0)

    def run_pass(self, inp):
        t = experiments.study_cdf(inp["cfg"], n_trials=inp["n_trials"], consts=inp["consts"])
        return [Op("study_cdf", t, _table_value)]

    def work(self, inp, ops):
        return float(inp["n_trials"])

    def check(self, inp, op, ref, thorough):
        rows = np.array(op.value["rows"], dtype=float)
        summary = op.value["summary"]
        buffer_db = inp["cfg"].buffer_dB
        problems = []
        for delta in experiments.DEFAULT_GRID_SIZES:
            block = rows[rows[:, 0] == delta]
            key = "%.9g" % delta
            if len(block) == 0:
                problems.append(f"no rows for delta {delta}")
                continue
            thr, cdf = block[:, 1], block[:, 2]
            if not np.array_equal(thr, np.round(np.arange(len(thr)) * 0.05, 10)):
                problems.append(f"delta {delta}: thresholds are not the 0.05 dB grid from 0")
            if np.any(np.diff(cdf) < 0) or cdf[0] < 0 or cdf[-1] != 1.0:
                problems.append(f"delta {delta}: CDF is not nondecreasing up to 1")
            for level, probs in ((buffer_db, summary["p_exceed_buffer"]), (3.0, summary["p_exceed_3db"])):
                at = np.nonzero(np.isclose(thr, level, rtol=0, atol=1e-9))[0]
                want = 1.0 - cdf[at[0]] if len(at) else 0.0
                if abs(probs[key] - want) > 1e-12:
                    problems.append(f"delta {delta}: P(> {level} dB) = {probs[key]} disagrees with the CDF")
        if ref is not None and op.value != ref:
            problems.append("table differs from the reference")
        return problems


class LcrMc(Workload):
    """study_lcr: Monte Carlo fading synthesis dominates, and the analytic
    Rician curves of the extreme profiles add 0 to 2 ncx2_sf stalls."""

    name = "lcr-mc"
    work_name = "path_samples_per_s"
    # 8 MC runs make the pass about 30 s, of which the 0, 1 or 2 ncx2_sf
    # stalls (about 1.3 s each, set by the seed) are a small share.
    sizes = {"n_profile_trials": 1000, "mc_runs": 8}
    SEED_STEPS = 20

    def setup(self, cfg, sizes):
        """Calibrate, at the first master seed from cfg's up whose extreme
        profiles both have a Rician fit.

        At about 1 master seed in 20 the dominant profile has none, and
        study_lcr raises the documented FitFailureError before any Monte
        Carlo work, so a pass would hold no fading synthesis.  After
        SEED_STEPS seeds without a fit the given seed is kept.
        """
        k_db = cfg.K_dB if cfg.K_dB is not None else experiments.RICIAN_K_DB_DEFAULT
        k = 10.0 ** (k_db / 10.0)
        for step in range(self.SEED_STEPS):
            trial_cfg = dataclasses.replace(cfg, master_seed=cfg.master_seed + step)
            consts = channel.calibrate(trial_cfg)
            profiles = [engine.trial_profile(trial_cfg, consts, i) for i in range(sizes["n_profile_trials"])]
            try:
                for prof in allocation.select_extreme_profiles(profiles):
                    lcr.fit_ncx2(prof, k)
            except lcr.FitFailureError:
                continue
            return {"cfg": trial_cfg, "consts": consts, **sizes}
        return super().setup(cfg, sizes)

    def warmup_input(self, inp):
        """One MC run: it reaches every layer a pass does, in a fraction of the time."""
        return {**inp, "mc_runs": 1}

    def run_pass(self, inp):
        pooled = []
        merge = experiments.merge_counted

        def capture(curves, duration_each):
            pooled.append(merge(curves, duration_each))
            return pooled[-1]

        experiments.merge_counted = capture
        try:
            t = experiments.study_lcr(
                inp["cfg"], n_profile_trials=inp["n_profile_trials"],
                mc_runs=inp["mc_runs"], consts=inp["consts"],
            )
        except lcr.FitFailureError:
            return [Op("study_lcr", fit_failed=True)]
        finally:
            experiments.merge_counted = merge
        return [Op("study_lcr", (t, pooled), self._value)]

    @staticmethod
    def _value(output):
        t, pooled = output
        return {
            "rows": _rows(t),
            "n_links": {k: v["n_links"] for k, v in t.summary["profiles"].items()},
            "pooled": [
                {"rates": _as_float_list(c.rates), "aeds": _as_float_list(c.aeds),
                 "fractions": _as_float_list(c.fractions)}
                for c in pooled
            ],
        }

    def work(self, inp, ops):
        op = ops[0]
        if op.value is None:
            return 0.0
        samples_per_run = round(experiments.MC_DOPPLER_TIMES_PER_RUN * experiments.MC_TICKS_PER_DOPPLER)
        links = sum(op.value["n_links"].values())
        return 2.0 * links * samples_per_run * inp["mc_runs"]  # Rayleigh and Rician

    def reference_of(self, inp, value):
        """Analytic columns and pooled crossing counts per curve."""
        n = len(lcr.default_threshold_grid()[0])
        blocks = [value["rows"][b : b + n] for b in range(0, len(value["rows"]), n)]
        scale = inp["cfg"].f_D * _mc_time(inp)
        return {
            "n_links": value["n_links"],
            "analytic": [_rounded([r[3] for r in blk]) for blk in blocks],
            "counts": [[round(r[4] * scale) for r in blk] for blk in blocks],
        }

    def check(self, inp, op, ref, thorough):
        cfg = inp["cfg"]
        value = op.value
        rows = value["rows"]
        thr_db = lcr.default_threshold_grid(cfg.noise_power)[0]
        n = len(thr_db)
        combos = [(f, p) for f in ("rayleigh", "rician") for p in ("dominant", "no_dominant")]
        problems = []
        if len(rows) != n * len(combos) or len(value["pooled"]) != len(combos):
            return [f"expected {n * len(combos)} rows and {len(combos)} pooled curves"]
        for b, (fading, profile) in enumerate(combos):
            block = rows[b * n : (b + 1) * n]
            c = {k: np.array(v) for k, v in value["pooled"][b].items()}
            where = f"{fading}/{profile}"
            if any(r[0] != fading or r[1] != profile for r in block):
                problems.append(f"{where}: row labels out of order")
            if [r[2] for r in block] != list(thr_db):
                problems.append(f"{where}: thresholds differ from the default grid")
            analytic = np.array([r[3] for r in block])
            mc_norm = np.array([r[4] for r in block])
            if not np.all(np.isfinite(analytic) & (analytic >= 0)):
                problems.append(f"{where}: analytic rates not finite and non-negative")
            if not np.array_equal(mc_norm, c["rates"] / cfg.f_D):
                problems.append(f"{where}: table rates differ from the pooled curve")
            problems += _check_pooled(where, c)
            if ref is not None:
                problems += _compare_curve(where + " analytic", analytic, np.array(ref["analytic"][b]))
                counts = mc_norm * cfg.f_D * _mc_time(inp)
                problems += _compare_counts(where, counts, ref["counts"][b])
        if ref is not None and value["n_links"] != ref["n_links"]:
            problems.append("extreme profiles differ from the reference")
        return problems


class Analytic(Workload):
    """Analytic Rayleigh and Rician curves of many admitted profiles."""

    name = "analytic"
    work_name = "curves_per_s"
    sizes = {"n_trials": 8}
    K_DB = 10.0

    def setup(self, cfg, sizes):
        consts = channel.calibrate(cfg)
        profiles = [engine.trial_profile(cfg, consts, i) for i in range(sizes["n_trials"])]
        return {"cfg": cfg, "profiles": profiles, **sizes}

    def run_pass(self, inp):
        cfg = inp["cfg"]
        thr = lcr.default_threshold_grid(cfg.noise_power)[1]
        k = 10.0 ** (self.K_DB / 10.0)
        ops = []
        for i, prof in enumerate(inp["profiles"]):
            if len(prof.weights) == 0:
                continue
            ray = lcr.rayleigh_curve(prof, cfg.f_D, cfg.noise_power, thr)
            ops.append(Op(f"rayleigh {i}", ray, _curve_value))
            try:
                ric = lcr.rician_curve(prof, k, cfg.f_D, cfg.noise_power, thr)
            except lcr.FitFailureError:
                ops.append(Op(f"rician {i}", fit_failed=True))
                continue
            ops.append(Op(f"rician {i}", ric, _curve_value))
        return ops

    def work(self, inp, ops):
        return float(sum(op.value is not None for op in ops))

    def reference_of(self, inp, value):
        return {k: _rounded(v) for k, v in value.items()}

    def check(self, inp, op, ref, thorough):
        rate, aed = np.array(op.value["lcr"]), np.array(op.value["aed"])
        problems = []
        if not np.all(np.isfinite(rate) & (rate >= 0)):
            problems.append(f"{op.label}: crossing rates not finite and non-negative")
        if not np.array_equal(np.isnan(aed), rate == 0) or np.any(aed < 0):
            problems.append(f"{op.label}: durations not >= 0 exactly where the rate is positive")
        if ref is not None:
            ref_rate, ref_aed = np.array(ref["lcr"]), np.array(ref["aed"])
            problems += _compare_curve(op.label + " lcr", rate, ref_rate)
            # aed * lcr is the survival probability; compare where it is above underflow.
            keep = (ref_rate > UNDERFLOW) & (ref_aed * ref_rate > UNDERFLOW)
            problems += _compare_curve(op.label + " aed", aed[keep], ref_aed[keep])
        return problems


def _compare_curve(where, got, want):
    above = np.abs(want) > UNDERFLOW
    if got.shape != want.shape:
        return [f"{where}: {got.shape} values, reference has {want.shape}"]
    if not np.allclose(got[above], want[above], rtol=CURVE_RTOL, atol=0):
        worst = np.max(np.abs(got[above] / want[above] - 1.0))
        return [f"{where}: differs from the reference by {worst:.2e} relative"]
    return []


def _mc_time(inp):
    """Pooled Monte Carlo time of one curve, in seconds."""
    return inp["mc_runs"] * experiments.MC_DOPPLER_TIMES_PER_RUN / inp["cfg"].f_D


def _check_pooled(where, c):
    """Invariants of one pooled crossing curve (arrays rates, aeds, fractions)."""
    problems = []
    rates, aeds, f = c["rates"], c["aeds"], c["fractions"]
    if not np.all(np.isfinite(rates) & (rates >= 0)):
        problems.append(f"{where}: Monte Carlo rates not finite and non-negative")
    if np.any(f < 0) or np.any(f > 1) or np.any(np.diff(f) > 0):
        problems.append(f"{where}: time-above fractions not nonincreasing in [0, 1]")
    pos = rates > 0
    if not np.allclose(rates[pos] * aeds[pos], f[pos], rtol=1e-12, atol=0):
        problems.append(f"{where}: rate * aed != fraction")
    if np.any(np.isfinite(aeds[~pos])):
        problems.append(f"{where}: aed defined where no crossing was counted")
    return problems


def _compare_counts(where, counts, ref_counts):
    """Pooled crossing counts within MC_MAX_Z Poisson standard errors."""
    ref_counts = np.asarray(ref_counts, dtype=float)
    z = np.abs(counts - ref_counts) / np.sqrt(np.maximum(counts + ref_counts, 1.0))
    if np.max(z) > MC_MAX_Z:
        return [f"{where}: pooled rates {np.max(z):.1f} standard errors from the reference"]
    return []


WORKLOADS = {w.name: w for w in (GridTradeoff(), CdfDense(), LcrMc(), Analytic())}


def reference_path(name):
    return REFERENCE_DIR / f"{name}.json"


def load_reference(workload, seed, sizes):
    """Reference op values, when the run matches the reference's seed and sizes."""
    path = reference_path(workload.name)
    if seed != REFERENCE_SEED or not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["sizes"] != sizes:
        return None
    return ref["ops"]


def write_reference(workload, inp, sizes, ops):
    data = {
        "workload": workload.name,
        "seed": REFERENCE_SEED,
        "sizes": sizes,
        "ops": {op.label: None if op.fit_failed else workload.reference_of(inp, op.value) for op in ops},
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(workload.name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
