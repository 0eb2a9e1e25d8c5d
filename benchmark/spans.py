"""Span tracing of remcr's public functions, from outside the package.

A traced function is replaced at every name that binds it: the attribute of
its defining module and each `from ... import` copy in the other remcr
modules.  Patching only the defining module would miss calls made through
those copies, e.g. `remcr.engine.derive_stream`.

Spans (name, start, end, parent, run id) are kept in memory; self time is a
span's duration minus the time its child spans cover.  Spans only nest on the
one thread the benchmark runs, so the covered time is the sum of the
children's durations.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter

import remcr
from remcr.lcr import FitFailureError

# Layer name "module.function" of every traced public function.
TRACED = (
    "scenario.derive_stream",
    "geometry.sample_placement",
    "channel.sample_shadows",
    "channel.calibrate",
    "rem.estimate_links",
    "engine.draw_candidates",
    "engine.degradation_samples",
    "engine.critical_budgets",
    "engine.trial_profile",
    "experiments.study_cdf",
    "experiments.study_grid_tradeoff",
    "experiments.study_lcr",
    "allocation.select_extreme_profiles",
    "fadingsim.generate_fading",
    "fadingsim.count_crossings",
    "lcr.fit_ncx2",
    "lcr.rayleigh_curve",
    "lcr.rician_curve",
    "specfun.ncx2_sf",
    "specfun.gamma_sf",
)

# The per-trial evaluation around a draw: admission and the per-trial
# reductions, with the draw itself (a child span) subtracted.
EVALUATE = ("engine.degradation_samples", "engine.critical_budgets", "engine.trial_profile")
SWEEP_POINTS = ("engine.degradation_samples", "engine.critical_budgets")

# Cosines per path-sample in the sum-of-sinusoids generator: two quadrature
# components of 32 oscillators each (remcr.fadingsim.OSCILLATORS).
COS_PER_PATH_SAMPLE = 2 * 32


def remcr_modules():
    """Every module of the remcr package, imported."""
    mods = [remcr]
    for info in pkgutil.iter_modules(remcr.__path__):
        mods.append(importlib.import_module(f"remcr.{info.name}"))
    return mods


class Tracer:
    """Records spans and work counts for the functions in TRACED."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, run id)
        self.counts: dict = defaultdict(Counter)  # run id -> work counts
        self.trials: dict = defaultdict(set)  # run id -> drawn (seed, trial) pairs
        self.run_id = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []  # (module, name, original value)

    def install(self):
        """Rebind every module attribute that is a traced function."""
        modules = remcr_modules()
        by_name = {m.__name__: m for m in modules}
        for layer in TRACED:
            mod_name, func_name = layer.split(".")
            # A function a later version removes is skipped; its layer reads 0.
            original = getattr(by_name[f"remcr.{mod_name}"], func_name, None)
            if original is None:
                continue
            wrapped = self._wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, value))
                        setattr(mod, name, wrapped)
        return self

    def uninstall(self):
        while self._undo:
            mod, name, value = self._undo.pop()
            setattr(mod, name, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def begin_run(self, run_id):
        self.run_id = run_id

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = self.counts[self.run_id]
            counts[layer + ".calls"] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except FitFailureError:
                counts[layer + ".failures"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.run_id)
            if layer == "engine.draw_candidates":
                cfg, _, trial_index = args[:3]
                self.trials[self.run_id].add((cfg.master_seed, trial_index))
            elif layer == "rem.estimate_links":
                counts["rem.links"] += len(args[3])
            elif layer == "fadingsim.generate_fading":
                weights = getattr(args[1], "weights", args[1])
                counts["fadingsim.path_samples"] += len(weights) * len(result.samples)
            return result

        return traced

    def self_times(self, run_ids):
        """Self seconds per layer, summed over the given runs."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, run_id) in enumerate(self.spans):
            if run_id in run_ids:
                out[name] += end - start - child_time[i]
        return out

    def root_time(self, run_ids):
        """Time covered by the top-level spans of the given runs."""
        return sum(e - s for _, s, e, p, r in self.spans if p < 0 and r in run_ids)

    def run_counts(self, run_id):
        """Exact work counts of one run."""
        c = self.counts[run_id]
        draws = c["engine.draw_candidates.calls"]
        trials = len(self.trials[run_id])
        return {
            "engine.draw_candidates.calls": draws,
            "engine.redraw_ratio": draws / trials if trials else 0.0,
            "scenario.derive_stream.calls": c["scenario.derive_stream.calls"],
            "rem.links": c["rem.links"],
            "experiments.sweep_points": sum(c[n + ".calls"] for n in SWEEP_POINTS),
            "fadingsim.path_samples": c["fadingsim.path_samples"],
            "specfun.ncx2_sf.calls": c["specfun.ncx2_sf.calls"],
            "lcr.fit_ncx2.calls": c["lcr.fit_ncx2.calls"],
            "lcr.fit_ncx2.failures": c["lcr.fit_ncx2.failures"],
        }

    def write(self, path):
        """Write every span as gzipped CSV: index,name,start_s,end_s,parent,run."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("index", "name", "start_s", "end_s", "parent", "run"))
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                w.writerow((i, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, run_id))
