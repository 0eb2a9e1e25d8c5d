"""remcr benchmark: one workload, measured end to end or traced by layer.

    python3 benchmark/run.py --workload grid-tradeoff --seed 3 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
The passes run in this one process on one thread: the BLAS/OpenMP pools are
pinned to one thread before numpy loads.  The seed becomes
`ScenarioConfig.master_seed` (lcr-mc may move on to a later one; see
`workloads.LcrMc.setup`).

Set-up is timed several times: the import of remcr, each in a fresh
interpreter run to completion before the next, and the workload's
calibration and inputs in this process.  After one untimed warm-up pass, the
run repeats passes of its work until `--seconds` are used, checking every
output.  With `--trace 0` it
reports the end-to-end metrics, with `wall_s` the mean pass; with
`--trace 1` it alternates untraced and traced passes and reports per-layer
metrics.  A readable report goes to standard output, followed by one JSON
line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`--write-reference` rewrites `benchmark/reference/<workload>.json` from a
pass at the default seed and sizes.
"""

import os

# Pinned before numpy is imported anywhere in this process.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5

# Per-layer metrics: layer self times per pass, plus work counts per pass.
# Layers that also run in set-up report one traced set-up plus one pass.
SETUP_LAYERS = ("channel.calibrate", "allocation.select_extreme_profiles")
SELF_TIME_LAYERS = (
    "scenario.derive_stream",
    "geometry.sample_placement",
    "channel.sample_shadows",
    "rem.estimate_links",
    "engine.draw_candidates",
    "fadingsim.generate_fading",
    "fadingsim.count_crossings",
    "lcr.rician_curve",
    "lcr.rayleigh_curve",
    "specfun.ncx2_sf",
    "specfun.gamma_sf",
)
EXACT_COUNTS = (
    "engine.draw_candidates.calls",
    "engine.redraw_ratio",
    "fadingsim.path_samples",
    "specfun.ncx2_sf.calls",
    "lcr.fit_ncx2.failures",
)


# Imports remcr, with numpy, scipy and every layer, in a fresh interpreter
# and prints the seconds it took.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import remcr.experiments; print(time.perf_counter() - t)"
)


def import_remcr():
    """Import remcr from this checkout's src/ and nowhere else."""
    sys.dont_write_bytecode = True  # every run compiles the package the same way
    sys.path.insert(0, str(SRC))
    import remcr.experiments

    if Path(remcr.experiments.__file__).resolve().parent != SRC / "remcr":
        raise ImportError(f"remcr was imported from {remcr.experiments.__file__}, not {SRC}")


def import_times(repeats):
    """Seconds to import remcr in each of `repeats` fresh interpreters, one
    after another; -B keeps them from writing bytecode."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-B", "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout))
    return times


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def steal_s():
    """CPU time the hypervisor has taken from this (virtual) machine so far, all CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(seed):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "code_hash": code_hash(),
        "seed": seed,
        "threads": THREAD_ENV,
    }


def run_ops(workload, inp, ref, first_values, thorough, tracer=None):
    """One pass, traced when a tracer is given: time it, then check each
    operation's output.

    first_values maps op labels to their output in the first pass at this
    seed; later passes must reproduce it.  Returns (seconds, cpu seconds,
    ops, {label: problems}).
    """
    from workloads import Op

    with tracer or contextlib.nullcontext():
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            ops = workload.run_pass(inp)
            error = None
        except Exception as exc:  # an undocumented error fails the pass's one op
            ops, error = [Op(workload.name)], f"{type(exc).__name__}: {exc}"
        seconds, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    problems = {workload.name: [error]} if error else {}
    if ref is not None and not error and [op.label for op in ops] != list(ref):
        problems["reference"] = ["operations differ from the reference's"]
    for i, op in enumerate(ops):
        found = []
        try:
            op.value
        except Exception as exc:  # an output that cannot be converted fails its op
            ops[i] = op = Op(op.label)
            found.append(f"output cannot be read: {type(exc).__name__}: {exc}")
        op_ref = (ref or {}).get(op.label)
        if ref is not None and op.label in ref and op.fit_failed != (op_ref is None):
            found.append("fit failure differs from the reference")
        if op.value is not None:
            found += workload.check(inp, op, op_ref, thorough)
        value = json.dumps([op.value, op.fit_failed])
        if first_values.setdefault(op.label, value) != value:
            found.append("output differs from the first pass at this seed")
        if found:
            problems[op.label] = found
    return seconds, cpu, ops, problems


def measure(workload, seed, seconds, trace, sizes):
    """Run one workload; return (result dict for the JSON line, report dict)."""
    from spans import Tracer
    from workloads import load_reference

    sizes = dict(workload.sizes if sizes is None else sizes)
    cfg = workload.config(seed)
    report = {"workload": workload.name, "sizes": sizes, "loadavg_before": loadavg()}
    steal_before = steal_s()

    imports = import_times(SETUP_REPEATS) if not trace else []
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inp = workload.setup(cfg, sizes)
        setup_times.append(time.perf_counter() - t0)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.begin_run("setup")
        with tracer:
            workload.setup(cfg, sizes)
    # lcr-mc may move to a later master seed in set-up; see LcrMc.setup.
    report["master_seed"] = inp["cfg"].master_seed
    ref = load_reference(workload, inp["cfg"].master_seed, sizes)
    report["reference_checked"] = ref is not None

    # An untimed pass first, so lazy imports and first calls stay out of the
    # timed passes.  Its outputs are not checked: the timed passes repeat
    # the work, and an error it raises they raise and count too.
    with contextlib.suppress(Exception):
        workload.run_pass(workload.warmup_input(inp))

    walls, cpus, traced_walls, traced_ids = [], [], [], []
    attempted = failed = 0
    problems, faults = {}, []
    first_values = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(traced_walls) < len(walls)
        if traced:
            run_id = len(walls) + len(traced_walls)
            tracer.begin_run(run_id)
            wall, cpu, ops, found = run_ops(workload, inp, ref, first_values, False, tracer)
            traced_walls.append(wall)
            traced_ids.append(run_id)
        else:
            wall, cpu, ops, found = run_ops(workload, inp, ref, first_values, not first_values)
            walls.append(wall)
            cpus.append(cpu)
        work = workload.work(inp, ops)
        attempted += len(ops)
        failed += len(found)
        for label, msgs in found.items():
            problems.setdefault(label, msgs)
        elapsed = time.perf_counter() - start
        enough = len(walls) >= 1 and (not trace or len(traced_walls) >= 1)
        if enough and elapsed + wall > seconds:
            break
    report["loadavg_after"] = loadavg()
    if steal_before is not None:
        report["steal_s"] = round(steal_s() - steal_before, 3)
    report["passes"] = len(walls)
    report["fit_failures"] = sum(op.fit_failed for op in ops)
    report["problems"] = problems

    # Passes repeat identical work, so the time they differ by is interference
    # from outside the process.  It comes in phases of seconds to minutes, so
    # a run's fastest pass depends on whether it met a quiet phase; the mean
    # pass varies less from run to run.
    wall_s = statistics.fmean(walls)
    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(imports) + statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "work_per_s": (work / wall_s, "1/s"),
        }
        report["named"] = {
            workload.work_name: (work / wall_s, "1/s"),
            "failed_frac": (failed / attempted, "ratio"),
            "setup_imports_s": ([round(t, 6) for t in imports], "s"),
            "setup_calibrate_inputs_s": ([round(t, 6) for t in setup_times], "s"),
            "pass_walls_s": ([round(t, 6) for t in walls], "s"),
        }
    else:
        metrics, layer_report, faults = layer_metrics(tracer, traced_ids, traced_walls, wall_s, cpus)
        report.update(layer_report)
        faults += check_counts_across_runs(workload.name, seed, sizes, tracer.run_counts(traced_ids[0]))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.csv.gz")
    report["faults"] = faults
    result = {
        "correct": failed == 0 and not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


def layer_metrics(tracer, run_ids, traced_walls, untraced_wall, cpus):
    """Per-pass layer metrics from the traced passes, and the count check."""
    from spans import COS_PER_PATH_SAMPLE, EVALUATE

    n = len(run_ids)
    stats = tracer.self_times(set(run_ids))
    setup_stats = tracer.self_times({"setup"})

    def self_s(*layers):
        return sum(stats[layer] for layer in layers) / n

    counts = tracer.run_counts(run_ids[0])
    faults = []
    for other in run_ids[1:]:
        again = tracer.run_counts(other)
        for key in EXACT_COUNTS:
            if again[key] != counts[key]:
                faults.append(f"{key} differs between passes at one seed: {counts[key]} vs {again[key]}")
    traced_wall = statistics.fmean(traced_walls)
    metrics = {f"{layer}.self_s": (self_s(layer), "s") for layer in SELF_TIME_LAYERS}
    for layer in SETUP_LAYERS:
        metrics[f"{layer}.self_s"] = (setup_stats[layer] + self_s(layer), "s")
    metrics.update({
        "engine.evaluate.self_s": (self_s(*EVALUATE), "s"),
        "experiments.self_s": (self_s(*[k for k in stats if k.startswith("experiments.")]), "s"),
        "process.cpu_s": (statistics.fmean(cpus), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    units = {"engine.redraw_ratio": "ratio"}
    for key, value in counts.items():
        metrics[key] = (value, units.get(key, "count"))
    metrics["fadingsim.cos_evals_computed"] = (counts["fadingsim.path_samples"] * COS_PER_PATH_SAMPLE, "count")

    layers = {layer: own / n for layer, own in stats.items()}
    modules = {}
    for layer, own in layers.items():
        modules[layer.split(".")[0]] = modules.get(layer.split(".")[0], 0.0) + own
    # Self times add up to the time the top-level spans cover, by
    # construction.  What is measured is how much of the traced passes (the
    # untraced wall plus the tracing overhead) those spans leave uncovered.
    outside = 1.0 - tracer.root_time(set(run_ids)) / sum(traced_walls)
    report = {
        "traced_passes": n,
        "module_self_s": modules,
        "layer_self_s": layers,
        "dominant_layer": max(layers, key=layers.get) if layers else None,
        "self_sum_s": sum(layers.values()),
        "traced_wall_mean_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "overhead_s": traced_wall - untraced_wall,
        "outside_spans_share": outside,
    }
    return metrics, report, faults


def code_hash():
    """Hash of the package and benchmark sources: exact counts may change with the code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "remcr").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_across_runs(name, seed, sizes, counts):
    """Exact counts must repeat between traced runs of one seed, one set of
    sizes and one version of the code."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"counts-{name}-seed{seed}-{code_hash()}.json"
    record = {"sizes": sizes, "counts": {k: counts[k] for k in EXACT_COUNTS}}
    faults = []
    if path.exists():
        before = json.loads(path.read_text())
        if before["sizes"] == sizes and before["counts"] != record["counts"]:
            faults.append(f"exact counts differ from an earlier run at seed {seed}: {before['counts']} vs {record['counts']}")
    path.write_text(json.dumps(record) + "\n")
    return faults


def print_report(record, report, result):
    print(f"remcr benchmark: workload {report['workload']}, sizes {report['sizes']}")
    print("run record: " + json.dumps(record))
    print(f"loadavg before {report['loadavg_before']} after {report['loadavg_after']}; "
          f"CPU time stolen by the hypervisor during the run: {report.get('steal_s')} s")
    print(f"master seed used: {report['master_seed']}; untraced passes: {report['passes']}; "
          f"reference checked: {report['reference_checked']}; "
          f"documented fit failures in last pass: {report['fit_failures']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in report.get("named", {}).items():
        print(f"  {name:40s} {value} {unit}")
    if "module_self_s" in report:
        total = report["traced_wall_mean_s"]
        print(f"self time per module, per traced pass (mean traced wall {total:.4f} s, "
              f"sum of self times {report['self_sum_s']:.4f} s; mean untraced wall "
              f"{report['untraced_wall_s']:.4f} s + tracing overhead {report['overhead_s']:.4f} s):")
        for mod, s in sorted(report["module_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  {mod:40s} {s:10.4f} s  {100 * s / total:5.1f}%")
        print(f"share of the traced passes outside any span: {100 * report['outside_spans_share']:.2f}%")
        print(f"dominant layer by self time: {report['dominant_layer']}")
    for label, msgs in report["problems"].items():
        for msg in msgs:
            print(f"CHECK FAILED [{label}]: {msg}")
    for msg in report["faults"]:
        print(f"BENCHMARK FAULT: {msg}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    try:
        import_remcr()
    except ImportError as exc:
        print(f"cannot import remcr from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import REFERENCE_SEED, WORKLOADS, write_reference

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        inp = workload.setup(workload.config(REFERENCE_SEED), workload.sizes)
        write_reference(workload, inp, workload.sizes, workload.run_pass(inp))
        return 0

    record = run_record(args.seed)
    result, report = measure(workload, args.seed, args.seconds, args.trace, None)
    print_report(record, report, result)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, "report": report, "result": result}, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
