"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest benchmark/test_benchmark.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a deliberately corrupted, unreadable or raising output counts as a failed
operation, that spans cover the traced passes, and that the exact work
counts repeat between traced runs of one version of the code.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_remcr()

import spans  # noqa: E402
import workloads  # noqa: E402
from remcr import engine, experiments, lcr, scenario  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = {
    "grid-tradeoff": {"n_trials": 3},
    "cdf-dense": {"n_trials": 3},
    "lcr-mc": {"n_profile_trials": 4, "mc_runs": 1},
    "analytic": {"n_trials": 2},
}
SEED = 5


def measure(name, trace=0):
    return run.measure(workloads.WORKLOADS[name], SEED, 0.0, trace, TINY[name])


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads.WORKLOADS[name], "sizes", TINY[name])
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    # The traced pass is covered by spans: the self times, which add up to
    # the spans' time, account for the traced wall but for a small share.
    report = json.loads((tmp_path / f"result-{name}-seed{SEED}-trace1.json").read_text())["report"]
    assert 0.0 <= report["outside_spans_share"] < 0.05
    assert report["self_sum_s"] == pytest.approx(sum(report["module_self_s"].values()))
    assert report["self_sum_s"] <= report["traced_wall_mean_s"]
    assert report["dominant_layer"] is not None


def _corrupt_grid(monkeypatch):
    study = experiments.study_grid_tradeoff

    def corrupted(*args, **kwargs):
        t = study(*args, **kwargs)
        rows = list(t.rows)
        rows[0] = rows[0][:2] + (rows[0][2] + 0.5,)
        return experiments.StudyTable(t.headers, tuple(rows), t.summary)

    monkeypatch.setattr(experiments, "study_grid_tradeoff", corrupted)


def _corrupt_cdf(monkeypatch):
    study = experiments.study_cdf

    def corrupted(*args, **kwargs):
        t = study(*args, **kwargs)
        rows = list(t.rows)
        rows[1] = rows[1][:2] + (rows[1][2] + 2.0,)
        return experiments.StudyTable(t.headers, tuple(rows), t.summary)

    monkeypatch.setattr(experiments, "study_cdf", corrupted)


def _corrupt_fading(monkeypatch):
    merge = experiments.merge_counted

    def corrupted(curves, duration_each):
        c = merge(curves, duration_each)
        return type(c)(c.thresholds, c.fractions, c.rates, c.aeds * 1.01)

    monkeypatch.setattr(experiments, "merge_counted", corrupted)


def _corrupt_curves(monkeypatch):
    curve = lcr.rayleigh_curve

    def corrupted(*args, **kwargs):
        c = curve(*args, **kwargs)
        return type(c)(c.thresholds, -c.lcr, c.aed)

    monkeypatch.setattr(lcr, "rayleigh_curve", corrupted)


@pytest.mark.parametrize("name,corrupt", [
    ("grid-tradeoff", _corrupt_grid),
    ("cdf-dense", _corrupt_cdf),
    ("lcr-mc", _corrupt_fading),
    ("analytic", _corrupt_curves),
])
def test_corrupted_output_counts_as_failed(name, corrupt, monkeypatch):
    corrupt(monkeypatch)
    result, report = measure(name)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert report["problems"]


def test_undocumented_error_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("fading generator broken on purpose")

    monkeypatch.setattr(experiments, "generate_fading", broken)
    result, report = measure("lcr-mc")
    assert result["correct"] is False and result["failed"] >= 1
    assert "RuntimeError" in report["problems"]["lcr-mc"][0]
    assert result["metrics"]["work_per_s"]["value"] == 0.0


def test_unreadable_output_counts_as_failed(monkeypatch):
    def malformed(*args, **kwargs):
        return lcr.LcrCurve(thresholds=None, lcr=object(), aed=None)

    monkeypatch.setattr(lcr, "rayleigh_curve", malformed)
    result, report = measure("analytic")
    assert result["correct"] is False and result["failed"] >= 1
    assert any("cannot be read" in msgs[0] for msgs in report["problems"].values())


def test_exact_counts_repeat_between_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    first, _ = measure("grid-tradeoff", trace=1)
    again, report = measure("grid-tradeoff", trace=1)
    assert first["correct"] and again["correct"] and not report["faults"]
    for key in run.EXACT_COUNTS:
        assert first["metrics"][key] == again["metrics"][key]
    counts = {k: v["value"] for k, v in again["metrics"].items() if k in run.EXACT_COUNTS}
    counts["engine.draw_candidates.calls"] += 1
    assert run.check_counts_across_runs("grid-tradeoff", SEED, TINY["grid-tradeoff"], counts)
    # Changed code may change the counts: they are compared only within one version.
    monkeypatch.setattr(run, "code_hash", lambda: "changed")
    assert not run.check_counts_across_runs("grid-tradeoff", SEED, TINY["grid-tradeoff"], counts)


def test_tracer_patches_from_import_bindings():
    original = scenario.derive_stream
    with spans.Tracer() as tracer:
        assert engine.derive_stream is not original
        assert engine.derive_stream.__wrapped__ is original
        engine.derive_stream(1, 0, "x")
    assert engine.derive_stream is original and scenario.derive_stream is original
    assert [s[0] for s in tracer.spans] == ["scenario.derive_stream"]


def test_reference_mismatch_is_a_failure():
    w = workloads.WORKLOADS["grid-tradeoff"]
    ref = workloads.load_reference(w, workloads.REFERENCE_SEED, w.sizes)["study_grid_tradeoff"]
    inp = {"cfg": w.config(workloads.REFERENCE_SEED), **w.sizes}
    assert w.check(inp, workloads.Op("study_grid_tradeoff", ref), ref, False) == []
    changed = json.loads(json.dumps(ref))
    changed["rows"][-1][2] -= 1.0
    assert w.check(inp, workloads.Op("study_grid_tradeoff", changed), ref, False)


def test_reference_files_match_their_workload_sizes():
    for name, w in workloads.WORKLOADS.items():
        ref = json.loads(workloads.reference_path(name).read_text())
        assert ref["sizes"] == w.sizes and ref["seed"] == workloads.REFERENCE_SEED


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "grid-tradeoff", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_lcr_mc_moves_past_a_seed_without_a_rician_fit():
    # At master seed 61 the dominant profile of 1 000 trials has no Rician
    # fit, so study_lcr would stop before any Monte Carlo work.
    w = workloads.WORKLOADS["lcr-mc"]
    sizes = {"n_profile_trials": 1000, "mc_runs": 1}
    assert w.setup(w.config(61), sizes)["cfg"].master_seed == 62
    assert w.setup(w.config(60), sizes)["cfg"].master_seed == 60
