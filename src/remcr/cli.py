"""Command line front end: run a study, serialize its table, exit clean.

Exit codes: 0 success, 1 a `validate` self-check failed, 2 configuration or
usage error, 3 moment-fit failure.
Output is schema-stable: fixed header names, floats rendered with 9
significant digits, so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from remcr import __version__
from remcr import experiments as exp
from remcr import lcr as lcrmod
from remcr.channel import calibrate
from remcr.engine import trial_profile
from remcr.fadingsim import FadingSeries, count_crossings, generate_fading
from remcr.geometry import snap_points
from remcr.scenario import (
    ConfigError,
    ScenarioConfig,
    derive_stream,
    interference_threshold,
    load_scenario,
)

__all__ = ["run", "entry"]

# command -> (help text, study, the study's trial-count keyword); each study
# keeps its own default trial count
_STUDIES = {
    "cdf": ("degradation CDF per map grid size", exp.study_cdf, "n_trials"),
    "grid-tradeoff": ("largest grid size meeting an exceedance bound",
                      exp.study_grid_tradeoff, "n_trials"),
    "backoff": ("reduced admission buffer keeping violations rare", exp.study_backoff, "n_trials"),
    "lcr": ("analytic vs Monte Carlo crossing rates", exp.study_lcr, "n_profile_trials"),
    "aed": ("analytic vs Monte Carlo exceedance durations", exp.study_aed, "n_profile_trials"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remcr",
        description="Shared-spectrum admission and interference-dynamics studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [(name, help_text) for name, (help_text, _, _) in _STUDIES.items()]
    for name, help_text in specs + [("validate", "run the invariant self-checks")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario file of key=value lines")
        p.add_argument("--seed", type=int, help="override the master seed")
        if name != "validate":
            p.add_argument("--trials", type=int, help="allocation trials (study default otherwise)")
            p.add_argument("--out", help="output path (stdout otherwise)")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return "%.9g" % value
    return str(value)


def _render_csv(table: exp.StudyTable) -> str:
    lines = [",".join(table.headers)]
    for row in table.rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_cell(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def _render_json(command: str, cfg: ScenarioConfig, table: exp.StudyTable) -> str:
    doc = {
        "meta": {
            "study": command,
            "version": __version__,
            "seed": cfg.master_seed,
            "config": dataclasses.asdict(cfg),
            "summary": table.summary,
        },
        "rows": [
            dict(zip(table.headers, (_json_cell(v) for v in row))) for row in table.rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _run_validate(cfg: ScenarioConfig) -> int:
    """Cheap structural invariants; prints one line per check."""
    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        if ok:
            print(f"ok - {name}")
        else:
            failures += 1
            print(f"FAIL - {name}{': ' + detail if detail else ''}")

    budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
    expect = cfg.noise_power * (10.0 ** (cfg.buffer_dB / 10.0) - 1.0)
    report("budget-identity", abs(budget - expect) <= 1e-12 * max(expect, 1.0))

    snapped = snap_points([37.0, -12.0], 50.0)
    report("grid-snap", snapped.tolist() == [25.0, -25.0], f"got {snapped}")

    cr = calibrate(cfg, n_samples=50_000)
    perfect = dataclasses.replace(cfg, delta_grid=0.0)
    cap = budget * (1.0 + 1e-9)
    report("admission-respects-estimated-budget",
           all(float(np.sum(trial_profile(cfg, cr, i).est_weights)) <= cap for i in range(30)))
    report("perfect-map-admission-respects-true-budget",
           all(float(np.sum(trial_profile(perfect, cr, i).weights)) <= cap for i in range(30)))

    try:
        fit = lcrmod.fit_ncx2([1.0], 10.0)
        ok = (
            abs(fit.dof - 2.0) <= 1e-8
            and abs(fit.noncentrality - 20.0) <= 1e-7
            and abs(fit.scale - 22.0) <= 1e-7
        )
        report("single-path-moment-fit", ok, f"got {fit}")
    except lcrmod.FitFailureError as fexc:
        report("single-path-moment-fit", False, str(fexc))

    dt = 1e-4
    t = np.arange(int(round(20.0 / dt))) * dt
    sine = FadingSeries(samples=np.sin(2.0 * math.pi * t), dt=dt, duration=20.0)
    counted = count_crossings(sine, [0.5])
    rate_ok = abs(counted.rates[0] - 1.0) <= 0.01
    frac_ok = abs(counted.fractions[0] - 1.0 / 3.0) <= 0.005
    report("crossing-counter-sine-oracle", rate_ok and frac_ok,
           f"rate {counted.rates[0]:.4f} fraction {counted.fractions[0]:.4f}")

    stream = derive_stream(cfg.master_seed, 0, "validate-fading")
    series = generate_fading(stream, [0.3, 0.7], 0.0, cfg.f_D,
                             1.0 / (64.0 * cfg.f_D), 200.0 / cfg.f_D)
    counted = count_crossings(series, [0.5, 1.0, 2.0])
    ident = np.nanmax(np.abs(counted.rates * counted.aeds - counted.fractions))
    report("crossing-identity-rate-aed-fraction", bool(ident <= 1e-12), f"dev {ident:g}")

    a = exp.study_cdf(cfg, grid_sizes=(25.0,), n_trials=40, consts=cr)
    b = exp.study_cdf(cfg, grid_sizes=(25.0,), n_trials=40, consts=cr)
    report("study-determinism", a == b)

    return 0 if failures == 0 else 1


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = load_scenario(args.config) if args.config else ScenarioConfig()
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, master_seed=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        try:
            return _run_validate(cfg)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2

    _, study, trials_keyword = _STUDIES[args.command]
    kwargs = {}
    if args.trials is not None:
        if args.trials < 1:
            print("config error: --trials must be at least 1", file=sys.stderr)
            return 2
        kwargs[trials_keyword] = args.trials

    try:
        table = study(cfg, **kwargs)
    except lcrmod.FitFailureError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    text = _render_csv(table) if args.format == "csv" else _render_json(args.command, cfg, table)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
