"""Acceptance gate for the admission simulator and crossing-rate toolkit.

Each test checks one numbered acceptance criterion and prints exactly one
verdict line ("PASS criterion N: ..." or "FAIL criterion N: ...") with the
measured values before asserting, so the complete scorecard stays visible
in the pytest log.  The numeric targets are fixed; a failing line means the
pinned model genuinely does not reach the target, not that the bound is
flaky.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from remcr.allocation import select_extreme_profiles
from remcr.cli import run
from remcr.engine import degradation_samples, trial_profile
from remcr.experiments import study_backoff, study_lcr
from remcr.fadingsim import generate_fading
from remcr.lcr import (
    FitFailureError,
    aggregate_acf,
    fit_ncx2,
    lcr_rician,
    rician_component_moments,
)
from remcr.scenario import derive_stream, interference_threshold


def _verdict(num, ok, detail):
    line = "%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def extremes(base_cfg, cr):
    profiles = [trial_profile(base_cfg, cr, t) for t in range(1000)]
    return select_extreme_profiles(profiles)


@pytest.fixture(scope="module")
def lcr_table(base_cfg, cr):
    # 96 merged runs per curve: at the rate-0.01 inspection floor the count
    # noise is about 5 percent, comfortably inside the 10/15 percent caps.
    return study_lcr(base_cfg, n_profile_trials=1000, mc_runs=96, consts=cr)


def test_criterion_01_threshold_identity(base_cfg):
    budget = interference_threshold(base_cfg.buffer_dB, base_cfg.noise_power)
    exact = base_cfg.noise_power * (10.0 ** (base_cfg.buffer_dB / 10.0) - 1.0)
    budget_db = 10.0 * math.log10(budget)
    ok = (
        math.isclose(budget, exact, rel_tol=1e-12)
        and math.isclose(budget, 0.5849, rel_tol=5e-4)
        and abs(budget_db - (-2.33)) <= 0.005
    )
    _verdict(
        1,
        ok,
        "2 dB buffer budget %.6f linear, %.4f dB (targets 0.5849 and "
        "-2.33 +/- 0.005 dB)" % (budget, budget_db),
    )


def test_criterion_02_classical_reductions():
    f_d = 25.0
    grid = np.geomspace(0.01, 10.0, 181)

    worst_ray = 0.0
    for rate in (0.25, 1.0, 4.0):
        # one Rayleigh path of power 1/rate: the K = 0 fit is exponential,
        # shape dof/2 = 1 and rate scale/2
        got = lcr_rician(fit_ncx2([1.0 / rate], 0.0), f_d, grid / rate)
        want = math.sqrt(2.0 * math.pi) * f_d * np.sqrt(grid) * np.exp(-grid)
        worst_ray = max(worst_ray, float(np.max(np.abs(got / want - 1.0))))

    worst_ric = 0.0
    for k in (0.1, 1.0, 10.0):
        got = lcr_rician(fit_ncx2([1.0], k), f_d, grid)
        arg = 2.0 * np.sqrt(k * (k + 1.0) * grid)
        want = (
            np.sqrt(2.0 * np.pi * (k + 1.0) * grid)
            * f_d
            * np.exp(-k - (k + 1.0) * grid + arg)
            * special.i0e(arg)
        )
        worst_ric = max(worst_ric, float(np.max(np.abs(got / want - 1.0))))

    ok = worst_ray <= 1e-10 and worst_ric <= 1e-6
    _verdict(
        2,
        ok,
        "single-path closed forms: exponential-power rel err %.2e (cap 1e-10), "
        "offset-power rel err %.2e (cap 1e-6)" % (worst_ray, worst_ric),
    )


def test_criterion_03_mc_agreement(lcr_table):
    caps = {"rayleigh": 0.10, "rician": 0.15}
    worst = {"rayleigh": 0.0, "rician": 0.0}
    used = {"rayleigh": 0, "rician": 0}
    peak = {}  # fading -> (analytic, gap) at the tallest analytic point
    for fading, _profile, _thr_db, analytic, mc in lcr_table.rows:
        if not (math.isfinite(analytic) and analytic >= 0.01):
            continue
        gap = abs(mc / analytic - 1.0) if math.isfinite(mc) else math.inf
        worst[fading] = max(worst[fading], gap)
        used[fading] += 1
        if fading not in peak or analytic > peak[fading][0]:
            peak[fading] = (analytic, gap)
    ok = all(worst[f] <= caps[f] for f in caps) and all(used[f] > 0 for f in caps)
    _verdict(
        3,
        ok,
        "normalized crossing rate, MC vs analytic where rate >= 0.01: "
        "rayleigh worst %.3f, %.3f at the peak, %d points (cap 0.10); "
        "rician worst %.3f, %.3f at the peak, %d points (cap 0.15)"
        % (
            worst["rayleigh"],
            peak.get("rayleigh", (0.0, math.nan))[1],
            used["rayleigh"],
            worst["rician"],
            peak.get("rician", (0.0, math.nan))[1],
            used["rician"],
        ),
    )


def test_criterion_04_peak_and_tail(base_cfg, extremes):
    f_d = base_cfg.f_D
    parts = []
    ok = True
    for name, prof in zip(("dominant", "no_dominant"), extremes):
        fit = fit_ncx2(prof, 0.0)  # Rayleigh: the gamma law of shape dof/2, rate scale/2
        shape, rate = 0.5 * fit.dof, 0.5 * fit.scale
        mean_db = 10.0 * math.log10(float(np.sum(prof.weights)))
        peak_db = 10.0 * math.log10((shape - 0.5) / rate)
        dense = np.geomspace(
            10.0 ** ((mean_db - 12.0) / 10.0), 10.0 ** ((mean_db + 6.0) / 10.0), 6001
        )
        argmax_db = 10.0 * math.log10(
            float(dense[np.argmax(lcr_rician(fit, f_d, dense))])
        )
        tail = (
            float(lcr_rician(fit, f_d, np.array([10.0 ** ((mean_db + 5.0) / 10.0)]))[0])
            / f_d
        )
        good = (
            abs(peak_db - mean_db) <= 1.0
            and abs(argmax_db - mean_db) <= 1.0
            and tail <= 1e-3
        )
        ok = ok and good
        parts.append(
            "%s peak %+.3f dB vs mean %+.3f dB, rate/f_D %.1e at mean+5 dB"
            % (name, peak_db, mean_db, tail)
        )
    _verdict(4, ok, "; ".join(parts) + " (caps 1 dB and 1e-3)")


def test_criterion_05_gamma_ks(base_cfg, extremes):
    caps = {"dominant": 0.05, "no_dominant": 0.02}
    parts = []
    ok = True
    for name, prof in zip(("dominant", "no_dominant"), extremes):
        w = prof.weights
        fit = fit_ncx2(w, 0.0)
        shape, rate = 0.5 * fit.dof, 0.5 * fit.scale
        stream = derive_stream(base_cfg.master_seed, 0, "acceptance-ks-" + name)
        total, chunk = 1_000_000, 20_000
        samples = np.empty(total)
        for start in range(0, total, chunk):
            samples[start : start + chunk] = (
                stream.standard_exponential((chunk, w.size)) @ w
            )
        samples.sort()
        cdf = stats.gamma.cdf(samples, shape, scale=1.0 / rate)
        hi = np.arange(1, total + 1) / total
        ks = float(max(np.max(np.abs(cdf - hi)), np.max(np.abs(cdf - hi + 1.0 / total))))
        good = ks <= caps[name]
        ok = ok and good
        parts.append("%s KS %.4f (cap %.2f)" % (name, ks, caps[name]))
    _verdict(5, ok, "1e6-sample fit distance: " + "; ".join(parts))


def test_criterion_06_map_resolution_cdf(base_cfg, cr):
    deltas = (1.0, 25.0, 50.0, 100.0)
    n_trials = 2000
    samp = {
        d: degradation_samples(replace(base_cfg, delta_grid=d), n_trials, cr=cr)
        for d in deltas
    }
    top = max(float(s.max()) for s in samp.values())
    grid = np.linspace(0.0, top, 501)
    exceed = {d: np.mean(samp[d][None, :] > grid[:, None], axis=1) for d in deltas}
    order_ok = all(
        bool(np.all(exceed[b] >= exceed[a])) for a, b in zip(deltas, deltas[1:])
    )
    medians = [float(np.median(samp[d])) for d in deltas]
    median_ok = all(b > a for a, b in zip(medians, medians[1:]))
    p50 = float(np.mean(samp[50.0] > 3.0))
    p100 = float(np.mean(samp[100.0] > 3.0))
    band50 = 0.04 <= p50 <= 0.16
    band100 = 0.15 <= p100 <= 0.45
    ok = order_ok and median_ok and band50 and band100
    _verdict(
        6,
        ok,
        "coarser map worsens degradation (ordering %s, medians %s dB); "
        "P(>3 dB) = %.3f at 50 m (target [0.04, 0.16]) and %.3f at 100 m "
        "(target [0.15, 0.45]) over %d trials"
        % (
            "holds" if order_ok and median_ok else "VIOLATED",
            "/".join("%.2f" % m for m in medians),
            p50,
            p100,
            n_trials,
        ),
    )


def test_criterion_07_backoff(base_cfg, cr):
    dd_list = (50.0, 100.0, 200.0)
    delta_list = (10.0, 25.0, 50.0)
    table = study_backoff(base_cfg, dd_list, delta_list, n_trials=2000, consts=cr)
    stars = {(dd, d): b for dd, d, b in table.rows}
    mono_delta = all(
        stars[(dd, 10.0)] > stars[(dd, 25.0)] > stars[(dd, 50.0)] for dd in dd_list
    )
    mono_dd = all(
        stars[(50.0, d)] < stars[(100.0, d)] < stars[(200.0, d)] for d in delta_list
    )
    spot = stars[(100.0, 25.0)]
    band = 0.7 <= spot <= 1.4
    ok = mono_delta and mono_dd and band
    _verdict(
        7,
        ok,
        "usable planning buffer strictly decreasing in grid size (%s) and "
        "strictly increasing in decorrelation distance (%s); value at "
        "(grid 25 m, decorrelation 100 m) = %.2f dB (target [0.7, 1.4])"
        % (mono_delta, mono_dd, spot),
    )


def test_criterion_08_acf_identity(base_cfg):
    weights = np.array([0.2, 0.5, 0.3])
    f_d = base_cfg.f_D
    dt = 1.0 / (64.0 * f_d)
    max_lag = 32  # lag times f_D spans [0, 0.5]
    n_runs = 12
    acc = np.zeros(max_lag + 1)
    for run_idx in range(n_runs):
        stream = derive_stream(base_cfg.master_seed, run_idx, "acceptance-acf")
        series = generate_fading(stream, weights, 0.0, f_d, dt, 400.0 / f_d)
        x = series.samples - series.samples.mean()
        denom = float(x @ x)
        acc += np.array(
            [float(x[: x.size - lag] @ x[lag:]) / denom for lag in range(max_lag + 1)]
        )
    emp = acc / n_runs
    tau = np.arange(max_lag + 1) * dt
    ideal = aggregate_acf(weights, f_d, tau)
    dev = float(np.max(np.abs(emp - ideal)))
    ok = dev <= 0.03
    _verdict(
        8,
        ok,
        "aggregate autocorrelation vs squared-Bessel ideal: max deviation "
        "%.4f (cap 0.03) for lag*f_D <= 0.5 over %d pooled runs" % (dev, n_runs),
    )


def test_criterion_09_moment_fit_roundtrip():
    k = 10.0
    mean1, var1, mu31 = rician_component_moments(k)
    gen = np.random.default_rng(90210)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(3, 40))
        w = gen.uniform(0.5, 1.5, size=n)
        fit = fit_ncx2(w, k)
        targets = (
            mean1 * float(np.sum(w)),
            var1 * float(np.sum(w**2)),
            mu31 * float(np.sum(w**3)),
        )
        got = (
            (fit.dof + fit.noncentrality) / fit.scale,
            2.0 * (fit.dof + 2.0 * fit.noncentrality) / fit.scale**2,
            8.0 * (fit.dof + 3.0 * fit.noncentrality) / fit.scale**3,
        )
        worst = max(worst, max(abs(g / t - 1.0) for g, t in zip(got, targets)))
    try:
        fit_ncx2([1.0, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25], k)
        raised = False
    except FitFailureError:
        raised = True
    ok = worst <= 1e-9 and raised
    _verdict(
        9,
        ok,
        "moment roundtrip worst rel err %.2e over 100 admissible profiles "
        "(cap 1e-9); dominated profile raises fit failure: %s" % (worst, raised),
    )


def test_criterion_10_cli_determinism(tmp_path):
    sparse = tmp_path / "sparse.cfg"
    sparse.write_text("cr_density = 50\n")
    plain = tmp_path / "plain.cfg"
    plain.write_text("master_seed = 7\n")
    jobs = (
        ("cdf", ["cdf", "--config", str(plain), "--trials", "120"]),
        ("grid-tradeoff", ["grid-tradeoff", "--config", str(plain), "--trials", "60"]),
        ("backoff", ["backoff", "--config", str(plain), "--trials", "150"]),
        ("lcr", ["lcr", "--config", str(sparse), "--trials", "60"]),
        ("aed", ["aed", "--config", str(sparse), "--trials", "60", "--format", "json"]),
    )
    parts = []
    ok = True
    for name, argv in jobs:
        blobs = []
        code = 1
        for rep in range(2):
            out = tmp_path / ("%s_%d.out" % (name, rep))
            code = run(argv + ["--out", str(out)])
            blobs.append(out.read_bytes() if code == 0 else b"")
        same = code == 0 and len(blobs[0]) > 0 and blobs[0] == blobs[1]
        ok = ok and same
        parts.append(
            "%s %s (%d bytes)" % (name, "identical" if same else "DIFFERS", len(blobs[0]))
        )
    _verdict(10, ok, "repeat runs byte-identical: " + "; ".join(parts))
