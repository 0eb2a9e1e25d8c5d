import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from remcr import engine
from remcr import experiments as exp
from remcr.scenario import ConfigError, interference_threshold


def _rows_for(table, **match):
    idx = {h: i for i, h in enumerate(table.headers)}
    out = [
        row
        for row in table.rows
        if all(row[idx[k]] == v for k, v in match.items())
    ]
    return out, idx


class TestStudyCdf:
    def test_schema_and_blocks(self, base_cfg, cr):
        tab = exp.study_cdf(base_cfg, grid_sizes=(0.0, 25.0), n_trials=80, consts=cr)
        assert tab.headers == ("delta_m", "degradation_db", "cdf")
        deltas = sorted({r[0] for r in tab.rows})
        assert deltas == [0.0, 25.0]

    def test_cdf_monotone_and_saturating(self, base_cfg, cr):
        tab = exp.study_cdf(base_cfg, grid_sizes=(25.0,), n_trials=100, consts=cr)
        cdf = np.array([r[2] for r in tab.rows])
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[-1] == 1.0

    def test_perfect_map_saturates_at_buffer(self, base_cfg, cr):
        # the buffer threshold is on the grid, and with a perfect map the
        # degradation exceeds it with probability 0
        tab = exp.study_cdf(base_cfg, grid_sizes=(0.0,), n_trials=200, consts=cr)
        thresholds = np.array([r[1] for r in tab.rows])
        cdf = np.array([r[2] for r in tab.rows])
        at_buffer = np.searchsorted(thresholds, base_cfg.buffer_dB)
        assert thresholds[at_buffer] == base_cfg.buffer_dB
        assert cdf[at_buffer] == 1.0

    def test_perfect_map_never_exceeds_buffer(self, base_cfg, cr):
        tab = exp.study_cdf(base_cfg, grid_sizes=(0.0,), n_trials=150, consts=cr)
        assert tab.summary["p_exceed_buffer"]["0"] == 0.0

    def test_deterministic(self, base_cfg, cr):
        a = exp.study_cdf(base_cfg, grid_sizes=(50.0,), n_trials=60, consts=cr)
        b = exp.study_cdf(base_cfg, grid_sizes=(50.0,), n_trials=60, consts=cr)
        assert a == b


class TestDrawOnce:
    """Each study draws every trial once, however many sweep points it
    evaluates."""

    @pytest.fixture()
    def drawn(self, monkeypatch):
        trials = []
        draw = engine.draw_trials

        def counting(cfg, cr, block):
            block = list(block)
            trials.extend(block)
            return draw(cfg, cr, block)

        monkeypatch.setattr(engine, "draw_trials", counting)
        return trials

    def test_grid_tradeoff(self, base_cfg, cr, drawn):
        exp.study_grid_tradeoff(base_cfg, n_trials=25, consts=cr)
        assert sorted(drawn) == list(range(25))

    def test_backoff(self, base_cfg, cr, drawn):
        exp.study_backoff(base_cfg, n_trials=25, consts=cr)
        assert sorted(drawn) == list(range(25))

    def test_cdf(self, base_cfg, cr, drawn):
        exp.study_cdf(base_cfg, n_trials=25, consts=cr)
        assert sorted(drawn) == list(range(25))


class TestStudyGridTradeoff:
    def test_schema_and_bounds(self, base_cfg, cr):
        tab = exp.study_grid_tradeoff(
            base_cfg, dd_list=(100.0,), extra_buffer_list=(1.0, 3.0),
            n_trials=80, consts=cr,
        )
        assert tab.headers == ("dd_m", "extra_db", "delta_star_m")
        stars = {r[1]: r[2] for r in tab.rows}
        assert all(0.0 <= v <= exp.DELTA_SEARCH_CAP for v in stars.values())
        # a looser exceedance requirement tolerates a coarser map
        assert stars[1.0] <= stars[3.0]


def _sequential_grid_tradeoff(cfg, dd_list, extra_buffer_list, n_trials, cr):
    """study_grid_tradeoff's bisections one after another, one sweep a
    point: the loop the lockstep search replaced, kept as its oracle.
    Returns the rows and the (D_d, delta) points evaluated."""
    budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
    batches = list(engine.trial_batches(cfg, cr, n_trials))
    samples = {}

    def exceed(dd, delta, level_db):
        if (dd, delta) not in samples:
            samples[dd, delta] = engine.sweep(
                batches, n_trials, [(delta, dd)], lambda ev: ev.degradation(budget)
            )[0]
        return float(np.mean(samples[dd, delta] > level_db))

    rows = []
    for dd in dd_list:
        for extra in extra_buffer_list:
            level = cfg.buffer_dB + float(extra)
            if exceed(dd, exp.DELTA_SEARCH_CAP, level) <= 0.05:
                rows.append((float(dd), float(extra), float(exp.DELTA_SEARCH_CAP)))
                continue
            lo, hi = 0, exp.DELTA_SEARCH_CAP
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if exceed(dd, mid, level) <= 0.05:
                    lo = mid
                else:
                    hi = mid
            rows.append((float(dd), float(extra), float(lo)))
    return tuple(rows), set(samples)


class TestGridTradeoffLockstep:
    """The bisections run in lockstep against the sequential loop."""

    # capped: the rows whose constraint never binds, so the result is the cap
    @pytest.mark.parametrize("seed, activity_p, n_trials, dd_list, extras, capped", [
        (1, 0.1, 30, (50.0, 100.0, 200.0), (1.0, 2.0, 3.0), 0),
        (2, 0.05, 60, (100.0, 100.0, 1000.0), (0.1, 10.0), 0),
        (3, 1.0, 12, (50.0, 1000.0), (0.5, 3.0), 0),
        (4, 0.3, 1, (200.0, 1000.0, 200.0), (1.0, 10.0), 1),
        (5, 0.1, 45, (25.0, 75.0), (10.0, 0.1, 5.0), 0),
        (6, 0.5, 7, (1000.0,), (2.0,), 0),
        (7, 0.2, 20, (100.0, 50.0, 100.0, 50.0), (3.0, 0.2), 0),
    ])
    def test_matches_sequential_bisections(
        self, base_cfg, cr, monkeypatch, seed, activity_p, n_trials, dd_list, extras, capped
    ):
        cfg = dataclasses.replace(base_cfg, master_seed=seed, activity_p=activity_p)
        want, want_points = _sequential_grid_tradeoff(cfg, dd_list, extras, n_trials, cr)
        steps = []
        sweep = exp.sweep

        def counting(batches, n, points, reduce):
            steps.append([(dd, delta) for delta, dd in points])
            return sweep(batches, n, points, reduce)

        monkeypatch.setattr(exp, "sweep", counting)
        got = exp.study_grid_tradeoff(
            cfg, dd_list=dd_list, extra_buffer_list=extras, n_trials=n_trials, consts=cr
        )
        assert got.rows == want
        points = [p for step in steps for p in step]
        # each point once, the sequential loop's points, one sweep a step
        assert len(points) == len(set(points))
        assert set(points) == want_points
        assert len(steps) <= 1 + math.ceil(math.log2(exp.DELTA_SEARCH_CAP))
        assert sum(row[2] == exp.DELTA_SEARCH_CAP for row in got.rows) == capped

    def test_kept_links_bound(self, base_cfg, cr, monkeypatch):
        # a default-density block holds about 19 000 padded links: the
        # second of 600 trials' twelve blocks crosses the bound
        monkeypatch.setattr(exp, "MAX_KEPT_LINKS", 30_000)
        drawn = []
        draw = engine.draw_trials
        monkeypatch.setattr(engine, "draw_trials", lambda *a: drawn.append(a) or draw(*a))
        with pytest.raises(ConfigError, match=r"^the first 104 of 600 trials hold \d+ padded links, "
                           r"beyond the 30000 grid-tradeoff keeps in memory$"):
            exp.study_grid_tradeoff(base_cfg, n_trials=600, consts=cr)
        assert len(drawn) == 2

    def test_kept_links_budget(self, base_cfg, cr):
        # a TrialBatch holds 41 bytes a padded link; 256 MiB of them
        batch = engine.draw_trials(base_cfg, cr, range(3))
        held = sum(getattr(batch, name).nbytes
                   for name in ("active", "xy", "shadows", "fresh", "true_powers"))
        assert held == 41 * batch.active.size
        assert exp.MAX_KEPT_LINKS == 2**28 // 41


class TestBlockSize:
    """A study's table does not depend on how trial_batches blocks trials."""

    @pytest.mark.parametrize("study", [exp.study_cdf, exp.study_backoff, exp.study_grid_tradeoff])
    def test_tables_identical(self, base_cfg, cr, monkeypatch, study):
        tables = []
        # blocks of TRIAL_BLOCK trials, then all 60 trials in one block
        for links in (1, 2**40):
            monkeypatch.setattr(engine, "BLOCK_LINKS", links)
            tables.append(study(base_cfg, n_trials=60, consts=cr))
        assert tables[0] == tables[1]


class TestStudyBackoff:
    def test_perfect_map_keeps_full_buffer(self, base_cfg, cr):
        tab = exp.study_backoff(
            base_cfg, dd_list=(100.0,), delta_list=(0.0,), n_trials=150, consts=cr
        )
        assert tab.headers == ("dd_m", "delta_m", "buffer_star_db")
        assert tab.rows[0][2] == base_cfg.buffer_dB

    def test_nonincreasing_in_grid_size(self, base_cfg, cr):
        tab = exp.study_backoff(
            base_cfg, dd_list=(100.0,), delta_list=(10.0, 25.0, 50.0),
            n_trials=400, consts=cr,
        )
        stars = [r[2] for r in tab.rows]
        assert stars[0] >= stars[1] >= stars[2]


class TestStudyLcrAed:
    def test_schema_and_tail_ordering(self, base_cfg, cr):
        tab = exp.study_lcr(base_cfg, n_profile_trials=50, mc_runs=2, consts=cr)
        assert tab.headers == (
            "fading", "profile", "threshold_db", "lcr_analytic_norm", "lcr_mc_norm"
        )
        assert len(tab.rows) == 4 * 231
        mean_db = 10.0 * np.log10(tab.summary["profiles"]["dominant"]["mean"])
        for fading in ("rayleigh", "rician"):
            dom, idx = _rows_for(tab, fading=fading, profile="dominant")
            nod, _ = _rows_for(tab, fading=fading, profile="no_dominant")
            thr = np.array([r[idx["threshold_db"]] for r in dom])
            a_dom = np.array([r[idx["lcr_analytic_norm"]] for r in dom])
            a_nod = np.array([r[idx["lcr_analytic_norm"]] for r in nod])
            tail = thr >= mean_db + 1.0
            # a flatter profile produces a steadier aggregate: fewer
            # excursions well above the mean
            assert np.all(a_nod[tail] <= a_dom[tail] * (1.0 + 1e-12))

    def test_aed_schema_and_analytic_monotone(self, base_cfg, cr):
        tab = exp.study_aed(base_cfg, n_profile_trials=50, mc_runs=2, consts=cr)
        assert tab.headers == (
            "fading", "profile", "threshold_db", "aed_analytic_s", "aed_mc_s"
        )
        rows, idx = _rows_for(tab, fading="rayleigh", profile="dominant")
        aed = np.array([r[idx["aed_analytic_s"]] for r in rows])
        finite = np.isfinite(aed)
        assert np.all(np.diff(aed[finite]) < 0.0)

    def test_rician_k_follows_config(self, base_cfg, cr):
        # moment-match admissibility tightens as K drops toward 0 (the bound
        # (1+3K)(1+K)/(1+2K)^2 rises), so pick a K above the default
        cfg = dataclasses.replace(base_cfg, K_dB=13.0)
        tab = exp.study_lcr(cfg, n_profile_trials=40, mc_runs=2, consts=cr)
        assert tab.summary["k_db_rician"] == 13.0

    def test_profile_stage_memory_does_not_grow_with_trials(self, base_cfg, cr):
        exp.study_lcr(base_cfg, n_profile_trials=20, mc_runs=1, consts=cr)  # warm
        peaks = []
        for n in (1000, 3000):
            tracemalloc.start()
            try:
                exp.study_lcr(base_cfg, n_profile_trials=n, mc_runs=1, consts=cr)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # kept as a list, the 2 000 extra profiles would add about 4 MB
        assert peaks[1] < peaks[0] + 256 * 1024

    def test_deterministic(self, base_cfg, cr):
        a = exp.study_lcr(base_cfg, n_profile_trials=40, mc_runs=2, consts=cr)
        b = exp.study_lcr(base_cfg, n_profile_trials=40, mc_runs=2, consts=cr)
        assert a.rows == b.rows
