import dataclasses
import tracemalloc

import numpy as np
import pytest

from remcr import engine
from remcr import experiments as exp


def _rows_for(table, **match):
    idx = {h: i for i, h in enumerate(table.headers)}
    out = [
        row
        for row in table.rows
        if all(row[idx[k]] == v for k, v in match.items())
    ]
    return out, idx


class TestStudyCdf:
    def test_schema_and_blocks(self, base_cfg, consts):
        tab = exp.study_cdf(base_cfg, grid_sizes=(0.0, 25.0), n_trials=80, consts=consts)
        assert tab.headers == ("delta_m", "degradation_db", "cdf")
        deltas = sorted({r[0] for r in tab.rows})
        assert deltas == [0.0, 25.0]

    def test_cdf_monotone_and_saturating(self, base_cfg, consts):
        tab = exp.study_cdf(base_cfg, grid_sizes=(25.0,), n_trials=100, consts=consts)
        cdf = np.array([r[2] for r in tab.rows])
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[-1] == 1.0

    def test_perfect_map_saturates_at_buffer(self, base_cfg, consts):
        # the buffer threshold is on the grid, and with a perfect map the
        # degradation exceeds it with probability 0
        tab = exp.study_cdf(base_cfg, grid_sizes=(0.0,), n_trials=200, consts=consts)
        thresholds = np.array([r[1] for r in tab.rows])
        cdf = np.array([r[2] for r in tab.rows])
        at_buffer = np.searchsorted(thresholds, base_cfg.buffer_dB)
        assert thresholds[at_buffer] == base_cfg.buffer_dB
        assert cdf[at_buffer] == 1.0

    def test_perfect_map_never_exceeds_buffer(self, base_cfg, consts):
        tab = exp.study_cdf(base_cfg, grid_sizes=(0.0,), n_trials=150, consts=consts)
        assert tab.summary["p_exceed_buffer"]["0"] == 0.0

    def test_deterministic(self, base_cfg, consts):
        a = exp.study_cdf(base_cfg, grid_sizes=(50.0,), n_trials=60, consts=consts)
        b = exp.study_cdf(base_cfg, grid_sizes=(50.0,), n_trials=60, consts=consts)
        assert a == b


class TestDrawOnce:
    """Each study draws every trial once, however many sweep points it
    evaluates."""

    @pytest.fixture()
    def drawn(self, monkeypatch):
        trials = []
        draw = engine.draw_trials

        def counting(cfg, consts, block):
            block = list(block)
            trials.extend(block)
            return draw(cfg, consts, block)

        monkeypatch.setattr(engine, "draw_trials", counting)
        return trials

    def test_grid_tradeoff(self, base_cfg, consts, drawn):
        exp.study_grid_tradeoff(base_cfg, n_trials=25, consts=consts)
        assert sorted(drawn) == list(range(25))

    def test_backoff(self, base_cfg, consts, drawn):
        exp.study_backoff(base_cfg, n_trials=25, consts=consts)
        assert sorted(drawn) == list(range(25))

    def test_cdf(self, base_cfg, consts, drawn):
        exp.study_cdf(base_cfg, n_trials=25, consts=consts)
        assert sorted(drawn) == list(range(25))


class TestStudyGridTradeoff:
    def test_schema_and_bounds(self, base_cfg, consts):
        tab = exp.study_grid_tradeoff(
            base_cfg, dd_list=(100.0,), extra_buffer_list=(1.0, 3.0),
            n_trials=80, consts=consts,
        )
        assert tab.headers == ("dd_m", "extra_db", "delta_star_m")
        stars = {r[1]: r[2] for r in tab.rows}
        assert all(0.0 <= v <= exp.DELTA_SEARCH_CAP for v in stars.values())
        # a looser exceedance requirement tolerates a coarser map
        assert stars[1.0] <= stars[3.0]


class TestStudyBackoff:
    def test_perfect_map_keeps_full_buffer(self, base_cfg, consts):
        tab = exp.study_backoff(
            base_cfg, dd_list=(100.0,), delta_list=(0.0,), n_trials=150, consts=consts
        )
        assert tab.headers == ("dd_m", "delta_m", "buffer_star_db")
        assert tab.rows[0][2] == base_cfg.buffer_dB

    def test_nonincreasing_in_grid_size(self, base_cfg, consts):
        tab = exp.study_backoff(
            base_cfg, dd_list=(100.0,), delta_list=(10.0, 25.0, 50.0),
            n_trials=400, consts=consts,
        )
        stars = [r[2] for r in tab.rows]
        assert stars[0] >= stars[1] >= stars[2]


class TestStudyLcrAed:
    def test_schema_and_tail_ordering(self, base_cfg, consts):
        tab = exp.study_lcr(base_cfg, n_profile_trials=50, mc_runs=2, consts=consts)
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

    def test_aed_schema_and_analytic_monotone(self, base_cfg, consts):
        tab = exp.study_aed(base_cfg, n_profile_trials=50, mc_runs=2, consts=consts)
        assert tab.headers == (
            "fading", "profile", "threshold_db", "aed_analytic_s", "aed_mc_s"
        )
        rows, idx = _rows_for(tab, fading="rayleigh", profile="dominant")
        aed = np.array([r[idx["aed_analytic_s"]] for r in rows])
        finite = np.isfinite(aed)
        assert np.all(np.diff(aed[finite]) < 0.0)

    def test_rician_k_follows_config(self, base_cfg, consts):
        # moment-match admissibility tightens as K drops toward 0 (the bound
        # (1+3K)(1+K)/(1+2K)^2 rises), so pick a K above the default
        cfg = dataclasses.replace(base_cfg, K_dB=13.0)
        tab = exp.study_lcr(cfg, n_profile_trials=40, mc_runs=2, consts=consts)
        assert tab.summary["k_db_rician"] == 13.0

    def test_profile_stage_memory_does_not_grow_with_trials(self, base_cfg, consts):
        exp.study_lcr(base_cfg, n_profile_trials=20, mc_runs=1, consts=consts)  # warm
        peaks = []
        for n in (1000, 3000):
            tracemalloc.start()
            try:
                exp.study_lcr(base_cfg, n_profile_trials=n, mc_runs=1, consts=consts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # kept as a list, the 2 000 extra profiles would add about 4 MB
        assert peaks[1] < peaks[0] + 256 * 1024

    def test_deterministic(self, base_cfg, consts):
        a = exp.study_lcr(base_cfg, n_profile_trials=40, mc_runs=2, consts=consts)
        b = exp.study_lcr(base_cfg, n_profile_trials=40, mc_runs=2, consts=consts)
        assert a.rows == b.rows
