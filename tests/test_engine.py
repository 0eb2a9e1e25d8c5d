import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remcr import engine
from remcr.channel import DB_TO_NAT
from remcr.engine import (
    TRIAL_BLOCK,
    TrialBatch,
    degradation_samples,
    draw_trials,
    evaluate,
    sweep,
    trial_batches,
    trial_profile,
)
from remcr.geometry import sample_placement
from remcr.rem import gudmundson_correlation, snap_points
from remcr.scenario import ConfigError, ScenarioConfig, derive_stream, interference_threshold


def _one_trial(cfg, cr, trial_index):
    """One trial drawn and estimated link by link on its own, the way the
    engine did before trials were batched: the oracle for bit-for-bit checks.

    Returns (est_sorted, true_sorted, clamped, degradation_db, critical).
    """
    place = derive_stream(cfg.master_seed, trial_index, "place")
    shadow = derive_stream(cfg.master_seed, trial_index, "shadow")
    rem = derive_stream(cfg.master_seed, trial_index, "rem")
    crs = sample_placement(place, cfg)
    n = len(crs)
    shadows = DB_TO_NAT * shadow.normal(0.0, cfg.sigma_dB, size=n) if n else np.empty(0)
    true = cr * np.exp(shadows) * np.hypot(crs[:, 0], crs[:, 1]) ** (-cfg.gamma_pl)
    snapped = snap_points(crs, cfg.delta_grid)
    rx = snap_points(np.zeros(2), cfg.delta_grid)
    d_tx = np.sqrt(np.sum((crs - snapped) ** 2, axis=1)) if n else np.empty(0)
    rho = gudmundson_correlation(d_tx, np.full(n, math.hypot(*rx)), cfg.D_d)
    fresh = DB_TO_NAT * rem.normal(0.0, cfg.sigma_dB, size=n) if n else np.empty(0)
    shadow_est = rho * shadows + np.sqrt(1.0 - rho * rho) * fresh
    r_hat = np.sqrt(np.sum((snapped - np.asarray(rx)) ** 2, axis=1)) if n else np.empty(0)
    clamped = r_hat == 0.0
    r_hat = np.where(clamped, cfg.R0, r_hat)
    est = cr * np.exp(shadow_est) * r_hat ** (-cfg.gamma_pl)
    order = np.argsort(est, kind="stable")
    est, true = est[order], true[order]

    budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
    k = int(np.searchsorted(np.cumsum(est), budget, side="right")) if n else 0
    total = float(np.sum(true[:k]))
    degradation = 10.0 * math.log10((total + cfg.noise_power) / cfg.noise_power)
    bad = np.nonzero(np.cumsum(true) > budget)[0]
    critical = float(np.cumsum(est)[bad[0]]) if len(bad) else math.inf
    return est, true, int(np.count_nonzero(clamped)), degradation, critical


def _row(ev, row):
    """A trial's candidate links in an evaluation, without padding:
    (est_sorted, true_sorted)."""
    n = int(ev.batch.active[row].sum())
    return ev.est_sorted[row, :n], ev.true_sorted[row, :n]


def _trial(cfg, cr, trial_index):
    """One trial drawn and evaluated alone, as a batch of one."""
    return _row(evaluate(draw_trials(cfg, cr, [trial_index]), cfg.delta_grid, cfg.D_d), 0)


def _critical_budgets(cfg, cr, n_trials):
    true_cap = interference_threshold(cfg.buffer_dB, cfg.noise_power)
    return sweep(
        trial_batches(cfg, cr, n_trials), n_trials, [(cfg.delta_grid, cfg.D_d)],
        lambda ev: ev.critical_budgets(true_cap),
    )[0]


def _assert_matches_one_trial(cfg, cr, trials):
    """evaluate over one batch of the trials equals each trial on its own,
    through the oracle and through a one-trial batch, bit for bit.  Returns
    the number of clamped links, counted by the oracle."""
    budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
    ev = evaluate(draw_trials(cfg, cr, trials), cfg.delta_grid, cfg.D_d)
    degradation = ev.degradation(budget)
    critical = ev.critical_budgets(budget)
    clamped = 0
    for row, i in enumerate(trials):
        est, true, n_clamped, deg, crit = _one_trial(cfg, cr, i)
        for got_est, got_true in (_row(ev, row), _trial(cfg, cr, i)):
            assert np.array_equal(got_est, est)
            assert np.array_equal(got_true, true)
        assert degradation[row] == deg
        assert critical[row] == crit
        clamped += n_clamped
    return clamped


class TestBatchEquivalence:
    @pytest.mark.parametrize("D_d", (50.0, 200.0))
    # at 79 m and 361 m, np.hypot of the snapped receiver differs from
    # math.hypot by one ulp; the receiver's displacement must be the latter
    @pytest.mark.parametrize("delta", (0.0, 1.0, 25.0, 79.0, 100.0, 361.0, 400.0))
    def test_batch_matches_one_trial(self, base_cfg, cr, delta, D_d):
        cfg = dataclasses.replace(base_cfg, delta_grid=delta, D_d=D_d)
        clamped = _assert_matches_one_trial(cfg, cr, range(2 * TRIAL_BLOCK + 3))
        if delta == 400.0:
            # the receiver's cell is 400 m wide: transmitters in it snap
            # onto the receiver and their distance is clamped
            assert clamped > 0

    def test_sparse_trials_with_no_transmitter(self, cr):
        cfg = ScenarioConfig(cr_density=1.0, delta_grid=25.0)  # 3 transmitters
        counts = draw_trials(cfg, cr, range(40)).active.sum(axis=1)
        assert np.any(counts == 0) and np.any(counts > 0)
        _assert_matches_one_trial(cfg, cr, range(40))

    def test_block_without_any_transmitter(self, cr):
        cfg = ScenarioConfig(cr_density=0.0, delta_grid=25.0)
        ev = evaluate(draw_trials(cfg, cr, range(5)), 25.0, cfg.D_d)
        budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
        assert ev.est_sorted.shape == (5, 0)
        assert np.array_equal(ev.degradation(budget), np.zeros(5))
        assert np.all(np.isinf(ev.critical_budgets(budget)))
        assert [len(p) for p in ev.profiles(budget)] == [0] * 5

    def test_studies_match_one_trial_across_blocks(self, base_cfg, cr):
        cfg = dataclasses.replace(base_cfg, delta_grid=50.0)
        n = 2 * TRIAL_BLOCK + 5
        oracle = [_one_trial(cfg, cr, i) for i in range(n)]
        assert np.array_equal(degradation_samples(cfg, n, cr), [o[3] for o in oracle])
        assert np.array_equal(_critical_budgets(cfg, cr, n), [o[4] for o in oracle])

    def test_draws_independent_of_the_sweep_point(self, base_cfg, cr):
        a = draw_trials(dataclasses.replace(base_cfg, delta_grid=100.0, D_d=50.0), cr, [4, 9])
        b = draw_trials(base_cfg, cr, [4, 9])
        for name in ("active", "xy", "shadows", "fresh", "true_powers"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestDrawCandidates:
    """A trial's candidate links: its row of evaluate(draw_trials(...))."""

    def test_deterministic_per_trial(self, base_cfg, cr):
        a = evaluate(draw_trials(base_cfg, cr, [3]), base_cfg.delta_grid, base_cfg.D_d)
        b = evaluate(draw_trials(base_cfg, cr, [3]), base_cfg.delta_grid, base_cfg.D_d)
        assert np.array_equal(a.est_sorted, b.est_sorted)
        assert np.array_equal(a.true_sorted, b.true_sorted)

    def test_trials_differ(self, base_cfg, cr):
        a = _trial(base_cfg, cr, 0)
        b = _trial(base_cfg, cr, 1)
        assert len(a[0]) != len(b[0]) or not np.array_equal(a[0], b[0])

    def test_estimates_sorted_ascending(self, base_cfg, cr):
        ev = evaluate(draw_trials(base_cfg, cr, [5]), base_cfg.delta_grid, base_cfg.D_d)
        est, true = _row(ev, 0)
        assert np.all(np.diff(est) >= 0.0)
        assert len(est) == len(true) == ev.batch.active[0].sum()

    def test_perfect_map_estimates_equal_truth(self, base_cfg, cr):
        est, true = _trial(base_cfg, cr, 2)
        assert np.allclose(est, true, rtol=1e-12)
        assert _one_trial(base_cfg, cr, 2)[2] == 0  # no clamped link

    def test_coarse_map_estimates_differ(self, base_cfg, cr):
        cfg = dataclasses.replace(base_cfg, delta_grid=50.0)
        est, true = _trial(cfg, cr, 2)
        assert not np.allclose(est, true, rtol=1e-3)


class TestTrialProfile:
    def test_admission_is_maximal_prefix(self, base_cfg, cr):
        cfg = dataclasses.replace(base_cfg, delta_grid=25.0)
        budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
        for i in range(10):
            prof = trial_profile(cfg, cr, i)
            est, _ = _trial(cfg, cr, i)
            k = len(prof)
            assert np.sum(prof.est_weights) <= budget * (1.0 + 1e-12)
            if k < len(est):
                assert np.sum(est[: k + 1]) > budget

    def test_buffer_override(self, base_cfg, cr):
        small = trial_profile(dataclasses.replace(base_cfg, buffer_dB=0.5), cr, 0)
        full = trial_profile(base_cfg, cr, 0)
        assert len(small) <= len(full)
        assert np.sum(small.est_weights) <= interference_threshold(0.5, base_cfg.noise_power)


class TestDegradationSamples:
    def test_shape_and_range(self, base_cfg, cr):
        samples = degradation_samples(base_cfg, 50, cr)
        assert samples.shape == (50,)
        assert np.all(samples >= 0.0)
        assert np.all(samples <= base_cfg.buffer_dB + 1e-9)  # perfect map

    def test_matches_trial_profiles(self, base_cfg, cr):
        cfg = dataclasses.replace(base_cfg, delta_grid=50.0)
        samples = degradation_samples(cfg, 8, cr)
        for i in range(8):
            total = float(np.sum(trial_profile(cfg, cr, i).weights))
            expected = 10.0 * math.log10((total + cfg.noise_power) / cfg.noise_power)
            assert np.isclose(samples[i], expected, rtol=1e-12)


class TestCriticalBudgets:
    def test_threshold_behavior(self, base_cfg, cr):
        cfg = dataclasses.replace(base_cfg, delta_grid=25.0)
        true_cap = interference_threshold(cfg.buffer_dB, cfg.noise_power)
        crits = _critical_budgets(cfg, cr, 12)
        for i, crit in enumerate(crits):
            est, true = _trial(cfg, cr, i)
            cum_est = np.cumsum(est)
            cum_true = np.cumsum(true)
            if np.isinf(crit):
                # even admitting everyone stays within the true cap
                assert cum_true[-1] <= true_cap
                continue
            # an estimated budget just below the critical value keeps the
            # realized sum within the cap; at the critical value it breaks
            for budget, should_violate in ((crit * (1.0 - 1e-9), False), (crit, True)):
                k = int(np.searchsorted(cum_est, budget, side="right"))
                realized = cum_true[k - 1] if k > 0 else 0.0
                assert (realized > true_cap) == should_violate

    def test_perfect_map_never_critical(self, base_cfg, cr):
        crits = _critical_budgets(base_cfg, cr, 12)
        budget = interference_threshold(base_cfg.buffer_dB, base_cfg.noise_power)
        # with estimates equal to truth the violation point is past the
        # operating budget whenever it exists at all
        assert np.all(crits > budget)


class TestSharedGeometry:
    def test_sweep_equals_one_evaluate_per_point(self, base_cfg, cr, monkeypatch):
        # at 79 m and 361 m the snapped receiver's np.hypot is one ulp off
        # math.hypot; at 400 m links in the receiver's cell are clamped
        deltas, dds = (0.0, 25.0, 79.0, 361.0, 400.0), (50.0, 100.0, 200.0)
        # study_backoff's order: each grid size recurs among the points
        points = [(delta, dd) for dd in dds for delta in deltas]
        n = 2 * TRIAL_BLOCK + 3
        batches = list(trial_batches(base_cfg, cr, n))
        calls = []
        estimate_links = engine.estimate_links
        monkeypatch.setattr(engine, "estimate_links", lambda *a: calls.append(a) or estimate_links(*a))
        seen = []

        def capture(ev):
            seen.append(ev)
            return np.full(len(ev.batch), len(seen) - 1.0)

        out = sweep(batches, n, points, capture)
        # the geometry of a grid size is computed once for all its D_d
        assert len(calls) == len(batches) * len(deltas)
        monkeypatch.undo()
        assert len(seen) == len(batches) * len(points)
        for values, (delta, dd) in zip(out, points):
            for batch in batches:
                index = values[batch.trials]
                assert np.all(index == index[0])
                got, want = seen[int(index[0])], evaluate(batch, delta, dd)
                assert got.batch is batch
                for name in ("est_sorted", "true_sorted"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestWorkingSet:
    """Peak traced memory of a block's draw and evaluation, per padded link
    (trial x column), at activity_p = 1 (about 3 142 links a trial): the
    TrialBatch itself holds 41 bytes a link."""

    @pytest.mark.parametrize("dds, limit", [
        ((100.0,), 110.0), ((50.0, 100.0, 200.0), 150.0), ((50.0, 100.0, 200.0), 115.0),
    ])
    def test_peak_bytes_per_padded_link(self, base_cfg, cr, dds, limit):
        cfg = dataclasses.replace(base_cfg, activity_p=1.0)
        budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
        tracemalloc.start()
        try:
            batch = draw_trials(cfg, cr, range(TRIAL_BLOCK))
            for ev in engine._evaluations(batch, 50.0, dds):
                ev.degradation(budget)
                ev.critical_budgets(budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.active.sum() > 30_000
        assert peak / batch.active.size <= limit


def _tied_block(counts, seed, n_values, n_cells):
    """A hand-built block whose links draw their fresh value from
    n_values and their map cell from n_cells, so that links sharing both
    have exactly equal estimates; true powers are distinct.

    Evaluated at grid size 1 and D_d = 1e-6 m: every transmitter sits on a
    cell center and the receiver's displacement is huge against D_d, so rho
    is exactly 0 and a link's estimate is cr * exp(fresh) * r_hat**-gamma.
    Returns the block and its unsorted estimates, +inf on padding.
    """
    rng = np.random.default_rng(seed)
    counts = np.asarray(counts, dtype=np.int64)
    active = np.arange(counts.max(initial=0)) < counts[:, None]
    values = rng.normal(0.0, 1.8, n_values)
    cells = rng.integers(1, 400, size=(n_cells, 2)) + 0.5
    pick_v = rng.integers(n_values, size=active.shape)
    pick_c = rng.integers(n_cells, size=active.shape)
    xy = np.zeros(active.shape + (2,))
    fresh = np.zeros(active.shape)
    true = np.zeros(active.shape)
    xy[active] = cells[pick_c][active]
    fresh[active] = values[pick_v][active]
    true[active] = rng.permutation(active.sum()) + 1.0
    cfg = ScenarioConfig()
    batch = TrialBatch(
        cfg=cfg,
        cr=1.0,
        trials=np.arange(len(counts)),
        active=active,
        xy=xy,
        shadows=np.zeros(fresh.shape),
        fresh=fresh,
        true_powers=true,
    )
    grid = xy - 0.5  # the receiver's cell center is (0.5, 0.5)
    est = np.exp(fresh) * np.sqrt(grid[..., 0] ** 2 + grid[..., 1] ** 2) ** -cfg.gamma_pl
    return batch, np.where(active, est, math.inf)


@pytest.mark.filterwarnings("error")
class TestLinkPowerOverflow:
    def test_overflowing_estimate_is_never_admitted(self):
        # a fresh value of 800 overflows exp: that link's estimate is inf,
        # while its true power stays finite
        batch, _ = _tied_block([3], seed=5, n_values=3, n_cells=3)
        fresh = batch.fresh.copy()
        fresh[0, 1] = 800.0
        batch = dataclasses.replace(batch, fresh=fresh)
        ev = evaluate(batch, 1.0, 1e-6)
        assert ev.est_sorted[0].tolist()[-1] == math.inf
        assert ev.true_sorted[0, -1] == batch.true_powers[0, 1]
        assert ev.admitted(1e308).tolist() == [2]
        weights = ev.profiles(1e308)[0].weights
        assert batch.true_powers[0, 1] not in weights and len(weights) == 2

    def test_non_finite_link_power_sum_is_a_config_error(self, base_cfg):
        # cr * exp(X) overflows for a shadowing value of a few sigma
        with pytest.raises(ConfigError, match=r"trial \d+: its true link powers and the noise power sum to inf"):
            draw_trials(base_cfg, 1e307, range(TRIAL_BLOCK))


class TestAdmissionOrder:
    """Admission on Evaluation against brute force, on blocks with exact
    ties, long rows (where numpy's SIMD argsort runs), empty rows and
    padding."""

    @settings(max_examples=60, deadline=None)
    @given(
        long_row=st.integers(300, 400),
        other_rows=st.lists(st.integers(0, 400), max_size=3),
        at=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        n_values=st.integers(1, 1000),
        n_cells=st.integers(1, 1000),
        budget_share=st.floats(0.0, 1.2),
        cap_share=st.floats(0.0, 1.2),
    )
    def test_matches_brute_force(
        self, long_row, other_rows, at, seed, n_values, n_cells, budget_share, cap_share
    ):
        counts = other_rows[:at] + [long_row] + other_rows[at:]
        at = min(at, len(other_rows))
        batch, est = _tied_block(counts, seed, n_values, n_cells)
        ev = evaluate(batch, 1.0, 1e-6)
        order = np.argsort(est, axis=1, kind="stable")
        want_est = np.take_along_axis(est, order, axis=1)
        want_true = np.take_along_axis(batch.true_powers, order, axis=1)
        assert np.array_equal(ev.est_sorted, want_est)
        assert np.array_equal(ev.true_sorted, want_true)

        budget = budget_share * float(np.sum(want_est[at, :long_row]))
        admitted = ev.admitted(budget)
        cap = cap_share * float(np.sum(want_true[at, :long_row]))
        critical = ev.critical_budgets(cap)
        for row, n in enumerate(counts):
            k = admitted[row]
            cum = np.cumsum(want_est[row, :n])
            # the longest prefix whose estimated sum is within budget
            assert 0 <= k <= n
            assert k == 0 or cum[k - 1] <= budget
            assert k == n or cum[k] > budget
            crit, sum_true, sum_est = math.inf, 0.0, 0.0
            for e, t in zip(want_est[row, :n], want_true[row, :n]):
                sum_true += t
                sum_est += e
                if sum_true > cap:
                    crit = sum_est
                    break
            assert critical[row] == crit
