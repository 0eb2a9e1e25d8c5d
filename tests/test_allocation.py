import math
import warnings

import numpy as np
import pytest

from remcr.allocation import (
    FitFailureError,
    InterferenceProfile,
    TooFewProfilesError,
    select_extreme_profiles,
)
from remcr.engine import TrialBatch, evaluate, trial_batches
from remcr.scenario import ScenarioConfig, interference_threshold


def _profiles(cfg, cr, n_trials):
    """Admitted profiles of trials 0 .. n_trials-1 for the configured buffer."""
    budget = interference_threshold(cfg.buffer_dB, cfg.noise_power)
    return [
        p for batch in trial_batches(cfg, cr, n_trials)
        for p in evaluate(batch, cfg.delta_grid, cfg.D_d).profiles(budget)
    ]


def _evaluate(candidates):
    """Evaluation of one hand-built trial whose secondary links have the
    given (true power, estimated power) pairs, in link order.

    At grid size 1 every transmitter sits on the center of the cell next to
    the receiver's, 1 m away on the map, and a decorrelation distance of
    1e-6 m makes rho exactly 0: a link's estimate is exp(fresh)."""
    n = len(candidates)
    true = [t for t, _ in candidates]
    est = [e for _, e in candidates]
    with np.errstate(divide="ignore"):  # an estimate of 0 is exp(-inf)
        fresh = np.log(np.reshape(est, (1, n)))
    batch = TrialBatch(
        cfg=ScenarioConfig(),
        cr=1.0,
        trials=np.zeros(1, dtype=np.int64),
        active=np.ones((1, n), dtype=bool),
        xy=np.tile([1.5, 0.5], (1, n, 1)),
        shadows=np.zeros((1, n)),
        fresh=fresh,
        true_powers=np.reshape(true, (1, n)),
    )
    return evaluate(batch, 1.0, 1e-6)


def _admit(candidates):
    """Admitted profile of the _evaluate trial against the budget of a 2 dB
    buffer over unit noise."""
    return _evaluate(candidates).profiles(interference_threshold(2.0, 1.0))[0]


class TestAllocate:
    def test_no_candidates(self):
        ev = _evaluate([])
        assert len(ev.profiles(interference_threshold(2.0, 1.0))[0]) == 0
        assert ev.degradation(interference_threshold(2.0, 1.0)).tolist() == [0.0]

    def test_single_over_budget_rejected(self):
        budget = interference_threshold(2.0, 1.0)
        prof = _admit([(0.1, budget * 1.01)])
        assert len(prof) == 0

    def test_greedy_prefix_on_estimates(self):
        # estimates 0.1, 0.2, 0.3, 0.4: budget 0.5849 admits 0.1+0.2 only
        prof = _admit([(9.0, 0.4), (9.0, 0.1), (9.0, 0.3), (9.0, 0.2)])
        assert np.allclose(prof.est_weights, [0.1, 0.2])
        assert float(np.sum(prof.est_weights)) <= interference_threshold(2.0, 1.0)

    def test_ties_keep_candidate_order(self):
        prof = _admit([(t, 0.2) for t in (1.0, 2.0, 3.0)])
        # budget fits two of the three equal estimates: first two by index
        assert np.allclose(prof.weights, [1.0, 2.0])

    def test_true_weights_follow_admitted_candidates(self):
        prof = _admit([(5.0, 0.5), (7.0, 0.05)])
        assert np.allclose(prof.est_weights, [0.05, 0.5])
        assert np.allclose(prof.weights, [7.0, 5.0])

    def test_perfect_map_never_violates_true_budget(self, base_cfg, cr):
        budget = interference_threshold(base_cfg.buffer_dB, base_cfg.noise_power)
        for prof in _profiles(base_cfg, cr, 2000):
            assert float(np.sum(prof.weights)) <= budget * (1.0 + 1e-12)

    def test_zero_powers(self):
        # an estimate that underflowed to 0 is admitted; a link whose true
        # power underflowed to 0 adds nothing and is left out of the profile
        prof = _admit([(0.0, 0.1), (2.0, 0.0), (0.0, 0.0), (3.0, 0.2)])
        assert prof.weights.tolist() == [2.0, 3.0]
        assert prof.est_weights.tolist() == [0.0, 0.2]


class TestProfile:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            InterferenceProfile(weights=np.array([1.0]), est_weights=np.array([1.0, 2.0]))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            InterferenceProfile(weights=np.array([0.0]), est_weights=np.array([1.0]))
        with pytest.raises(ValueError):  # an estimate may be 0 (test_zero_powers), not negative
            InterferenceProfile(weights=np.array([1.0]), est_weights=np.array([-1.0]))


def _degradation(true_powers):
    """Evaluation.degradation of the _evaluate trial with these true powers,
    admitting every link, over unit noise."""
    return float(_evaluate([(t, 1.0) for t in true_powers]).degradation(math.inf)[0])


class TestDegradation:
    def test_empty_profile(self):
        assert _degradation([]) == 0.0

    def test_budget_boundary_reaches_buffer(self):
        total = interference_threshold(2.0, 1.0)
        assert math.isclose(_degradation([total]), 2.0, rel_tol=1e-12)

    def test_interference_equal_noise_doubles(self):
        assert math.isclose(_degradation([1.0]), 10.0 * math.log10(2.0), rel_tol=1e-12)


class TestExtremeProfiles:
    @staticmethod
    def _prof(*weights):
        w = np.asarray(weights, dtype=float)
        return InterferenceProfile(weights=w, est_weights=w)

    def test_hand_ranking(self):
        dom, nod = select_extreme_profiles([self._prof(3.0), self._prof(1.0, 1.0, 1.0)])
        assert np.allclose(dom.weights, [3.0])
        assert np.allclose(nod.weights, [1.0, 1.0, 1.0])

    def test_equal_sums_spread_decides(self):
        a = self._prof(2.0, 0.1)
        b = self._prof(1.05, 1.05)
        dom, nod = select_extreme_profiles([b, a])
        assert np.allclose(dom.weights, [2.0, 0.1])
        assert np.allclose(nod.weights, [1.05, 1.05])

    def test_empty_profiles_ignored(self):
        empty = InterferenceProfile(weights=np.empty(0), est_weights=np.empty(0))
        dom, nod = select_extreme_profiles([empty, self._prof(2.0), self._prof(1.0, 1.0)])
        assert np.allclose(dom.weights, [2.0])

    def test_too_few_raises(self):
        with pytest.raises(ValueError):
            select_extreme_profiles([self._prof(1.0)])

    def test_too_few_reports_non_empty_count(self):
        empty = InterferenceProfile(weights=np.empty(0), est_weights=np.empty(0))
        with pytest.raises(TooFewProfilesError) as info:
            select_extreme_profiles(iter([empty, self._prof(1.0), empty]))
        assert info.value.non_empty == 1

    def test_generator_gives_the_list_pair(self, base_cfg, cr):
        tie = self._prof(2.0, 1.0)
        profiles = (
            [self._prof(1.0, 1.0), tie, self._prof(1.0, 2.0), self._prof(0.5)]
            + _profiles(base_cfg, cr, 50)
            + [self._prof(3.0, 0.5), self._prof(0.5, 3.0)]
        )
        from_list = select_extreme_profiles(profiles)
        from_generator = select_extreme_profiles(p for p in profiles)
        assert all(a is b for a, b in zip(from_list, from_generator))
        sq = [float(np.sum(p.weights**2)) if len(p) else math.nan for p in profiles]
        non_empty = [i for i, p in enumerate(profiles) if len(p)]
        # ties keep the first occurrence, as argmax/argmin do
        first_max = non_empty[int(np.argmax([sq[i] for i in non_empty]))]
        first_min = non_empty[int(np.argmin([sq[i] for i in non_empty]))]
        assert from_list == (profiles[first_max], profiles[first_min])
        tied = select_extreme_profiles(iter([tie, self._prof(1.0, 2.0), self._prof(0.5)]))
        assert tied[0] is tie

    @pytest.mark.parametrize("scale, total", [(1e170, "inf"), (1e-170, "0")])
    def test_out_of_range_squares_stop_without_warning(self, scale, total):
        profiles = iter([self._prof(scale, 2.0 * scale), self._prof(scale)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitFailureError, match=f"is {total}, .* range from 1e[+-]170 to 2e[+-]170"):
                select_extreme_profiles(profiles)
        assert next(profiles).weights[0] == scale  # stopped at the first profile

    def test_dominant_has_larger_max_share(self, base_cfg, cr):
        profiles = _profiles(base_cfg, cr, 300)
        dom, nod = select_extreme_profiles(profiles)
        dom_share = np.max(dom.weights) / np.sum(dom.weights)
        nod_share = np.max(nod.weights) / np.sum(nod.weights)
        assert dom_share >= nod_share
