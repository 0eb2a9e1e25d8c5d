import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from remcr.channel import received_power, sample_shadows
from remcr.rem import estimate_links, gudmundson_correlation, snap_points

SIGMA_X = math.log(10.0) / 10.0 * 8.0


def _snap_one(v, delta):
    return (math.floor(v / delta) + 0.5) * delta if delta > 0.0 else v


def _one_link(fresh, shadow, true_xy, delta, decorr_m, min_distance_m):
    """One link estimated in scalar arithmetic, the receiver at the origin."""
    snapped = [_snap_one(v, delta) for v in true_xy]
    rx = _snap_one(0.0, delta)
    d_tx = math.hypot(true_xy[0] - snapped[0], true_xy[1] - snapped[1])
    rho = 0.5 ** (d_tx / decorr_m) * 0.5 ** (math.hypot(rx, rx) / decorr_m)
    shadow_est = rho * shadow + math.sqrt(1.0 - rho * rho) * fresh
    r_hat = math.hypot(snapped[0] - rx, snapped[1] - rx) or min_distance_m
    return math.exp(shadow_est) * r_hat**-3.5


def _map_distance(est, power_const=1.0):
    """r_hat of links estimated with zero shadowing: est = power_const * r_hat**-3.5."""
    return (np.asarray(est) / power_const) ** (-1.0 / 3.5)


class TestEstimateLink:
    def test_perfect_map_reproduces_truth(self):
        # delta = 0: rho = 1, so the fresh draw drops out and the true
        # distance is the map distance
        ests = [
            estimate_links(sample_shadows(np.random.default_rng(seed), 1, 8.0), 1.0, 3.5,
                           np.array([0.7]), [[300.0, 100.0]], 0.0, 100.0, 10.0)
            for seed in (20, 21)
        ]
        assert np.array_equal(ests[0], ests[1])
        expected_r = math.hypot(300.0, 100.0)
        assert math.isclose(ests[0][0], math.exp(0.7) * expected_r**-3.5, rel_tol=1e-12)

    def test_receiver_cell_collision_clamped(self):
        # at 50 m the receiver's cell center is (25, 25): a transmitter in
        # that cell has map distance 0, clamped to 10 m; its neighbour's
        # center is 50 m away
        est = estimate_links(np.zeros(2), 1.0, 3.5, np.zeros(2),
                             [[20.0, 20.0], [60.0, 20.0]], 50.0, 100.0, 10.0)
        assert np.allclose(_map_distance(est), [10.0, 50.0], rtol=1e-14)

    def test_decorrelated_estimate_keeps_marginal(self):
        stream = np.random.default_rng(22)
        n = 100_000
        shadows = sample_shadows(np.random.default_rng(23), n, 8.0)
        # displacements huge compared to the decorrelation distance: the
        # transmitters are 45 m and the receiver 71 m off their cell centers
        est = estimate_links(
            sample_shadows(stream, n, 8.0), 1.0, 3.5, shadows,
            np.tile([5030.0, 10.0], (n, 1)), 100.0, 1.0, 10.0,
        )
        r_hat = _map_distance(estimate_links(np.zeros(1), 1.0, 3.5, np.zeros(1),
                                             [[5030.0, 10.0]], 100.0, 1.0, 10.0))
        assert math.isclose(r_hat[0], 5000.0, rel_tol=1e-14)
        shadow_est = np.log(est) + 3.5 * np.log(5000.0)
        assert abs(np.corrcoef(shadows, shadow_est)[0, 1]) < 0.01
        assert abs(np.std(shadow_est) - SIGMA_X) < 0.01 * SIGMA_X

    def test_correlation_matches_displacement_product(self):
        # both endpoints displaced by one decorrelation distance: the
        # transmitter sits on a cell corner, delta/sqrt(2) from its center,
        # as the receiver does, so rho = 0.5 * 0.5
        stream = np.random.default_rng(24)
        n = 100_000
        shadows = sample_shadows(np.random.default_rng(25), n, 8.0)
        xy = np.tile([300.0, 0.0], (n, 1))
        decorr_m = math.hypot(50.0, 50.0)
        r_hat = 300.0  # from (350, 50) to (50, 50)
        # with no fresh draw the estimate's shadowing is rho * shadows
        alone = estimate_links(np.zeros(n), 1.0, 3.5, shadows, xy, 100.0, decorr_m, 10.0)
        big = np.abs(shadows) > 0.1  # where the log's rounding stays small
        rho = (np.log(alone[big]) + 3.5 * math.log(r_hat)) / shadows[big]
        assert np.allclose(rho, 0.25, rtol=1e-9, atol=0.0)
        est = estimate_links(sample_shadows(stream, n, 8.0), 1.0, 3.5, shadows, xy, 100.0,
                             decorr_m, 10.0)
        shadow_est = np.log(est) + 3.5 * math.log(r_hat)
        corr = np.corrcoef(shadows, shadow_est)[0, 1]
        assert abs(corr - 0.25) < 0.01

    def test_vector_matches_scalar(self):
        shadows = sample_shadows(np.random.default_rng(26), 6, 8.0)
        fresh = sample_shadows(np.random.default_rng(27), 6, 8.0)
        true_xy = np.array([[200.0, 50.0], [150.0, -80.0], [90.0, 90.0], [400.0, 10.0],
                            [60.0, -60.0], [10.0, 40.0]])  # the last in the receiver's cell
        for delta in (0.0, 50.0):
            vec = estimate_links(fresh, 1.0, 3.5, shadows, true_xy, delta, 100.0, 10.0)
            for i in range(6):
                one = _one_link(fresh[i], shadows[i], true_xy[i], delta, 100.0, 10.0)
                assert math.isclose(one, vec[i], rel_tol=1e-12)

    def test_padded_block_and_clamp_mask(self):
        # a (trials, links) block with per-link power constants: every entry
        # equals the same link estimated alone, and k decorrelation
        # distances give the bits of k calls
        shadows = sample_shadows(np.random.default_rng(28), 6, 8.0).reshape(2, 3)
        fresh = sample_shadows(np.random.default_rng(29), 6, 8.0).reshape(2, 3)
        true_xy = np.array([[[200.0, 50.0], [30.0, 20.0], [-90.0, 400.0]],
                            [[150.0, -80.0], [10.0, 12.0], [600.0, 0.0]]])
        power_const = np.array([2.0, 1.0, 1.0])
        est = estimate_links(fresh, power_const, 3.5, shadows, true_xy, 50.0, 100.0, 10.0)
        assert est.shape == (2, 3)
        # the middle column lies in the receiver's cell
        r_hat = _map_distance(estimate_links(np.zeros((2, 3)), power_const, 3.5,
                                             np.zeros((2, 3)), true_xy, 50.0, 100.0, 10.0),
                              power_const)
        assert np.allclose(r_hat[:, 1], 10.0, rtol=1e-14)
        assert np.all(r_hat[:, [0, 2]] > 100.0)
        for i in range(2):
            for j in range(3):
                one = estimate_links(
                    fresh[i, j:j + 1], power_const[j], 3.5, shadows[i, j:j + 1],
                    true_xy[i, j:j + 1], 50.0, 100.0, 10.0,
                )
                assert math.isclose(one[0], est[i, j], rel_tol=1e-15)
        dds = np.array([50.0, 100.0, 200.0])[:, None, None]
        per_dd = estimate_links(fresh, power_const, 3.5, shadows, true_xy, 50.0, dds, 10.0)
        assert per_dd.shape == (3, 2, 3)
        assert np.array_equal(per_dd[1], est)


class TestMapDistances:
    """The map distances are square roots of squared offsets: bit for bit
    sqrt(dx**2 + dy**2), and within one ulp of np.hypot.  They are read
    through the estimate: with zero shadowing it is r_hat**-gamma, and with
    no fresh draw its shadowing is rho * shadows."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        delta=st.one_of(st.just(0.0), st.floats(0.5, 400.0)),
        radius=st.floats(10.0, 5000.0),
        decorr_m=st.floats(1.0, 1000.0),
    )
    def test_square_root_distances(self, seed, n, delta, radius, decorr_m):
        rng = np.random.default_rng(seed)
        true_xy = rng.uniform(-radius, radius, size=(n, 2))
        shadows = rng.normal(0.0, SIGMA_X, size=n)
        snapped_xy = snap_points(true_xy, delta)
        rx = snap_points(np.zeros(2), delta)
        gx, gy = (snapped_xy - rx).T
        expected = np.sqrt(gx**2 + gy**2)
        hypot = np.hypot(gx, gy)
        assert np.all(np.abs(expected - hypot) <= np.spacing(hypot))
        r_hat = np.where(expected == 0.0, 10.0, expected)
        est = estimate_links(np.zeros(n), 1.0, 3.5, np.zeros(n), true_xy, delta, decorr_m, 10.0)
        assert np.array_equal(est, received_power(1.0, np.zeros(n), r_hat, 3.5))
        dx, dy = (true_xy - snapped_xy).T
        d_rx = np.full(n, math.hypot(*rx))
        rho = gudmundson_correlation(np.sqrt(dx**2 + dy**2), d_rx, decorr_m)
        est = estimate_links(np.zeros(n), 1.0, 3.5, shadows, true_xy, delta, decorr_m, 10.0)
        assert np.array_equal(est, received_power(1.0, rho * shadows, r_hat, 3.5))
