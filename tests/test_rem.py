import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from remcr.channel import gudmundson_correlation, sample_shadows
from remcr.geometry import snap_points
from remcr.rem import estimate_links

SIGMA_X = math.log(10.0) / 10.0 * 8.0


def _one_link(fresh, shadow, true_xy, snapped_xy, rx_true, rx_snap, decorr_m, min_distance_m):
    """One link estimated in scalar arithmetic: (power_est, rho)."""
    d_tx = math.hypot(true_xy[0] - snapped_xy[0], true_xy[1] - snapped_xy[1])
    d_rx = math.hypot(rx_true[0] - rx_snap[0], rx_true[1] - rx_snap[1])
    rho = 0.5 ** (d_tx / decorr_m) * 0.5 ** (d_rx / decorr_m)
    shadow_est = rho * shadow + math.sqrt(1.0 - rho * rho) * fresh
    r_hat = math.hypot(snapped_xy[0] - rx_snap[0], snapped_xy[1] - rx_snap[1]) or min_distance_m
    return math.exp(shadow_est) * r_hat**-3.5, rho


class TestEstimateLink:
    def test_perfect_map_reproduces_truth(self):
        fresh = sample_shadows(np.random.default_rng(20), 1, 8.0)
        est, rho, r_hat, clamped = estimate_links(
            fresh, 1.0, 3.5, np.array([0.7]),
            true_xy=[[300.0, 100.0]], snapped_xy=[[300.0, 100.0]],
            receiver_true=(0.0, 0.0), receiver_snapped=(0.0, 0.0),
            decorr_m=100.0, min_distance_m=10.0,
        )
        assert rho[0] == 1.0
        assert not clamped[0]
        expected_r = math.hypot(300.0, 100.0)
        assert math.isclose(r_hat[0], expected_r, rel_tol=1e-14)
        assert math.isclose(est[0], math.exp(0.7) * expected_r**-3.5, rel_tol=1e-12)

    def test_receiver_cell_collision_clamped(self):
        fresh = sample_shadows(np.random.default_rng(21), 1, 8.0)
        est, rho, r_hat, clamped = estimate_links(
            fresh, 1.0, 3.5, np.array([0.0]),
            true_xy=[[20.0, 20.0]], snapped_xy=[[25.0, 25.0]],
            receiver_true=(4.0, 4.0), receiver_snapped=(25.0, 25.0),
            decorr_m=100.0, min_distance_m=10.0,
        )
        assert clamped[0]
        assert r_hat[0] == 10.0

    def test_decorrelated_estimate_keeps_marginal(self):
        stream = np.random.default_rng(22)
        n = 100_000
        shadows = sample_shadows(np.random.default_rng(23), n, 8.0)
        # displacements huge compared to the decorrelation distance
        est, rho, r_hat, clamped = estimate_links(
            sample_shadows(stream, n, 8.0), 1.0, 3.5, shadows,
            true_xy=np.tile([5000.0, 0.0], (n, 1)),
            snapped_xy=np.tile([0.0, 0.0], (n, 1)),
            receiver_true=(0.0, -500.0),
            receiver_snapped=(0.0, -500.0),
            decorr_m=100.0, min_distance_m=10.0,
        )
        assert np.allclose(rho, 0.5**50)
        shadow_est = np.log(est) + 3.5 * np.log(r_hat)
        assert abs(np.corrcoef(shadows, shadow_est)[0, 1]) < 0.01
        assert abs(np.std(shadow_est) - SIGMA_X) < 0.01 * SIGMA_X

    def test_correlation_matches_displacement_product(self):
        # both endpoints displaced by one decorrelation distance
        stream = np.random.default_rng(24)
        n = 100_000
        shadows = sample_shadows(np.random.default_rng(25), n, 8.0)
        est, rho, r_hat, clamped = estimate_links(
            sample_shadows(stream, n, 8.0), 1.0, 3.5, shadows,
            true_xy=np.tile([400.0, 0.0], (n, 1)),
            snapped_xy=np.tile([300.0, 0.0], (n, 1)),
            receiver_true=(0.0, 100.0),
            receiver_snapped=(0.0, 0.0),
            decorr_m=100.0, min_distance_m=10.0,
        )
        assert np.allclose(rho, 0.25)
        shadow_est = np.log(est) + 3.5 * np.log(r_hat)
        corr = np.corrcoef(shadows, shadow_est)[0, 1]
        assert abs(corr - 0.25) < 0.01

    def test_vector_matches_scalar(self):
        shadows = sample_shadows(np.random.default_rng(26), 5, 8.0)
        fresh = sample_shadows(np.random.default_rng(27), 5, 8.0)
        true_xy = np.array([[200.0, 50.0], [150.0, -80.0], [90.0, 90.0], [400.0, 10.0], [60.0, -60.0]])
        snapped_xy = np.array([[225.0, 75.0], [125.0, -75.0], [75.0, 75.0], [375.0, 25.0], [75.0, -75.0]])
        rx_true, rx_snap = (0.0, 0.0), (25.0, 25.0)
        vec = estimate_links(fresh, 1.0, 3.5, shadows, true_xy, snapped_xy, rx_true, rx_snap, 100.0, 10.0)
        for i in range(5):
            power_est, rho = _one_link(
                fresh[i], shadows[i], true_xy[i], snapped_xy[i], rx_true, rx_snap, 100.0, 10.0
            )
            assert math.isclose(power_est, vec[0][i], rel_tol=1e-12)
            assert math.isclose(rho, vec[1][i], rel_tol=1e-12)

    def test_padded_block_and_clamp_mask(self):
        # a (trials, links) block with per-link power constants: every entry
        # equals the same link estimated alone
        shadows = sample_shadows(np.random.default_rng(28), 6, 8.0).reshape(2, 3)
        fresh = sample_shadows(np.random.default_rng(29), 6, 8.0).reshape(2, 3)
        true_xy = np.array([[[200.0, 50.0], [30.0, 20.0], [-90.0, 400.0]],
                            [[150.0, -80.0], [10.0, 12.0], [600.0, 0.0]]])
        snapped_xy = np.array([[[225.0, 75.0], [25.0, 25.0], [-75.0, 425.0]],
                               [[125.0, -75.0], [25.0, 25.0], [575.0, 25.0]]])
        power_const = np.array([2.0, 1.0, 1.0])
        rx_true, rx_snap = (0.0, 0.0), (25.0, 25.0)
        est, rho, r_hat, clamped = estimate_links(
            fresh, power_const, 3.5, shadows, true_xy, snapped_xy, rx_true, rx_snap, 100.0, 10.0,
        )
        assert est.shape == rho.shape == r_hat.shape == clamped.shape == (2, 3)
        assert np.array_equal(clamped, [[False, True, False], [False, True, False]])
        assert np.all(r_hat[clamped] == 10.0)
        for i in range(2):
            for j in range(3):
                one = estimate_links(
                    fresh[i, j:j + 1], power_const[j], 3.5, shadows[i, j:j + 1],
                    true_xy[i, j:j + 1], snapped_xy[i, j:j + 1], rx_true, rx_snap, 100.0, 10.0,
                )
                assert math.isclose(one[0][0], est[i, j], rel_tol=1e-15)


class TestMapDistances:
    """The map distances are square roots of squared offsets: bit for bit
    sqrt(dx**2 + dy**2), and within one ulp of np.hypot."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        delta=st.one_of(st.just(0.0), st.floats(0.5, 400.0)),
        radius=st.floats(10.0, 5000.0),
        rx=st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)),
        decorr_m=st.floats(1.0, 1000.0),
    )
    def test_square_root_distances(self, seed, n, delta, radius, rx, decorr_m):
        rng = np.random.default_rng(seed)
        true_xy = rng.uniform(-radius, radius, size=(n, 2))
        snapped_xy = snap_points(true_xy, delta)
        rx_snap = snap_points(np.array(rx), delta)
        _, rho, r_hat, clamped = estimate_links(
            np.zeros(n), 1.0, 3.5, np.zeros(n), true_xy, snapped_xy,
            rx, rx_snap, decorr_m, 10.0,
        )
        gx, gy = (snapped_xy - rx_snap).T
        expected = np.sqrt(gx**2 + gy**2)
        assert np.array_equal(clamped, expected == 0.0)
        assert np.array_equal(r_hat[~clamped], expected[~clamped])
        assert np.all(r_hat[clamped] == 10.0)
        hypot = np.hypot(gx, gy)
        assert np.all(np.abs(expected - hypot) <= np.spacing(hypot))
        dx, dy = (true_xy - snapped_xy).T
        d_rx = np.full(n, math.hypot(rx[0] - rx_snap[0], rx[1] - rx_snap[1]))
        assert np.array_equal(rho, gudmundson_correlation(np.sqrt(dx**2 + dy**2), d_rx, decorr_m))
