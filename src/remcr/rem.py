"""Map-based link estimates: what the controller believes each link gain is.

The controller reads positions and shadowing off a grid-discretized map, so
its estimate of a link differs from the truth in two ways: the link distance
is measured between cell centers, and the shadowing value is only partially
correlated with the true one.  The correlation shrinks with the displacement
of both endpoints following gudmundson_correlation, and the estimate keeps
the marginal shadowing distribution:

    shadow_est = rho * shadow_true + sqrt(1 - rho**2) * fresh_draw.

rho = 1 (exact positions) reproduces the true link bit for bit; rho = 0 gives
an independent draw from the same lognormal law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from remcr.channel import LinkGain, gudmundson_correlation, received_power, sample_shadows
from remcr.geometry import Point, distance

__all__ = ["RemEstimate", "estimate_link", "estimate_links"]


@dataclass(frozen=True)
class RemEstimate:
    """Map-side view of one link: estimated power, the true/map shadowing
    correlation, the cell-center distance used, and whether that distance
    collapsed onto the receiver cell and was clamped."""

    power_est: float
    rho: float
    grid_distance_m: float
    clamped: bool


def estimate_link(
    stream: np.random.Generator,
    true_link: LinkGain,
    true_pos: Point,
    snapped_pos: Point,
    receiver_true: Point,
    receiver_snapped: Point,
    decorr_m: float,
    sigma_db: float,
    min_distance_m: float,
) -> RemEstimate:
    """Estimate one link from the map.

    true_link carries the true shadowing and geometry; the estimate replaces
    the distance by the cell-center distance and the shadowing by the
    partially correlated value described in the module docstring.  A zero
    cell-center distance (transmitter snapped onto the receiver's cell) is
    clamped to min_distance_m and flagged.
    """
    d_tx = distance(true_pos, snapped_pos)
    d_rx = distance(receiver_true, receiver_snapped)
    rho = gudmundson_correlation(d_tx, d_rx, decorr_m)
    fresh = sample_shadows(stream, 1, sigma_db)[0]
    shadow_est = rho * true_link.shadow_log + np.sqrt(1.0 - rho * rho) * fresh
    r_hat = distance(snapped_pos, receiver_snapped)
    clamped = r_hat == 0.0
    if clamped:
        r_hat = min_distance_m
    power_est = received_power(
        true_link.power_const, shadow_est, r_hat, true_link.pathloss_exp
    )
    return RemEstimate(power_est=power_est, rho=float(rho), grid_distance_m=r_hat, clamped=clamped)


def estimate_links(
    fresh: np.ndarray,
    power_const: float | np.ndarray,
    pathloss_exp: float,
    shadows_true: np.ndarray,
    true_xy: np.ndarray,
    snapped_xy: np.ndarray,
    receiver_true: Point,
    receiver_snapped: Point,
    decorr_m: float,
    min_distance_m: float,
):
    """Vector form of estimate_link over links sharing one receiver.

    Positions have shape (..., 2) and shadows_true the matching shape (...),
    so a padded block of trials is one call; power_const is a scalar or
    broadcasts against the links.  fresh holds one shadowing draw per link
    (sample_shadows), which makes the estimate a pure function of the
    draws.  Returns (power_est, rho, grid_distance, clamped), clamped
    being the boolean mask of links whose cell-center distance was zero.
    """
    true_xy = np.asarray(true_xy, dtype=float)
    snapped_xy = np.asarray(snapped_xy, dtype=float)
    disp = true_xy - snapped_xy
    d_tx = np.hypot(disp[..., 0], disp[..., 1])
    # the receiver's factor, computed once and broadcast over the links
    d_rx = np.full(1, distance(receiver_true, receiver_snapped))
    rho = gudmundson_correlation(d_tx, d_rx, decorr_m)
    shadow_est = rho * shadows_true + np.sqrt(1.0 - rho * rho) * fresh
    grid = snapped_xy - np.asarray(receiver_snapped, dtype=float)
    r_hat = np.hypot(grid[..., 0], grid[..., 1])
    clamped = r_hat == 0.0
    r_hat = np.where(clamped, min_distance_m, r_hat)
    power_est = power_const * np.exp(shadow_est) * r_hat ** (-pathloss_exp)
    return power_est, rho, r_hat, clamped
