"""The radio environment map: what the controller believes each link gain is.

The map is a grid of cells of side delta anchored at the origin, where the
protected receiver sits.  Read off it, a link's distance is the distance
between cell centers, and its shadowing is only partially correlated with
the true value: the correlation rho shrinks with the displacement of both
endpoints to their cell centers (gudmundson_correlation), and the estimate
keeps the marginal shadowing distribution,

    shadow_est = rho * shadow_true + sqrt(1 - rho**2) * fresh_draw.

rho = 1 (exact positions) reproduces the true link bit for bit; rho = 0 gives
an independent draw from the same lognormal law.  This module is the one
that knows the map: the grid, the receiver, the correlation law, the clamp
of a zero map distance and the estimate.
"""

from __future__ import annotations

import math

import numpy as np

from remcr.channel import received_power

__all__ = ["snap_points", "gudmundson_correlation", "estimate_links"]


def snap_points(xy, delta: float) -> np.ndarray:
    """Map positions to the centers of their grid cells of side delta,
    elementwise: an (..., 2) array of points, or one coordinate array.

    Cells are anchored at the origin, i.e. cell (i, j) covers
    [i*delta, (i+1)*delta) x [j*delta, (j+1)*delta) and is represented by its
    center.  delta = 0 disables snapping and returns a copy.  The positional
    error is at most delta/sqrt(2).
    """
    if delta < 0.0:
        raise ValueError("grid size must be non-negative")
    xy = np.asarray(xy, dtype=float)
    if delta == 0.0:
        return xy.copy()
    return (np.floor(xy / delta) + 0.5) * delta


def gudmundson_correlation(d_tx_m, d_rx_m, decorr_m):
    """Correlation between true and map shadowing when both endpoints of a
    link are displaced.

    Exponential decay with half-value at the decorrelation distance, one
    factor per endpoint:  0.5**(d_tx/D) * 0.5**(d_rx/D), an array of the
    shape the displacements and decorr_m broadcast to.
    """
    if np.less_equal(decorr_m, 0.0).any():
        raise ValueError("decorrelation distance must be positive")
    d_tx = np.asarray(d_tx_m, dtype=float)
    d_rx = np.asarray(d_rx_m, dtype=float)
    if (d_tx < 0.0).any() or (d_rx < 0.0).any():
        raise ValueError("displacements must be non-negative")
    # 0.5**(d_tx/D) * 0.5**(d_rx/D) in one buffer of the broadcast shape
    out = np.empty(np.broadcast(d_tx, d_rx, decorr_m).shape)
    np.divide(d_tx, decorr_m, out=out)
    np.power(0.5, out, out=out)
    out *= 0.5 ** (d_rx / decorr_m)
    return out


def estimate_links(
    fresh: np.ndarray,
    cr: float | np.ndarray,
    gamma_pl: float,
    shadows: np.ndarray,
    xy: np.ndarray,
    delta: float,
    decorr_m: float | np.ndarray,
    min_distance_m: float,
) -> np.ndarray:
    """Map estimates of the received power of links to the receiver.

    Positions xy have shape (..., 2) and shadows the matching shape (...),
    so a padded block of trials is one call; fresh holds one shadowing draw
    per link (sample_shadows), which makes the estimate a pure function of
    the draws, and cr broadcasts against the links.  A zero cell-center
    distance (a transmitter in the receiver's cell) is clamped to
    min_distance_m.  decorr_m of shape (k, 1, ..., 1) estimates the links
    at k decorrelation distances, on a leading axis of length k: the
    geometry is computed once, and each estimate has the bits of a call at
    its own scalar decorr_m.

    Both per-link distances are sqrt(dx**2 + dy**2), within one ulp of
    np.hypot, which calls the scalar libm hypot per element and is several
    times slower.  They feed only the estimates; the true link distance of
    engine.draw_trials keeps np.hypot, because its bits reach the admitted
    profile weights and so the lcr/aed outputs.
    """
    xy = np.asarray(xy, dtype=float)
    receiver = snap_points(np.zeros(2), delta)
    # one coordinate at a time into per-link buffers: the squared offsets of
    # each transmitter to its cell center (d_tx) and of that center to the
    # receiver's (r_hat), with no (..., 2) snapped block
    d_tx, r_hat = np.zeros(xy.shape[:-1]), np.zeros(xy.shape[:-1])
    for axis in (0, 1):
        center = snap_points(xy[..., axis], delta)
        offset = np.subtract(xy[..., axis], center)
        d_tx += np.square(offset, out=offset)
        center -= receiver[axis]
        r_hat += np.square(center, out=center)
        del offset, center  # freed before the next axis allocates its pair
    np.sqrt(r_hat, out=r_hat)
    np.copyto(r_hat, min_distance_m, where=r_hat == 0.0)
    np.sqrt(d_tx, out=d_tx)
    # the receiver's offset by math.hypot, which the scalar one-trial model
    # uses: np.hypot differs from it by one ulp at some grid sizes (79 m)
    rho = gudmundson_correlation(d_tx, np.full(1, math.hypot(*receiver)), decorr_m)
    del d_tx
    # rho * shadows + sqrt(1 - rho * rho) * fresh, in that order; the
    # second term is built in rho's own buffer
    shadow_est = np.multiply(rho, shadows)
    np.multiply(rho, rho, out=rho)
    np.subtract(1.0, rho, out=rho)
    np.sqrt(rho, out=rho)
    rho *= fresh
    shadow_est += rho
    del rho
    return received_power(cr, shadow_est, r_hat, gamma_pl)
