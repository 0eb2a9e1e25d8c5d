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

import math

import numpy as np

from remcr.channel import gudmundson_correlation, received_power

__all__ = ["estimate_links"]


def estimate_links(
    fresh: np.ndarray,
    power_const: float | np.ndarray,
    pathloss_exp: float,
    shadows_true: np.ndarray,
    true_xy: np.ndarray,
    snapped_xy: np.ndarray,
    receiver_true,
    receiver_snapped,
    decorr_m: float,
    min_distance_m: float,
):
    """Estimate links sharing one receiver from the map.

    Each link's distance is replaced by the distance between cell centers
    and its shadowing by the partially correlated value of the module
    docstring.  A zero cell-center distance (transmitter snapped onto the
    receiver's cell) is clamped to min_distance_m and flagged.

    Positions have shape (..., 2) and shadows_true the matching shape (...),
    so a padded block of trials is one call; the receiver's true and
    snapped positions are 2-sequences.  power_const is a scalar or
    broadcasts against the links.  fresh holds one shadowing draw per link
    (sample_shadows), which makes the estimate a pure function of the
    draws.  Returns (power_est, rho, grid_distance, clamped), clamped
    being the boolean mask of links whose cell-center distance was zero.

    decorr_m broadcasts against the links too: an array of shape
    (k, 1, ..., 1) estimates them at k decorrelation distances in one call,
    and power_est and rho gain a leading axis of length k.  The geometry
    (distances, path gain, clamp mask) does not depend on decorr_m and is
    computed once; each estimate has the bits of a call at its own scalar
    decorr_m.

    Both per-link distances are sqrt(dx**2 + dy**2), within one ulp of
    np.hypot, which calls the scalar libm hypot per element and is several
    times slower.  They feed only the estimates; the true link distance of
    engine.draw_trials keeps np.hypot, because its bits reach the admitted
    profile weights and so the lcr/aed outputs.
    """
    true_xy = np.asarray(true_xy, dtype=float)
    snapped_xy = np.asarray(snapped_xy, dtype=float)
    # one coordinate at a time into per-link buffers: no (..., 2) temporary
    r_hat = _distance(snapped_xy, receiver_snapped)
    clamped = r_hat == 0.0
    np.copyto(r_hat, min_distance_m, where=clamped)
    d_tx = _distance(true_xy, snapped_xy)
    del snapped_xy  # frees a snapped block its caller passed in, before the estimate
    # the receiver's factor, computed once and broadcast over the links
    d_rx = np.full(1, math.hypot(receiver_true[0] - receiver_snapped[0],
                                 receiver_true[1] - receiver_snapped[1]))
    rho = gudmundson_correlation(d_tx, d_rx, decorr_m)
    del d_tx
    # rho * shadows_true + sqrt(1 - rho * rho) * fresh, in that order
    shadow_est = np.multiply(rho, shadows_true)
    part = np.multiply(rho, rho)
    np.subtract(1.0, part, out=part)
    np.sqrt(part, out=part)
    part *= fresh
    shadow_est += part
    del part
    power_est = received_power(power_const, shadow_est, r_hat, pathloss_exp)
    return power_est, rho, r_hat, clamped


def _distance(xy: np.ndarray, to) -> np.ndarray:
    """sqrt(dx**2 + dy**2) from the (..., 2) points xy to to, a point or an
    array of the same shape, in two per-point buffers."""
    to = np.asarray(to, dtype=float)
    out = np.subtract(xy[..., 0], to[..., 0])
    np.square(out, out=out)
    dy = np.subtract(xy[..., 1], to[..., 1])
    np.square(dy, out=dy)
    out += dy
    return np.sqrt(out, out=out)
