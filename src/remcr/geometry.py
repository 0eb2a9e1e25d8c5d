"""Transmitter placement in the annulus and grid snapping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from remcr.scenario import ScenarioConfig

__all__ = [
    "Placement",
    "snap_points",
    "sample_annulus_points",
    "sample_cr_count",
    "cr_population",
    "sample_placement",
]


def snap_points(xy: np.ndarray, delta: float) -> np.ndarray:
    """Map an (..., 2) array of positions to the centers of their grid cells
    of side delta.

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


def sample_annulus_points(
    stream: np.random.Generator, n: int, r_inner: float, r_outer: float
) -> np.ndarray:
    """n uniform points in the annulus r_inner <= r <= r_outer around the
    origin, as an (n, 2) array.

    Uniformity in area means the squared radius is uniform on
    [r_inner**2, r_outer**2]; the angle is uniform on [0, 2*pi).  All radii
    are drawn before all angles.
    """
    if not (0.0 <= r_inner < r_outer):
        raise ValueError("need 0 <= r_inner < r_outer")
    rr = stream.uniform(r_inner * r_inner, r_outer * r_outer, size=n)
    ang = stream.uniform(0.0, 2.0 * math.pi, size=n)
    r = np.sqrt(rr)
    xy = np.empty((n, 2))
    np.multiply(r, np.cos(ang), out=xy[:, 0])
    np.multiply(r, np.sin(ang), out=xy[:, 1])
    return xy


def cr_population(density_per_km2: float, coverage_radius_m: float) -> int:
    """Fixed number of secondary transmitters in the disc: density times
    disc area, rounded half-up to an integer."""
    if density_per_km2 < 0.0 or coverage_radius_m <= 0.0:
        raise ValueError("need density >= 0 and radius > 0")
    mean = density_per_km2 * math.pi * coverage_radius_m**2 / 1e6
    return int(math.floor(mean + 0.5))


def sample_cr_count(
    stream: np.random.Generator,
    density_per_km2: float,
    coverage_radius_m: float,
    activity_p: float,
) -> int:
    """Number of secondary transmitters contending for the channel.

    The population is fixed at density * area; each member is independently
    active with probability activity_p, so the active count is binomial.
    """
    if not (0.0 <= activity_p <= 1.0):
        raise ValueError("activity_p must lie in [0, 1]")
    pop = cr_population(density_per_km2, coverage_radius_m)
    if pop == 0:
        return 0
    return int(stream.binomial(pop, activity_p))


@dataclass(frozen=True)
class Placement:
    """One trial's transmitter geometry.

    pu_tx is the licensed transmitter's position, shape (2,), and crs holds
    the active secondary transmitters as an (n, 2) array; the protected
    receiver sits at the origin.  The positions the discretized
    map attributes to each node depend on the grid size and are taken with
    snap_points where the map is read (remcr.engine.evaluate).
    """

    pu_tx: np.ndarray
    crs: np.ndarray


def sample_placement(stream: np.random.Generator, cfg: ScenarioConfig) -> Placement:
    """Draw the licensed transmitter and the active secondary transmitters.

    Draw order (licensed position, active count, secondary positions) is part
    of the determinism contract for a given stream.
    """
    pu_tx = sample_annulus_points(stream, 1, cfg.R0, cfg.R)[0]
    n_active = sample_cr_count(stream, cfg.cr_density, cfg.R, cfg.activity_p)
    crs = sample_annulus_points(stream, n_active, cfg.R0, cfg.R)
    return Placement(pu_tx=pu_tx, crs=crs)
