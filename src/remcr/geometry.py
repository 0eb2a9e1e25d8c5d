"""Transmitter placement in the annulus and grid snapping."""

from __future__ import annotations

import math

import numpy as np

from remcr.scenario import ConfigError, ScenarioConfig

__all__ = [
    "snap_points",
    "sample_annulus_points",
    "sample_cr_count",
    "cr_population",
    "sample_placement",
    "MAX_POPULATION",
]

# Largest secondary population of a scenario.  A block of engine.TRIAL_BLOCK
# = 10 trials holds its positions in a float64 array of TRIAL_BLOCK * 2 values
# per transmitter; a budget of 64 MiB for that array allows 2**26 // (10 * 2 * 8)
# = 419 430 transmitters (the default scenario has 3 142).
MAX_POPULATION = 419_430


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
    disc area, rounded half-up to an integer.

    A ConfigError if that number exceeds MAX_POPULATION, before any array
    of that size is drawn."""
    if density_per_km2 < 0.0 or coverage_radius_m <= 0.0:
        raise ValueError("need density >= 0 and radius > 0")
    mean = density_per_km2 * math.pi * coverage_radius_m**2 / 1e6
    if not mean <= MAX_POPULATION:
        raise ConfigError(
            f"{density_per_km2:g} transmitters per km2 in a disc of radius "
            f"{coverage_radius_m:g} m are {mean:g}, beyond the {MAX_POPULATION} "
            f"a block of trials holds in memory"
        )
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


def sample_placement(stream: np.random.Generator, cfg: ScenarioConfig) -> np.ndarray:
    """Draw the active secondary transmitters: their positions as an (n, 2)
    array, the protected receiver sitting at the origin.

    The licensed transmitter's position is drawn first and discarded.  The
    admission pipeline does not use it, but drawing it keeps every secondary
    position where the stream has always put it: the draw order (licensed
    position, active count, secondary positions) is part of the determinism
    contract for a given stream.  The positions the discretized map
    attributes to each node depend on the grid size and are taken with
    snap_points where the map is read (remcr.engine.evaluate).
    """
    sample_annulus_points(stream, 1, cfg.R0, cfg.R)  # the licensed transmitter
    n_active = sample_cr_count(stream, cfg.cr_density, cfg.R, cfg.activity_p)
    return sample_annulus_points(stream, n_active, cfg.R0, cfg.R)
