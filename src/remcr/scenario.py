"""Scenario configuration, parameter validation, and deterministic RNG streams.

A scenario describes one protected receiver at the origin of a disc of radius
R, a licensed transmitter and a population of secondary transmitters placed
uniformly in the annulus [R0, R], lognormal shadowing, and a signal-strength
map discretized to square grid cells of side delta_grid.  Every random draw in
the package flows through derive_stream so that a master seed reproduces all
outputs byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "interference_threshold",
    "derive_stream",
    "load_scenario",
    "parse_scenario",
]

# ln(10)/10: converts a dB-valued normal deviate into the natural-log domain.
DB_TO_NAT = math.log(10.0) / 10.0


class ConfigError(ValueError):
    """Malformed scenario file, out-of-range parameter, or a scenario a
    study cannot run on."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable scenario parameters, all distances in meters.

    R            disc radius served by the licensed system
    R0           exclusion radius around any receiver (minimum link distance)
    Rc           secondary-cell radius used for transmit-power calibration
    sigma_dB     shadowing standard deviation in dB
    gamma_pl     path-loss exponent
    cr_density   secondary transmitters per square kilometer
    activity_p   probability a secondary transmitter wants the channel
    f_D          maximum Doppler frequency of the fading processes, Hz
    buffer_dB    admissible degradation of the protected receiver's SNR
    delta_grid   side of a map grid cell (0 means exact map positions)
    D_d          shadowing decorrelation distance of the map model
    noise_power  receiver noise power (linear); the interference unit
    K_dB         Rician K factor in dB, or None for Rayleigh fading
    master_seed  64-bit seed from which all random streams derive
    """

    R: float = 1000.0
    R0: float = 10.0
    Rc: float = 100.0
    sigma_dB: float = 8.0
    gamma_pl: float = 3.5
    cr_density: float = 1000.0
    activity_p: float = 0.1
    f_D: float = 25.0
    buffer_dB: float = 2.0
    delta_grid: float = 0.0
    D_d: float = 100.0
    noise_power: float = 1.0
    K_dB: float | None = None
    master_seed: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("R", "f_D"):  # the placement radius and the Rice slope are squared
            try:
                float(getattr(self, name)) ** 2
            except OverflowError:
                raise ConfigError(f"{name} = {getattr(self, name)} overflows when squared") from None
        if not math.isfinite(4.0 * math.pi * self.f_D**2):
            raise ConfigError(f"f_D = {self.f_D} overflows the Rice slope 4*pi*f_D**2")
        if not (0.0 < self.R0 < self.Rc <= self.R):
            raise ConfigError("need 0 < R0 < Rc <= R")
        # the placements draw r**2 from [R0**2, R**2], and a link needs r > 0
        if self.R0 * self.R0 == 0.0:
            raise ConfigError(f"R0 = {self.R0} underflows to 0 when squared")
        if self.sigma_dB <= 0.0:
            raise ConfigError("sigma_dB must be positive")
        if not (0.0 <= self.activity_p <= 1.0):
            raise ConfigError("activity_p must lie in [0, 1]")
        if self.delta_grid < 0.0:
            raise ConfigError("delta_grid must be non-negative")
        # a map distance is the root of a sum of squares, at most (R + sqrt(2) * delta_grid)**2
        reach = self.R + math.sqrt(2.0) * self.delta_grid
        if not reach * reach < math.inf:
            raise ConfigError(f"delta_grid = {self.delta_grid} overflows the squared map distances")
        if self.D_d <= 0.0:
            raise ConfigError("D_d must be positive")
        if self.noise_power <= 0.0:
            raise ConfigError("noise_power must be positive")
        if self.buffer_dB <= 0.0:
            raise ConfigError("buffer_dB must be positive")
        try:
            10.0 ** (self.buffer_dB / 10.0)
        except OverflowError:
            raise ConfigError(f"buffer_dB = {self.buffer_dB} overflows as a linear ratio") from None
        if self.K_dB is not None:
            try:
                k_factor = 10.0 ** (self.K_dB / 10.0)
                (1.0 + k_factor) ** 3  # the largest power rician_component_moments takes
            except OverflowError:
                raise ConfigError(f"K_dB = {self.K_dB} overflows the Rician moments") from None
            if k_factor == 0.0:
                raise ConfigError(f"K_dB = {self.K_dB} underflows to a zero K factor")
        if self.cr_density < 0.0:
            raise ConfigError("cr_density must be non-negative")
        if self.f_D <= 0.0:
            raise ConfigError("f_D must be positive")
        if 4.0 * math.pi * self.f_D**2 < sys.float_info.min:
            raise ConfigError(f"f_D = {self.f_D} underflows the Rice slope 4*pi*f_D**2")
        if not (2.0 <= self.gamma_pl <= 4.0):
            warnings.warn(
                f"path-loss exponent {self.gamma_pl} outside the usual [2, 4] range",
                stacklevel=2,
            )


def interference_threshold(buffer_db: float, noise_power: float) -> float:
    """Largest aggregate interference that keeps the protected receiver's
    SNR loss at or below buffer_db.

    The admission inequality S/(I + N) >= (S/N) * 10**(-buffer_db/10) does
    not involve the signal S at all; it collapses to
        I <= noise_power * (10**(buffer_db/10) - 1).
    """
    if buffer_db <= 0.0 or noise_power <= 0.0:
        raise ValueError("interference_threshold requires positive inputs")
    return noise_power * (10.0 ** (buffer_db / 10.0) - 1.0)


def derive_stream(master_seed: int, trial_index: int, purpose: str) -> np.random.Generator:
    """Deterministic, order-independent sub-stream for one (trial, purpose).

    The purpose tag is hashed with SHA-256 (Python's builtin hash is salted
    per process and would break reproducibility).  Streams for different
    (seed, index, tag) triples are statistically independent, and the same
    triple always yields the same generator state, so trials may run in any
    order or in parallel without changing results.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    # The entropy is the list [master_seed mod 2**64, trial_index, tag] as
    # SeedSequence reads it: each integer as 32-bit words, least significant
    # first.  Handing over those words as a uint32 array gives the same
    # stream and skips the slow coercion of a list of Python ints.
    words = _words(master_seed & 0xFFFFFFFFFFFFFFFF) + _words(trial_index) + _purpose_words(purpose)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


def _words(value: int) -> list[int]:
    """A non-negative integer as SeedSequence splits it: 32-bit words,
    least significant first, at least one."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


@functools.lru_cache(maxsize=256)
def _purpose_words(purpose: str) -> list[int]:
    tag = int.from_bytes(hashlib.sha256(purpose.encode("utf-8")).digest()[:8], "little")
    return _words(tag)


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def parse_scenario(text: str, source: str = "<string>") -> ScenarioConfig:
    """Parse flat `key = value` scenario text into a ScenarioConfig.

    One pair per line; blank lines and lines starting with '#' are skipped.
    Unknown keys, duplicate keys, and unparsable values are ConfigErrors that
    name the offending line.  Missing keys take the documented defaults.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            if key == "master_seed":
                values[key] = int(val)
            else:
                values[key] = float(val)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: bad value {val!r} for {key!r}") from None
    try:
        return ScenarioConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_scenario(path) -> ScenarioConfig:
    """Read a scenario file (UTF-8 flat key = value text) from disk."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario file {path} is not UTF-8 text: {exc}") from None
    return parse_scenario(text, source=str(path))
