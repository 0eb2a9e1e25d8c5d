"""Spectrum-sharing admission simulator and level-crossing toolkit.

Simulates secondary-transmitter admission under a primary-protection
interference budget when link gains are read from a grid-discretized
signal-strength map, and provides matching analytic crossing-rate and
exceedance-duration curves for the admitted aggregate interference.
"""

from remcr.scenario import ScenarioConfig, ConfigError, interference_threshold, derive_stream
from remcr.allocation import InterferenceProfile, degradation_db, select_extreme_profiles
from remcr.lcr import (
    NcChiSqFit,
    FitFailureError,
    fit_ncx2,
    lcr_rician,
)

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "interference_threshold",
    "derive_stream",
    "InterferenceProfile",
    "degradation_db",
    "select_extreme_profiles",
    "NcChiSqFit",
    "FitFailureError",
    "fit_ncx2",
    "lcr_rician",
    "__version__",
]
