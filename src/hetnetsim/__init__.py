"""Monte Carlo simulator for two-tier macro/metro heterogeneous networks.

Random macro and metro sites are dropped as Poisson processes around a probe
user, links combine 3D antenna gain with electrical downtilt, distance path
loss, per-wall building shadowing and Rayleigh fading, and the user attaches
through a biased two-step association rule.  Aggregated outputs are area
spectral efficiency, average user rate, and the metro-served fraction.
"""

from .antenna import (
    DipolePattern,
    METRO_ANTENNAS,
    QuasiOmniPattern,
    SectorPattern,
    dipole_exponent,
    metro_antenna,
)
from .association import DegenerateNetworkError
from .config import ConfigError, load_config, parse_config, save_config, scenario_to_config
from .geometry import Tier, sample_network, sample_ppp
from .scenario import (
    BuildingConfig,
    MacroConfig,
    MetroConfig,
    PowerMode,
    Scenario,
    validate_scenario,
)
from .simulation import (
    DropResult,
    NetworkMetrics,
    aggregate,
    cell_radius,
    run_many,
    run_sweep,
)

__version__ = "0.1.0"
