"""Experiment description: tier parameters, building statistics, run controls.

Field names double as configuration keys (see `hetnetsim.config`); dB/dBm
quantities carry their unit in the name to keep the units unambiguous.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields

from .antenna import MetroAntenna, SectorPattern, metro_antenna

__all__ = [
    "BuildingConfig",
    "MacroConfig",
    "MetroConfig",
    "PowerMode",
    "SAME_EIRP_BUDGET_DBM",
    "Scenario",
    "metro_tx_power_dbm",
    "validate_scenario",
]

# Baseline radiated-power budget used in same-EIRP mode: every metro antenna
# keeps tx_power + max_gain equal to the 33 dBm + 2.15 dBi of the baseline
# single-element dipole.
SAME_EIRP_BUDGET_DBM = 35.15

# Metro and building densities default to this multiple of the macro density.
DENSITY_RATIO_DEFAULT = 15.0

# Cap on the expected macro sites, metro sites and walls of one drop.  The
# defaults expect ~5,000; every point costs memory and time in every drop.
MAX_EXPECTED_POINTS_PER_DROP = 100_000


class PowerMode(enum.Enum):
    """How metro transmit power is assigned across antenna choices."""

    SAME_POWER = "same_power"
    SAME_EIRP = "same_eirp"


@dataclass(frozen=True)
class MacroConfig:
    """Macro tier: high site, three parabolic sectors."""

    tx_power_dbm: float = 46.0
    density_per_km2: float = 2.05
    height_m: float = 30.0
    horiz_hpbw_deg: float = 65.0
    front_back_ratio_db: float = 25.0
    vert_hpbw_deg: float = 7.0
    side_lobe_db: float = -18.0
    max_gain_dbi: float = 18.0
    downtilt_deg: float = 10.0
    pathloss_intercept_db: float = 128.1
    pathloss_slope_db: float = 37.6

    def pattern(self) -> SectorPattern:
        return SectorPattern(
            horiz_hpbw_deg=self.horiz_hpbw_deg,
            front_back_ratio_db=self.front_back_ratio_db,
            vert_hpbw_deg=self.vert_hpbw_deg,
            side_lobe_db=self.side_lobe_db,
            max_gain_dbi=self.max_gain_dbi,
        )


@dataclass(frozen=True)
class MetroConfig:
    """Metro tier: low site, one horizontally omnidirectional antenna."""

    tx_power_dbm: float = 33.0
    density_per_km2: float = DENSITY_RATIO_DEFAULT * 2.05
    height_m: float = 5.0
    pattern: str = "quasi_omni"
    downtilt_deg: float = 0.0
    pathloss_intercept_db: float = 140.7
    pathloss_slope_db: float = 36.7

    def antenna(self) -> MetroAntenna:
        return metro_antenna(self.pattern)


@dataclass(frozen=True)
class BuildingConfig:
    """Random wall field: density, per-wall attenuation, size distributions."""

    density_per_km2: float = DENSITY_RATIO_DEFAULT * 2.05
    attenuation_db: float = -40.0
    length_min_m: float = 20.0
    length_max_m: float = 30.0
    height_min_m: float = 10.0
    height_max_m: float = 20.0


@dataclass(frozen=True)
class Scenario:
    """One full experiment: network layout, channel, and run controls."""

    macro: MacroConfig = field(default_factory=MacroConfig)
    metro: MetroConfig = field(default_factory=MetroConfig)
    buildings: BuildingConfig = field(default_factory=BuildingConfig)
    sir_bias_db: float = 6.0
    region_radius_km: float = 5.0
    user_height_m: float = 0.0
    drops: int = 10000
    master_seed: int = 1
    power_mode: PowerMode = PowerMode.SAME_POWER
    sweep_downtilts_deg: tuple[float, ...] = tuple(float(t) for t in range(0, 41, 2))
    sweep_patterns: tuple[str, ...] = ("dipole1", "dipole2", "dipole4", "quasi_omni")


def metro_tx_power_dbm(pattern_name: str, power_mode: PowerMode, base_power_dbm: float) -> float:
    """Metro transmit power for a pattern under the given power mode."""
    if power_mode is PowerMode.SAME_EIRP:
        return SAME_EIRP_BUDGET_DBM - metro_antenna(pattern_name).pattern.max_gain_dbi
    return base_power_dbm


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def validate_scenario(s: Scenario) -> None:
    """Check every scenario invariant; raises ValueError naming the bad key."""
    for section, part in (
        ("macro", s.macro), ("metro", s.metro), ("buildings", s.buildings), ("simulation", s)
    ):
        for f in fields(part):
            value = getattr(part, f.name)
            if isinstance(value, float):
                _require(math.isfinite(value), f"{section}.{f.name} must be finite, got {value}")
    for tier, t in (("macro", s.macro), ("metro", s.metro)):
        _require(t.density_per_km2 >= 0.0, f"{tier}.density_per_km2 must be >= 0")
        _require(t.height_m > 0.0, f"{tier}.height_m must be > 0")
        _require(t.pathloss_slope_db > 0.0, f"{tier}.pathloss_slope_db must be > 0")
        _require(0.0 <= t.downtilt_deg < 90.0, f"{tier}.downtilt_deg must be in [0, 90)")
    _require(s.buildings.density_per_km2 >= 0.0, "buildings.density_per_km2 must be >= 0")
    _require(s.user_height_m >= 0.0, "simulation.user_height_m must be >= 0")
    _require(s.region_radius_km > 0.0, "simulation.region_radius_km must be > 0")
    density = s.macro.density_per_km2 + s.metro.density_per_km2 + s.buildings.density_per_km2
    expected_points = density * math.pi * s.region_radius_km**2
    _require(
        expected_points <= MAX_EXPECTED_POINTS_PER_DROP,
        f"simulation.region_radius_km and the macro/metro/buildings density_per_km2 "
        f"expect {expected_points:.3g} points per drop; the cap is {MAX_EXPECTED_POINTS_PER_DROP}",
    )
    _require(s.drops >= 1, "simulation.drops must be >= 1")
    _require(s.master_seed >= 0, "simulation.master_seed must be >= 0")

    b = s.buildings
    _require(b.attenuation_db <= 0.0, "buildings.attenuation_db must be <= 0 dB")
    _require(
        0.0 < b.length_min_m <= b.length_max_m,
        "buildings.length_min_m/length_max_m must satisfy 0 < min <= max",
    )
    _require(
        0.0 < b.height_min_m <= b.height_max_m,
        "buildings.height_min_m/height_max_m must satisfy 0 < min <= max",
    )

    # Antenna parameter checks happen in the pattern constructors.
    try:
        s.macro.pattern()
    except ValueError as exc:
        raise ValueError(f"macro antenna: {exc}") from None
    try:
        ant = s.metro.antenna()
    except ValueError as exc:
        raise ValueError(f"metro.pattern: {exc}") from None

    if not ant.tiltable and s.metro.downtilt_deg != 0.0:
        raise ValueError(
            f"metro antenna {s.metro.pattern!r} cannot be downtilted "
            f"(metro.downtilt_deg = {s.metro.downtilt_deg})"
        )

    if s.power_mode is PowerMode.SAME_EIRP:
        budget = s.metro.tx_power_dbm + ant.pattern.max_gain_dbi
        if abs(budget - SAME_EIRP_BUDGET_DBM) > 1e-9:
            raise ValueError(
                "metro.tx_power_dbm + antenna max gain must equal "
                f"{SAME_EIRP_BUDGET_DBM} dBm in same_eirp mode, got {budget}"
            )

    for t in s.sweep_downtilts_deg:
        _require(0.0 <= t < 90.0, "simulation.sweep_downtilts_deg entries must be in [0, 90)")
    for name in s.sweep_patterns:
        try:
            metro_antenna(name)
        except ValueError as exc:
            raise ValueError(f"simulation.sweep_patterns: {exc}") from None
