"""3D antenna gain patterns with electrical downtilt.

The gain of a link in dBi is composed as

    G(phi, theta, tilt) = G_h(phi) + G_v(theta, tilt) + G_max,

where ``G_h`` and ``G_v`` are the normalized (<= 0 dB) horizontal and
vertical patterns and ``G_max`` is the peak gain.  ``phi`` is the horizontal
angle off the sector boresight, ``theta`` is the downward elevation angle of
the receiver seen from the antenna, and ``tilt`` is the electrical downtilt.

All angles are degrees at the interface.  Pattern methods accept scalars or
numpy arrays and evaluate elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AntennaPattern",
    "DIPOLE_GAIN_FLOOR_DB",
    "DipolePattern",
    "HALF_POWER_DB",
    "METRO_ANTENNAS",
    "MetroAntenna",
    "QuasiOmniPattern",
    "SectorPattern",
    "dipole_exponent",
    "metro_antenna",
]

# Exact half power in dB.  Beam edges are calibrated to this value, not to a
# rounded -3 dB.
HALF_POWER_DB = -10.0 * math.log10(2.0)

# Vertical parabolic lobes reach HALF_POWER_DB exactly at half the beamwidth.
_VERT_LOBE_COEFF = -4.0 * HALF_POWER_DB  # 12.0412
# The horizontal sector lobe keeps the conventional coefficient 12 (-3 dB at
# the half-beamwidth points).
_HORIZ_LOBE_COEFF = 12.0

# Stands in for -inf at the nulls of a dipole that has no side-lobe floor.
DIPOLE_GAIN_FLOOR_DB = -250.0


def dipole_exponent(vert_hpbw_deg: float) -> float:
    """Exponent n of a cos^n dipole lobe with the given vertical HPBW.

    Solves 10*log10(cos^n(hpbw/2)) = -10*log10(2), i.e. the lobe is exactly
    half power at +/- hpbw/2.
    """
    _check_hpbw(vert_hpbw_deg, "vert_hpbw_deg")
    return math.log(2.0) / -math.log(math.cos(math.radians(vert_hpbw_deg / 2.0)))


def _check_hpbw(value: float, name: str) -> None:
    if not 0.0 < value < 180.0:
        raise ValueError(f"{name} must be in (0, 180) degrees, got {value}")


def _check_floor(value: float, name: str) -> None:
    if value > 0.0 or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite dB value <= 0, got {value}")


class _ComposedGain:
    """Shared dBi composition for all pattern families; omnidirectional in
    azimuth unless a family overrides `horizontal_gain_db`."""

    max_gain_dbi: float

    def horizontal_gain_db(self, phi_deg):
        return np.zeros_like(np.asarray(phi_deg, dtype=float))

    def total_gain_dbi(self, phi_deg, theta_deg, downtilt_deg):
        """Full 3D gain in dBi for boresight offset ``phi_deg`` and downward
        elevation ``theta_deg`` under electrical downtilt ``downtilt_deg``."""
        return (
            self.horizontal_gain_db(phi_deg)
            + self.vertical_gain_db(theta_deg, downtilt_deg)
            + self.max_gain_dbi
        )


@dataclass(frozen=True)
class SectorPattern(_ComposedGain):
    """Directional sector pattern with parabolic lobes (3GPP style).

    Horizontal lobe rolls off as 12*(phi/hpbw)^2 capped by the front-to-back
    ratio; the vertical lobe is floored at the side-lobe level.
    """

    horiz_hpbw_deg: float
    front_back_ratio_db: float
    vert_hpbw_deg: float
    side_lobe_db: float
    max_gain_dbi: float

    def __post_init__(self) -> None:
        _check_hpbw(self.horiz_hpbw_deg, "horiz_hpbw_deg")
        _check_hpbw(self.vert_hpbw_deg, "vert_hpbw_deg")
        if self.front_back_ratio_db < 0.0:
            raise ValueError("front_back_ratio_db must be >= 0 dB")
        _check_floor(self.side_lobe_db, "side_lobe_db")
        if not math.isfinite(self.max_gain_dbi):
            raise ValueError("max_gain_dbi must be finite")

    def horizontal_gain_db(self, phi_deg):
        phi = np.asarray(phi_deg, dtype=float)
        return -np.minimum(
            _HORIZ_LOBE_COEFF * (phi / self.horiz_hpbw_deg) ** 2,
            self.front_back_ratio_db,
        )

    def vertical_gain_db(self, theta_deg, downtilt_deg):
        off = np.asarray(theta_deg, dtype=float) - downtilt_deg
        return np.maximum(
            -_VERT_LOBE_COEFF * (off / self.vert_hpbw_deg) ** 2,
            self.side_lobe_db,
        )


@dataclass(frozen=True)
class QuasiOmniPattern(_ComposedGain):
    """Horizontally omnidirectional pattern with the sector's parabolic
    vertical lobe."""

    vert_hpbw_deg: float
    side_lobe_db: float
    max_gain_dbi: float

    def __post_init__(self) -> None:
        _check_hpbw(self.vert_hpbw_deg, "vert_hpbw_deg")
        _check_floor(self.side_lobe_db, "side_lobe_db")
        if not math.isfinite(self.max_gain_dbi):
            raise ValueError("max_gain_dbi must be finite")

    vertical_gain_db = SectorPattern.vertical_gain_db


@dataclass(frozen=True)
class DipolePattern(_ComposedGain):
    """Half-wave dipole stack: omni in azimuth, cos^n main lobe in elevation.

    ``exponent`` is derived from the vertical beamwidth at construction so
    the lobe is exactly half power at +/- hpbw/2.  A missing side-lobe level
    means the lobe runs down to the numerical floor instead of -inf.
    """

    vert_hpbw_deg: float
    max_gain_dbi: float
    side_lobe_db: float | None = None
    exponent: float = field(init=False)

    def __post_init__(self) -> None:
        _check_hpbw(self.vert_hpbw_deg, "vert_hpbw_deg")
        if self.side_lobe_db is not None:
            _check_floor(self.side_lobe_db, "side_lobe_db")
        if not math.isfinite(self.max_gain_dbi):
            raise ValueError("max_gain_dbi must be finite")
        object.__setattr__(self, "exponent", dipole_exponent(self.vert_hpbw_deg))

    def vertical_gain_db(self, theta_deg, downtilt_deg):
        off = np.radians(np.asarray(theta_deg, dtype=float) - downtilt_deg)
        floor = DIPOLE_GAIN_FLOOR_DB if self.side_lobe_db is None else self.side_lobe_db
        with np.errstate(divide="ignore"):
            lobe = 10.0 * self.exponent * np.log10(np.abs(np.cos(off)))
        return np.maximum(lobe, floor)


AntennaPattern = SectorPattern | DipolePattern | QuasiOmniPattern


@dataclass(frozen=True)
class MetroAntenna:
    """A named metro-cell antenna option and whether it supports downtilt."""

    name: str
    pattern: AntennaPattern
    tiltable: bool


# Catalogue of metro antenna options.  Each element doubling halves the
# vertical beamwidth and adds 3 dBi of peak gain.  Single-element dipoles
# have no electrical tilt.
METRO_ANTENNAS: dict[str, MetroAntenna] = {
    "dipole1": MetroAntenna(
        "dipole1",
        DipolePattern(vert_hpbw_deg=78.0, max_gain_dbi=2.15),
        tiltable=False,
    ),
    "dipole2": MetroAntenna(
        "dipole2",
        DipolePattern(vert_hpbw_deg=39.0, max_gain_dbi=5.15, side_lobe_db=-10.0),
        tiltable=True,
    ),
    "dipole4": MetroAntenna(
        "dipole4",
        DipolePattern(vert_hpbw_deg=19.5, max_gain_dbi=8.15, side_lobe_db=-12.0),
        tiltable=True,
    ),
    "quasi_omni": MetroAntenna(
        "quasi_omni",
        QuasiOmniPattern(vert_hpbw_deg=14.0, side_lobe_db=-16.0, max_gain_dbi=10.2),
        tiltable=True,
    ),
}


def metro_antenna(name: str) -> MetroAntenna:
    """Look up a metro antenna by name, raising on unknown names."""
    try:
        return METRO_ANTENNAS[name]
    except KeyError:
        known = ", ".join(sorted(METRO_ANTENNAS))
        raise ValueError(f"unknown metro antenna {name!r} (known: {known})") from None
