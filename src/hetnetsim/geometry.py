"""Random network geometry: node placement and wall blockage.

Conventions: positions on the ground plane are kilometers, heights and wall
lengths are meters.  A building is a vertical wall whose footprint is a 2D
segment; a link is blocked by every wall that cuts its footprint at a point
where the straight tx-rx path is no higher than the wall top.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario

__all__ = [
    "MIN_LINK_DISTANCE_KM",
    "NetworkSample",
    "Tier",
    "blockage_counts_from_origin",
    "sample_network",
    "sample_ppp",
    "wrap_angle_deg",
]

# Links shorter than this are clamped before angle/path-loss evaluation; the
# distance-power laws diverge as d -> 0.
MIN_LINK_DISTANCE_KM = 1e-3

_SECTOR_OFFSETS_RAD = np.array([0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0])

# Bearing bins per WAP in the wall counter's lookup table.  More bins pass
# fewer candidate pairs to the exact window test but cost a larger table;
# one per WAP was the fastest of 1, 2 and 3 at the default densities.
_BINS_PER_WAP = 1


class Tier(enum.Enum):
    MACRO = "macro"
    METRO = "metro"


def wrap_angle_deg(angle_deg):
    """Wrap an angle in degrees to (-180, 180]."""
    return 180.0 - np.mod(180.0 - np.asarray(angle_deg, dtype=float), 360.0)


def sample_ppp(density_per_km2: float, radius_km: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one realization of a homogeneous Poisson process on the disc of
    radius ``radius_km`` around the origin.

    Returns an (n, 2) array of positions in km; n is Poisson with mean
    density * area and positions are independent uniforms on the disc.
    """
    if density_per_km2 < 0.0:
        raise ValueError(f"density must be >= 0, got {density_per_km2}")
    n = rng.poisson(density_per_km2 * (math.pi * radius_km**2))
    radius = radius_km * np.sqrt(rng.random(n))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))


@dataclass(frozen=True)
class NetworkSample:
    """Array form of one network realization (engine-facing)."""

    macro_xy: np.ndarray  # (n1, 2) km
    macro_azimuth0_rad: np.ndarray  # (n1,) first-sector boresights
    metro_xy: np.ndarray  # (n2, 2) km
    building_center_xy: np.ndarray  # (nb, 2) km
    building_length_m: np.ndarray  # (nb,)
    building_height_m: np.ndarray  # (nb,)
    building_orientation_rad: np.ndarray  # (nb,) [0, pi)

    @property
    def n_sectors(self) -> int:
        return 3 * len(self.macro_xy) + len(self.metro_xy)

    def wall_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Both ends (km) of every wall footprint, each (nb, 2)."""
        orient = self.building_orientation_rad
        half_km = (self.building_length_m * 1e-3 / 2.0)[:, None] * np.column_stack(
            (np.cos(orient), np.sin(orient))
        )
        return self.building_center_xy + half_km, self.building_center_xy - half_km


def sample_network(scenario: Scenario, rng: np.random.Generator) -> NetworkSample:
    """Sample WAP and building positions for one drop.

    Draw order is fixed: macro positions, macro first-sector azimuths, metro
    positions, building centers, lengths, heights, orientations.  Metro
    sectors are omnidirectional and consume no azimuth draw.
    """
    radius_km = scenario.region_radius_km
    macro_xy = sample_ppp(scenario.macro.density_per_km2, radius_km, rng)
    macro_az0 = rng.uniform(0.0, 2.0 * math.pi, len(macro_xy))
    metro_xy = sample_ppp(scenario.metro.density_per_km2, radius_km, rng)
    centers = sample_ppp(scenario.buildings.density_per_km2, radius_km, rng)
    nb = len(centers)
    b = scenario.buildings
    lengths = rng.uniform(b.length_min_m, b.length_max_m, nb)
    heights = rng.uniform(b.height_min_m, b.height_max_m, nb)
    # A segment and its reverse are the same wall, so [0, pi) covers all
    # orientations.
    orientations = rng.uniform(0.0, math.pi, nb)
    return NetworkSample(
        macro_xy=macro_xy,
        macro_azimuth0_rad=macro_az0,
        metro_xy=metro_xy,
        building_center_xy=centers,
        building_length_m=lengths,
        building_height_m=heights,
        building_orientation_rad=orientations,
    )


def _crossing_mask(bx, by, za_m, zb_m, e1x, e1y, e2x, e2y, wall_h_m) -> np.ndarray:
    """Elementwise test: does the path from the origin (height ``za_m``) to
    ``b`` (height ``zb_m``) cut each wall below its top?

    Endpoint contact counts as a cut.  The straddle tests compare the signs
    of two side products, zero counting as either sign, as
    ``np.sign(c1) * np.sign(c2) <= 0`` does: the product ``c1 * c2`` would
    underflow to 0 for tiny coordinates.  A wall is collinear when both its
    endpoints are exactly on the path's line: ``c3`` and ``c4`` are then
    rounding residue, so the overlap of path and wall is tested at its
    midpoint instead.
    """
    vx = e2x - e1x
    vy = e2y - e1y
    c1 = bx * e1y - by * e1x
    c2 = bx * e2y - by * e2x
    c3 = vy * e1x - vx * e1y
    c4 = vx * (by - e1y) - vy * (bx - e1x)
    collinear = (c1 == 0.0) & (c2 == 0.0)
    straddle = (np.minimum(c1, c2) <= 0.0) & (np.maximum(c1, c2) >= 0.0)
    straddle &= (np.minimum(c3, c4) <= 0.0) & (np.maximum(c3, c4) >= 0.0)
    denom = c3 - c4
    with np.errstate(divide="ignore", invalid="ignore"):  # t is inf where denom == 0
        t = c3 / denom
        z_at_cut = za_m + t * (zb_m - za_m)
    crossed = straddle & (denom != 0.0) & ~collinear & (z_at_cut <= wall_h_m)

    if np.any(collinear):
        r2 = bx * bx + by * by
        with np.errstate(divide="ignore", invalid="ignore"):  # r2 == 0 is no path
            s1 = (e1x * bx + e1y * by) / r2
            s2 = (e2x * bx + e2y * by) / r2
        lo = np.maximum(0.0, np.minimum(s1, s2))
        hi = np.minimum(1.0, np.maximum(s1, s2))
        z_mid = za_m + 0.5 * (lo + hi) * (zb_m - za_m)
        crossed |= collinear & (r2 != 0.0) & (lo <= hi) & (z_mid <= wall_h_m)
    return crossed


def _wrap_to_pi(x: np.ndarray) -> np.ndarray:
    """``np.mod(x + pi, 2 pi) - pi``, bit for bit, for x in (-3 pi, 3 pi).

    On that range the remainder is one exact subtraction or one rounded
    addition of 2 pi, so two selects replace the division inside ``np.mod``.
    """
    y = x + math.pi
    two_pi = 2.0 * math.pi
    return np.where(y < 0.0, y + two_pi, np.where(y >= two_pi, y - two_pi, y)) - math.pi


def blockage_counts_from_origin(
    wap_xy: np.ndarray,
    wap_height_m: np.ndarray,
    user_height_m: float,
    wall_e1: np.ndarray,
    wall_e2: np.ndarray,
    wall_height_m: np.ndarray,
) -> np.ndarray:
    """Wall-cut counts for every path from the origin user to each WAP.

    A wall counts at most once per path, when the straight path meets it
    no higher than its top; endpoint contact counts as a cut.  Any point
    where a path cuts a wall has the same bearing as the WAP itself, so
    only walls whose subtended bearing interval contains the WAP bearing
    need the exact test.  That test also needs the WAP to be no nearer to
    the user than the wall's nearest point, since a cut lies on both.
    """
    wap_xy = np.ascontiguousarray(wap_xy, dtype=float).reshape(-1, 2)
    wap_height_m = np.ascontiguousarray(wap_height_m, dtype=float)
    wall_e1 = np.ascontiguousarray(wall_e1, dtype=float).reshape(-1, 2)
    wall_e2 = np.ascontiguousarray(wall_e2, dtype=float).reshape(-1, 2)
    wall_height_m = np.ascontiguousarray(wall_height_m, dtype=float)
    n_w = len(wap_xy)
    n_b = len(wall_e1)
    if n_w == 0 or n_b == 0:
        return np.zeros(n_w, dtype=np.int64)

    e1x, e1y = wall_e1[:, 0], wall_e1[:, 1]
    e2x, e2y = wall_e2[:, 0], wall_e2[:, 1]
    psi1 = np.arctan2(e1y, e1x)
    psi2 = np.arctan2(e2y, e2x)
    spread = _wrap_to_pi(psi2 - psi1)  # [-pi, pi)
    half_width = 0.5 * np.abs(spread) + 1e-9
    center = psi1 + 0.5 * spread
    lo = _wrap_to_pi(center - half_width)
    hi = lo + 2.0 * half_width

    # Walls running (numerically) through the origin subtend no usable
    # interval; test them against every path.  Below ~1e-154 km seg2
    # underflows to 0 and near2 is NaN, which also counts as at the origin.
    vx = e2x - e1x
    vy = e2y - e1y
    seg2 = vx**2 + vy**2
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip(-(e1x * vx + e1y * vy) / seg2, 0.0, 1.0)
    near2 = (e1x + s * vx) ** 2 + (e1y + s * vy) ** 2
    at_origin = ~(near2 >= 1e-24)

    # Bearing window: the WAP bearings, sorted and repeated one turn up,
    # are cut into bins by a monotone map, so each wall's candidates are
    # the contiguous run from the bin of ``lo`` to the bin of ``hi``.
    wap_x = wap_xy[:, 0]
    wap_y = wap_xy[:, 1]
    alpha = np.arctan2(wap_y, wap_x)
    order = np.argsort(alpha)
    alpha_sorted = alpha[order]
    alpha_ext = np.concatenate((alpha_sorted, alpha_sorted + 2.0 * math.pi))
    wap_ext = np.concatenate((order, order))
    scale = _BINS_PER_WAP * n_w / (2.0 * math.pi)
    top = 2 * _BINS_PER_WAP * n_w + 1  # alpha_ext + pi reaches 4 pi

    def bin_of(angle):
        return np.minimum(np.floor((angle + math.pi) * scale).astype(np.int64), top)

    first = np.zeros(top + 2, dtype=np.int64)  # first[k]: position of bin k's first bearing
    np.cumsum(np.bincount(bin_of(alpha_ext), minlength=top + 1), out=first[1:])
    start = first[bin_of(lo)]
    stop = first[bin_of(hi) + 1]
    if at_origin.any():
        start[at_origin] = 0
        stop[at_origin] = n_w
        lo[at_origin] = -np.inf
        hi[at_origin] = np.inf

    counts = stop - start
    offsets = np.cumsum(counts) - counts
    pair_wall = np.repeat(np.arange(n_b), counts)
    pair_pos = np.arange(int(counts.sum())) + np.repeat(start - offsets, counts)
    pair_wap = wap_ext[pair_pos]
    a = alpha_ext[pair_pos]
    # Keep the pairs inside the exact bearing window whose WAP is not
    # nearer than the wall; the margin absorbs rounding in near2.
    d2 = wap_x**2 + wap_y**2
    keep = (lo[pair_wall] <= a) & (a <= hi[pair_wall])
    keep &= ~(near2[pair_wall] > d2[pair_wap] * (1.0 + 1e-9))
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        return np.zeros(n_w, dtype=np.int64)
    pair_wall = pair_wall[idx]
    pair_wap = pair_wap[idx]

    crossed = _crossing_mask(
        wap_x[pair_wap], wap_y[pair_wap], float(user_height_m), wap_height_m[pair_wap],
        e1x[pair_wall], e1y[pair_wall], e2x[pair_wall], e2y[pair_wall],
        wall_height_m[pair_wall],
    )
    return np.bincount(pair_wap[crossed], minlength=n_w).astype(np.int64, copy=False)
