"""Shared scene builders and independent reference oracles."""

from __future__ import annotations

import math

import numpy as np

from hetnetsim.association import serving_sector
from hetnetsim.geometry import MIN_LINK_DISTANCE_KM, NetworkSample, Tier, blockage_counts_from_origin
from hetnetsim.simulation import sector_mean_powers

ORACLE_STEP_KM = 1e-5  # 1 cm march resolution


def scene(macro_xy=(), macro_az=(), metro_xy=(), walls=()):
    """A hand-built network; each wall is a (cx_km, cy_km, length_m,
    orientation_rad, height_m) row."""
    walls = np.asarray(walls, dtype=float).reshape(-1, 5)
    return NetworkSample(
        macro_xy=np.asarray(macro_xy, dtype=float).reshape(-1, 2),
        macro_azimuth0_rad=np.asarray(macro_az, dtype=float).reshape(-1),
        metro_xy=np.asarray(metro_xy, dtype=float).reshape(-1, 2),
        building_center_xy=walls[:, :2],
        building_length_m=walls[:, 2],
        building_height_m=walls[:, 4],
        building_orientation_rad=walls[:, 3],
    )


def random_walls(rng, n, span_km=0.3, height_range=(0.5, 25.0), length_range=(5.0, 40.0)):
    """``n`` wall rows for `scene`, drawn wall by wall."""
    return np.array(
        [
            (
                rng.uniform(-span_km, span_km),
                rng.uniform(-span_km, span_km),
                rng.uniform(*length_range),
                rng.uniform(0.0, math.pi),
                rng.uniform(*height_range),
            )
            for _ in range(n)
        ]
    ).reshape(-1, 5)


def random_sites(rng, n_macro, n_metro, span_km=1.0):
    """Macro positions and first-sector azimuths, then metro positions, drawn
    site by site: the first three arguments of `scene`."""
    macros = np.array(
        [
            (rng.uniform(-span_km, span_km), rng.uniform(-span_km, span_km), rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(n_macro)
        ]
    ).reshape(-1, 3)
    metros = [(rng.uniform(-span_km, span_km), rng.uniform(-span_km, span_km)) for _ in range(n_metro)]
    return macros[:, :2], macros[:, 2], metros


def path_wall_count(tx, rx, walls):
    """Walls cut by the tx-rx path (points are (x_km, y_km, height_m)),
    counted by the engine with the scene moved so that rx is the origin."""
    net = scene(walls=walls)
    e1, e2 = net.wall_endpoints()
    shift = np.array(rx[:2], dtype=float)
    return int(
        blockage_counts_from_origin(
            np.subtract(tx[:2], shift), [tx[2]], rx[2], e1 - shift, e2 - shift, net.building_height_m
        )[0]
    )


def metro_dbm(scenario, xy, walls=()):
    """The engine's mean power of a lone metro at ``xy`` toward the origin user."""
    return float(sector_mean_powers(scenario, scene(metro_xy=[xy], walls=walls)).power_dbm[0])


def engine_associate(scenario, net):
    """The engine's serving sector for the origin user: (tier, (wap, sector))."""
    powers = sector_mean_powers(scenario, net)
    k = serving_sector(
        powers.power_dbm, powers.n_macro_sectors, scenario.sir_bias_db, 10.0 ** (powers.power_dbm / 10.0)
    )
    tier = Tier.MACRO if k < powers.n_macro_sectors else Tier.METRO
    return tier, (int(powers.wap_index[k]), int(powers.sector_index[k]))


def oracle_sector_powers(scenario, net):
    """Scalar link budget of every sector toward the origin user, one link at
    a time: {(wap_index, sector_index): (tier, dBm)}, macros first.  Wall
    counts come from the engine's counter, which criterion 4 checks against
    the ray march."""
    n1 = len(net.macro_xy)
    wap_xy = np.vstack((net.macro_xy, net.metro_xy))
    walls = blockage_counts_from_origin(
        wap_xy,
        [scenario.macro.height_m] * n1 + [scenario.metro.height_m] * len(net.metro_xy),
        scenario.user_height_m,
        *net.wall_endpoints(),
        net.building_height_m,
    )
    macro, metro = scenario.macro, scenario.metro
    links = [
        (Tier.MACRO, i, k, macro, macro.pattern(), az0 + k * 2.0 * math.pi / 3.0)
        for i, az0 in enumerate(net.macro_azimuth0_rad)
        for k in range(3)
    ]
    links += [(Tier.METRO, i, 0, metro, metro.antenna().pattern, 0.0) for i in range(n1, len(wap_xy))]
    powers = {}
    for tier, i, k, cfg, pattern, boresight_rad in links:
        x, y = wap_xy[i]
        d2d = max(math.hypot(x, y), MIN_LINK_DISTANCE_KM)
        phi = 180.0 - (180.0 - math.degrees(math.atan2(-y, -x) - boresight_rad)) % 360.0
        dz_m = cfg.height_m - scenario.user_height_m
        theta = math.degrees(math.atan2(dz_m, d2d * 1e3))
        loss = cfg.pathloss_intercept_db + cfg.pathloss_slope_db * math.log10(math.hypot(d2d, dz_m * 1e-3))
        gain = float(pattern.total_gain_dbi(phi, theta, cfg.downtilt_deg))
        shadow = walls[i] * scenario.buildings.attenuation_db
        powers[(i, k)] = (tier, cfg.tx_power_dbm + gain - loss + shadow)
    return powers


def oracle_associate(scenario, net):
    """Literal three-step reference: every sector enumerated, interference
    summed directly, bias rule applied verbatim."""
    powers = oracle_sector_powers(scenario, net)
    total_linear = sum(10.0 ** (p / 10.0) for _, p in powers.values())

    def asair(key):
        desired = 10.0 ** (powers[key][1] / 10.0)
        return 10.0 * math.log10(desired / (total_linear - desired))

    def best(tier):
        choice, choice_p = None, -math.inf
        for key, (t, p) in powers.items():
            if t is tier and p > choice_p:
                choice, choice_p = key, p
        return choice

    macro_best = best(Tier.MACRO)
    metro_best = best(Tier.METRO)
    if macro_best is None:
        return Tier.METRO, metro_best
    if metro_best is None:
        return Tier.MACRO, macro_best
    if asair(metro_best) >= asair(macro_best) - scenario.sir_bias_db:
        return Tier.METRO, metro_best
    return Tier.MACRO, macro_best


def _wall_endpoints(wall):
    cx, cy, length_m, orientation_rad, _ = wall
    half_km = length_m * 1e-3 / 2.0
    ux = math.cos(orientation_rad)
    uy = math.sin(orientation_rad)
    return (
        (cx + half_km * ux, cy + half_km * uy),
        (cx - half_km * ux, cy - half_km * uy),
    )


def oracle_wall_blocked(tx, rx, wall, step_km=ORACLE_STEP_KM):
    """Ray-march reference for one wall: sample the path every step and test
    point proximity to the wall footprint; judge the height at the closest
    sample."""
    ax, ay, za = tx
    bx, by, zb = rx
    length = math.hypot(bx - ax, by - ay)
    n = max(2, int(math.ceil(length / step_km)) + 1)
    t = np.linspace(0.0, 1.0, n)
    px = ax + t * (bx - ax)
    py = ay + t * (by - ay)
    (e1x, e1y), (e2x, e2y) = _wall_endpoints(wall)
    vx, vy = e2x - e1x, e2y - e1y
    seg2 = vx * vx + vy * vy
    s = np.clip(((px - e1x) * vx + (py - e1y) * vy) / seg2, 0.0, 1.0)
    dist = np.hypot(px - (e1x + s * vx), py - (e1y + s * vy))
    near = dist <= step_km / 2.0
    if not near.any():
        return False
    k = int(np.argmin(np.where(near, dist, np.inf)))
    z = za + t[k] * (zb - za)
    return z <= wall[4]


def _point_segment_distance(px, py, ax, ay, bx, by):
    vx, vy = bx - ax, by - ay
    seg2 = vx * vx + vy * vy
    if seg2 == 0.0:
        return math.hypot(px - ax, py - ay)
    s = max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / seg2))
    return math.hypot(px - (ax + s * vx), py - (ay + s * vy))


def oracle_borderline(tx, rx, wall, step_km=ORACLE_STEP_KM):
    """Configurations the march cannot adjudicate at its resolution:
    near-tangent footprints, cuts grazing the wall top or any segment end,
    and collinear overlaps.  These are excluded from oracle comparisons."""
    ax, ay, za = tx
    bx, by, zb = rx
    (e1x, e1y), (e2x, e2y) = _wall_endpoints(wall)
    rx_, ry_ = bx - ax, by - ay
    vx, vy = e2x - e1x, e2y - e1y
    c1 = rx_ * (e1y - ay) - ry_ * (e1x - ax)
    c2 = rx_ * (e2y - ay) - ry_ * (e2x - ax)
    c3 = vx * (ay - e1y) - vy * (ax - e1x)
    c4 = vx * (by - e1y) - vy * (bx - e1x)
    intersects = c1 * c2 <= 0.0 and c3 * c4 <= 0.0

    if intersects and c3 != c4:
        t = c3 / (c3 - c4)
        cut_x = ax + t * rx_
        cut_y = ay + t * ry_
        z = za + t * (zb - za)
        if abs(z - wall[4]) < 0.05:  # grazing the wall top (m)
            return True
        ends = ((ax, ay), (bx, by), (e1x, e1y), (e2x, e2y))
        if any(math.hypot(cut_x - x, cut_y - y) <= 2.0 * step_km for x, y in ends):
            return True
        return False
    if intersects:  # collinear overlap
        return True
    # Near-tangent: the footprints come within the march resolution.
    dmin = min(
        _point_segment_distance(e1x, e1y, ax, ay, bx, by),
        _point_segment_distance(e2x, e2y, ax, ay, bx, by),
        _point_segment_distance(ax, ay, e1x, e1y, e2x, e2y),
        _point_segment_distance(bx, by, e1x, e1y, e2x, e2y),
    )
    return dmin <= 2.0 * step_km
