import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from hetnetsim.geometry import (
    MIN_LINK_DISTANCE_KM,
    Building,
    Region,
    Sector,
    Tier,
    Wap,
    blockage_counts_from_origin,
    count_blockages,
    link_geometry,
    place_network,
    sample_network,
    sample_ppp,
    wrap_angle_deg,
)
from hetnetsim.scenario import Scenario

from conftest import make_macro, make_metro, random_buildings

TALL = 1e9  # wall height that never passes the height test


def small_scenario(radius_km=2.0):
    return replace(Scenario(), region_radius_km=radius_km)


# ---------------------------------------------------------------- sampling

def test_sample_ppp_zero_density_is_empty():
    rng = np.random.default_rng(0)
    points = sample_ppp(0.0, Region((0.0, 0.0), 5.0), rng)
    assert points.shape == (0, 2)


def test_sample_ppp_rejects_negative_density():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="density"):
        sample_ppp(-1.0, Region((0.0, 0.0), 5.0), rng)


def test_region_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        Region((0.0, 0.0), 0.0)


def test_sample_ppp_count_moments():
    # mean and variance of the count both equal density * area
    rng = np.random.default_rng(42)
    region = Region((0.0, 0.0), 1.0)
    lam = 6.0 / region.area_km2  # mean count 6
    counts = np.array([len(sample_ppp(lam, region, rng)) for _ in range(10_000)])
    se_mean = math.sqrt(6.0 / len(counts))
    assert counts.mean() == pytest.approx(6.0, abs=3.0 * se_mean)
    # Var(s^2) ~ (mu4 - sigma^4)/n with mu4 = lam(1+3lam) for Poisson
    se_var = math.sqrt((6.0 * 19.0 - 36.0) / len(counts))
    assert counts.var(ddof=1) == pytest.approx(6.0, abs=3.0 * se_var)


def test_sample_ppp_count_is_poisson():
    # chi-square goodness of fit against the exact pmf at significance 0.01
    rng = np.random.default_rng(7)
    region = Region((0.0, 0.0), 1.0)
    counts = np.array([len(sample_ppp(6.0 / region.area_km2, region, rng)) for _ in range(10_000)])
    kmax = 14
    observed = np.array(
        [np.count_nonzero(counts == k) for k in range(kmax)] + [np.count_nonzero(counts >= kmax)]
    )
    expected = stats.poisson.pmf(np.arange(kmax), 6.0) * len(counts)
    expected = np.append(expected, len(counts) - expected.sum())
    assert expected.min() > 5.0
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.01


def test_sample_ppp_points_are_uniform_on_the_disc():
    rng = np.random.default_rng(3)
    region = Region((2.0, -1.0), 1.0)
    points = sample_ppp(2000.0 / region.area_km2, region, rng)
    rel = points - np.array(region.center)
    r2 = (rel**2).sum(axis=1)
    # r^2 is uniform on (0, R^2) for a uniform disc
    se = 1.0 / math.sqrt(12.0 * len(points))
    assert r2.mean() == pytest.approx(0.5, abs=3.0 * se)
    angles = np.arctan2(rel[:, 1], rel[:, 0])
    observed, _ = np.histogram(angles, bins=8, range=(-math.pi, math.pi))
    _, p_value = stats.chisquare(observed)
    assert p_value > 0.01
    assert np.all(r2 <= 1.0 + 1e-12)


# ---------------------------------------------------------- place_network

def test_place_network_fields_and_distributions():
    scn = small_scenario()
    waps, buildings = place_network(scn, np.random.default_rng(5))
    macros = [w for w in waps if w.tier is Tier.MACRO]
    metros = [w for w in waps if w.tier is Tier.METRO]
    assert macros and metros and buildings

    third = 2.0 * math.pi / 3.0
    for wap in macros:
        assert wap.height_m == 30.0 and wap.tx_power_dbm == 46.0
        az = sorted(s.boresight_azimuth_rad for s in wap.sectors)
        gaps = (az[1] - az[0], az[2] - az[1], az[0] + 2.0 * math.pi - az[2])
        assert all(abs(g - third) < 1e-9 for g in gaps)
        assert all(s.downtilt_deg == 10.0 for s in wap.sectors)
    for wap in metros:
        assert wap.height_m == 5.0 and wap.tx_power_dbm == 33.0
        assert len(wap.sectors) == 1
    for b in buildings:
        assert 20.0 <= b.length_m <= 30.0
        assert 10.0 <= b.height_m <= 20.0
        assert 0.0 <= b.orientation_rad < math.pi


def test_metro_count_tracks_macro_count_fifteen_to_one():
    assert Scenario().metro.density_per_km2 == 15.0 * Scenario().macro.density_per_km2
    scn = small_scenario()
    rng = np.random.default_rng(11)
    n_macro = n_metro = 0
    for _ in range(30):
        waps, _ = place_network(scn, rng)
        n_macro += sum(w.tier is Tier.MACRO for w in waps)
        n_metro += sum(w.tier is Tier.METRO for w in waps)
    assert 12.5 < n_metro / n_macro < 17.5


def test_place_network_matches_sample_network_draws():
    scn = small_scenario()
    waps, buildings = place_network(scn, np.random.default_rng(9))
    net = sample_network(scn, np.random.default_rng(9))
    macros = [w for w in waps if w.tier is Tier.MACRO]
    assert len(macros) == len(net.macro_xy)
    assert macros[0].position == tuple(net.macro_xy[0])
    assert buildings[0].length_m == net.building_length_m[0]


# ------------------------------------------------------------ link angles

def test_link_geometry_boresight_ray():
    wap = make_metro((0.0, 0.0), height_m=5.0)
    geom = link_geometry(wap, wap.sectors[0], (0.1, 0.0), 0.0)
    assert geom.azimuth_offset_deg == 0.0
    assert geom.elevation_deg == pytest.approx(2.8624052261117474, abs=1e-12)
    assert geom.distance_2d_km == 0.1
    assert geom.distance_3d_km == pytest.approx(math.hypot(0.1, 0.005), rel=1e-15)


def test_link_geometry_level_path_has_zero_elevation():
    wap = make_metro((0.0, 0.0), height_m=5.0)
    geom = link_geometry(wap, wap.sectors[0], (0.25, 0.0), 5.0)
    assert geom.elevation_deg == 0.0
    assert geom.distance_3d_km == geom.distance_2d_km


def test_azimuth_offset_wraps_to_half_turn():
    assert wrap_angle_deg(190.0 - 10.0) == 180.0
    assert wrap_angle_deg(-180.0) == 180.0
    assert wrap_angle_deg(190.0) == -170.0
    assert wrap_angle_deg(0.0) == 0.0

    wap = make_metro((0.0, 0.0))
    sector = Sector(math.radians(10.0), wap.sectors[0].pattern, 0.0)
    user = (0.1 * math.cos(math.radians(190.0)), 0.1 * math.sin(math.radians(190.0)))
    geom = link_geometry(wap, sector, user, 0.0)
    assert abs(geom.azimuth_offset_deg) == pytest.approx(180.0, abs=1e-9)


def test_link_geometry_clamps_coincident_positions():
    wap = make_metro((0.0, 0.0), height_m=5.0)
    geom = link_geometry(wap, wap.sectors[0], (0.0, 0.0), 0.0)
    assert geom.distance_2d_km == MIN_LINK_DISTANCE_KM
    assert geom.elevation_deg == pytest.approx(math.degrees(math.atan2(5.0, 1.0)), abs=1e-12)


def test_link_geometry_random_invariants():
    rng = np.random.default_rng(21)
    wap = make_metro((0.0, 0.0))
    for _ in range(200):
        sector = Sector(rng.uniform(0.0, 2.0 * math.pi), wap.sectors[0].pattern, 0.0)
        user = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        geom = link_geometry(wap, sector, user, rng.uniform(0.0, 3.0))
        assert -180.0 < geom.azimuth_offset_deg <= 180.0
        assert geom.distance_3d_km >= geom.distance_2d_km


# ------------------------------------------------------------- type checks

def test_wap_invariants_are_enforced():
    metro = make_metro((0.0, 0.0))
    with pytest.raises(ValueError, match="3 sectors"):
        Wap(Tier.MACRO, (0.0, 0.0), 30.0, 46.0, metro.sectors)
    with pytest.raises(ValueError, match="120 degrees"):
        macro = make_macro((0.0, 0.0))
        skew = (macro.sectors[0], macro.sectors[1], replace(macro.sectors[2], boresight_azimuth_rad=1.0))
        Wap(Tier.MACRO, (0.0, 0.0), 30.0, 46.0, skew)
    with pytest.raises(ValueError, match="omnidirectional"):
        macro = make_macro((0.0, 0.0))
        Wap(Tier.METRO, (0.0, 0.0), 5.0, 33.0, (macro.sectors[0],))
    with pytest.raises(ValueError, match="height"):
        make_metro((0.0, 0.0), height_m=0.0)


def test_sector_invariants_are_enforced():
    pattern = make_metro((0.0, 0.0)).sectors[0].pattern
    with pytest.raises(ValueError, match="boresight"):
        Sector(-0.1, pattern, 0.0)
    with pytest.raises(ValueError, match="boresight"):
        Sector(2.0 * math.pi, pattern, 0.0)
    with pytest.raises(ValueError, match="downtilt"):
        Sector(0.0, pattern, 90.0)


def test_building_invariants_are_enforced():
    with pytest.raises(ValueError):
        Building((0.0, 0.0), 0.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        Building((0.0, 0.0), 20.0, -0.1, 10.0)
    with pytest.raises(ValueError):
        Building((0.0, 0.0), 20.0, math.pi, 10.0)


# ------------------------------------------------------------ wall cutting

def wall(center, length_m=20.0, orientation_rad=math.pi / 2.0, height_m=15.0):
    return Building(center, length_m, orientation_rad, height_m)


def test_count_blockages_cuts_wall_below_top():
    # path drops from 5 m to ground; the wall at the midpoint is met at 2.5 m
    assert count_blockages((0.1, 0.0, 5.0), (0.0, 0.0, 0.0), [wall((0.05, 0.0))]) == 1


def test_count_blockages_passes_over_short_wall():
    short = wall((0.05, 0.0), height_m=2.0)
    assert count_blockages((0.1, 0.0, 5.0), (0.0, 0.0, 0.0), [short]) == 0


def test_count_blockages_parallel_offset_wall_misses():
    offset = wall((0.05, 0.01), orientation_rad=0.0)
    assert count_blockages((0.1, 0.0, 5.0), (0.0, 0.0, 0.0), [offset]) == 0


def test_count_blockages_endpoint_contact_counts():
    # wall endpoints at y = 0 and y = 0.02; the path along y = 0 touches one
    touching = Building((0.05, 0.01), 20.0, math.pi / 2.0, 15.0)
    assert touching.center[1] - touching.length_m * 1e-3 / 2.0 == 0.0
    assert count_blockages((0.1, 0.0, 5.0), (0.0, 0.0, 0.0), [touching]) == 1


def test_count_blockages_counts_each_wall_once():
    walls = [wall((0.02, 0.0)), wall((0.05, 0.0)), wall((0.08, 0.0)), wall((0.05, 0.01), orientation_rad=0.0)]
    assert count_blockages((0.1, 0.0, 5.0), (0.0, 0.0, 0.0), walls) == 3


def test_count_blockages_vertical_path():
    flat = Building((0.05, 0.0), 20.0, 0.0, 15.0)  # spans x in [0.04, 0.06] at y=0
    assert count_blockages((0.05, 0.0, 10.0), (0.05, 0.0, 0.0), [flat]) == 1
    assert count_blockages((0.051, 0.001, 10.0), (0.051, 0.001, 0.0), [flat]) == 0


def test_count_blockages_rejects_identical_endpoints():
    with pytest.raises(ValueError):
        count_blockages((0.1, 0.0, 5.0), (0.1, 0.0, 5.0), [])


def _random_scene(rng):
    tx = (rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(2.0, 35.0))
    rx = (rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(0.0, 2.0))
    buildings = random_buildings(rng, int(rng.integers(0, 12)), span_km=0.06)
    return tx, rx, buildings


def test_count_blockages_translation_invariance():
    rng = np.random.default_rng(31)
    for _ in range(200):
        tx, rx, buildings = _random_scene(rng)
        dx, dy = rng.uniform(-3, 3, 2)
        shifted = [replace(b, center=(b.center[0] + dx, b.center[1] + dy)) for b in buildings]
        base = count_blockages(tx, rx, buildings)
        moved = count_blockages(
            (tx[0] + dx, tx[1] + dy, tx[2]), (rx[0] + dx, rx[1] + dy, rx[2]), shifted
        )
        assert base == moved


def test_count_blockages_symmetry():
    rng = np.random.default_rng(32)
    for _ in range(200):
        tx, rx, buildings = _random_scene(rng)
        assert count_blockages(tx, rx, buildings) == count_blockages(rx, tx, buildings)


def test_count_blockages_monotonicity():
    rng = np.random.default_rng(33)
    for _ in range(200):
        tx, rx, buildings = _random_scene(rng)
        base = count_blockages(tx, rx, buildings)
        if buildings:
            taller = [replace(b, height_m=b.height_m + rng.uniform(0.0, 30.0)) for b in buildings]
            assert count_blockages(tx, rx, taller) >= base
        extra = buildings + random_buildings(rng, 1, span_km=0.06)
        assert count_blockages(tx, rx, extra) >= base


def test_origin_batch_matches_per_link_counts():
    rng = np.random.default_rng(34)
    for _ in range(50):
        n_w = int(rng.integers(1, 40))
        wap_xy = rng.uniform(-0.4, 0.4, (n_w, 2))
        wap_z = rng.uniform(2.0, 35.0, n_w)
        user_z = float(rng.uniform(0.0, 2.0))
        buildings = random_buildings(rng, int(rng.integers(0, 40)), span_km=0.3)
        # include walls hugging the origin to exercise the full-scan guard
        buildings += random_buildings(rng, 2, span_km=0.01)

        centers = np.array([b.center for b in buildings])
        half = np.array([b.length_m for b in buildings]) * 1e-3 / 2.0
        orient = np.array([b.orientation_rad for b in buildings])
        hv = half[:, None] * np.column_stack((np.cos(orient), np.sin(orient)))
        heights = np.array([b.height_m for b in buildings])

        batch = blockage_counts_from_origin(
            wap_xy, wap_z, user_z, centers + hv, centers - hv, heights
        )
        per_link = np.array(
            [
                count_blockages((x, y, z), (0.0, 0.0, user_z), buildings)
                for (x, y), z in zip(wap_xy, wap_z)
            ]
        )
        assert np.array_equal(batch, per_link)


def test_footprint_crossing_rate_matches_line_process_formula():
    # mean cuts of a length-l path: 2 * density * E[length] * l / pi
    rng = np.random.default_rng(40)
    density = 600.0
    length_km = 0.1
    mean_len_km = 0.0225
    field = Region((0.0, 0.0), 0.13)
    expected = 2.0 * density * mean_len_km * length_km / math.pi

    n_fields = 2000
    paths_per_field = 50
    field_means = np.empty(n_fields)
    for i in range(n_fields):
        centers = sample_ppp(density, field, rng)
        n_b = len(centers)
        lengths = rng.uniform(20.0, 25.0, n_b)  # E[L] = 22.5 m
        orient = rng.uniform(0.0, math.pi, n_b)
        hv = (lengths * 1e-3 / 2.0)[:, None] * np.column_stack((np.cos(orient), np.sin(orient)))
        heights = np.full(n_b, TALL)
        bearing = rng.uniform(0.0, 2.0 * math.pi, paths_per_field)
        ends = length_km * np.column_stack((np.cos(bearing), np.sin(bearing)))
        counts = blockage_counts_from_origin(
            ends, np.zeros(paths_per_field), 0.0, centers + hv, centers - hv, heights
        )
        field_means[i] = counts.mean()

    observed = field_means.mean()
    assert observed == pytest.approx(expected, rel=0.05)
    # and comfortably within sampling noise of the formula
    se = field_means.std(ddof=1) / math.sqrt(n_fields)
    assert abs(observed - expected) < 4.0 * se
