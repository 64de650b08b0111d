import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hetnetsim.geometry import (
    MIN_LINK_DISTANCE_KM,
    _crossing_mask,
    _wrap_to_pi,
    blockage_counts_from_origin,
    sample_network,
    sample_ppp,
    wrap_angle_deg,
)
from hetnetsim.scenario import Scenario
from hetnetsim.simulation import _drop_terms, _sample_drop, sector_mean_powers

from conftest import metro_dbm, path_wall_count, random_walls, scene

TALL = 1e9  # wall height that never passes the height test


def small_scenario(radius_km=2.0):
    return replace(Scenario(), region_radius_km=radius_km)


# ---------------------------------------------------------------- sampling

def test_sample_ppp_zero_density_is_empty():
    rng = np.random.default_rng(0)
    points = sample_ppp(0.0, 5.0, rng)
    assert points.shape == (0, 2)


def test_sample_ppp_rejects_negative_density():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="density"):
        sample_ppp(-1.0, 5.0, rng)


def test_sample_ppp_count_moments():
    # mean and variance of the count both equal density * area
    rng = np.random.default_rng(42)
    lam = 6.0 / math.pi  # mean count 6 on the unit disc
    counts = np.array([len(sample_ppp(lam, 1.0, rng)) for _ in range(10_000)])
    se_mean = math.sqrt(6.0 / len(counts))
    assert counts.mean() == pytest.approx(6.0, abs=3.0 * se_mean)
    # Var(s^2) ~ (mu4 - sigma^4)/n with mu4 = lam(1+3lam) for Poisson
    se_var = math.sqrt((6.0 * 19.0 - 36.0) / len(counts))
    assert counts.var(ddof=1) == pytest.approx(6.0, abs=3.0 * se_var)


def test_sample_ppp_count_is_poisson():
    # chi-square goodness of fit against the exact pmf at significance 0.01
    rng = np.random.default_rng(7)
    counts = np.array([len(sample_ppp(6.0 / math.pi, 1.0, rng)) for _ in range(10_000)])
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
    points = sample_ppp(2000.0 / math.pi, 1.0, rng)
    r2 = (points**2).sum(axis=1)
    # r^2 is uniform on (0, R^2) for a uniform disc
    se = 1.0 / math.sqrt(12.0 * len(points))
    assert r2.mean() == pytest.approx(0.5, abs=3.0 * se)
    angles = np.arctan2(points[:, 1], points[:, 0])
    observed, _ = np.histogram(angles, bins=8, range=(-math.pi, math.pi))
    _, p_value = stats.chisquare(observed)
    assert p_value > 0.01
    assert np.all(r2 <= 1.0 + 1e-12)


# ---------------------------------------------------------- sample_network

def test_place_network_fields_and_distributions():
    scn = small_scenario()
    net = sample_network(scn, np.random.default_rng(5))
    assert len(net.macro_xy) and len(net.metro_xy) and len(net.building_center_xy)
    assert net.macro_xy.shape == (len(net.macro_azimuth0_rad), 2)
    assert np.all((0.0 <= net.macro_azimuth0_rad) & (net.macro_azimuth0_rad < 2.0 * math.pi))
    assert np.all((20.0 <= net.building_length_m) & (net.building_length_m <= 30.0))
    assert np.all((10.0 <= net.building_height_m) & (net.building_height_m <= 20.0))
    assert np.all((0.0 <= net.building_orientation_rad) & (net.building_orientation_rad < math.pi))
    e1, e2 = net.wall_endpoints()
    assert np.allclose((e1 + e2) / 2.0, net.building_center_xy, rtol=0.0, atol=1e-15)
    assert np.allclose(np.hypot(*(e1 - e2).T) * 1e3, net.building_length_m, rtol=1e-12)


def test_metro_count_tracks_macro_count_fifteen_to_one():
    assert Scenario().metro.density_per_km2 == 15.0 * Scenario().macro.density_per_km2
    scn = small_scenario()
    rng = np.random.default_rng(11)
    n_macro = n_metro = 0
    for _ in range(30):
        net = sample_network(scn, rng)
        n_macro += len(net.macro_xy)
        n_metro += len(net.metro_xy)
    assert 12.5 < n_metro / n_macro < 17.5


# ------------------------------------------------------------ link angles

def test_azimuth_offset_wraps_to_half_turn():
    assert wrap_angle_deg(190.0 - 10.0) == 180.0
    assert wrap_angle_deg(-180.0) == 180.0
    assert wrap_angle_deg(190.0) == -170.0
    assert wrap_angle_deg(0.0) == 0.0
    angles = np.random.default_rng(21).uniform(-1000.0, 1000.0, 200)
    wrapped = wrap_angle_deg(angles)
    assert np.all((-180.0 < wrapped) & (wrapped <= 180.0))
    assert np.allclose(np.mod(wrapped - angles + 180.0, 360.0), 180.0, rtol=0.0, atol=1e-9)


# ------------------------------------------------------------ link angles

METRO = Scenario().metro
METRO_GAIN = METRO.antenna().pattern.total_gain_dbi


def metro_loss_db(d3d_km):
    return METRO.pathloss_intercept_db + METRO.pathloss_slope_db * math.log10(d3d_km)


def test_link_geometry_boresight_ray():
    # 5 m mast 100 m away: the user is seen 2.862 deg below the horizon
    expected = METRO.tx_power_dbm + METRO_GAIN(0.0, 2.8624052261117474, 0.0)
    expected -= metro_loss_db(math.hypot(0.1, 0.005))
    assert metro_dbm(Scenario(), (0.1, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_link_geometry_level_path_has_zero_elevation():
    expected = METRO.tx_power_dbm + METRO_GAIN(0.0, 0.0, 0.0) - metro_loss_db(0.25)
    level = replace(Scenario(), user_height_m=5.0)
    assert metro_dbm(level, (0.25, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_link_geometry_clamps_coincident_positions():
    at_user = metro_dbm(Scenario(), (0.0, 0.0))
    assert at_user == metro_dbm(Scenario(), (MIN_LINK_DISTANCE_KM, 0.0))
    expected = METRO.tx_power_dbm + METRO_GAIN(0.0, math.degrees(math.atan2(5.0, 1.0)), 0.0)
    assert at_user == pytest.approx(expected - metro_loss_db(math.hypot(1e-3, 5e-3)), rel=1e-12)


def test_link_geometry_random_invariants():
    # gain never exceeds the peak and d_3d >= d_2d, so no sector beats its
    # transmit power plus peak gain minus the path loss at the ground distance
    scn = Scenario()
    rng = np.random.default_rng(21)
    for _ in range(20):
        n1, n2 = rng.integers(0, 5), rng.integers(1, 10)
        macro_az = rng.uniform(0.0, 2.0 * math.pi, n1)
        net = scene(rng.uniform(-2, 2, (n1, 2)), macro_az, rng.uniform(-2, 2, (n2, 2)))
        powers = sector_mean_powers(scn, net)
        xy = np.vstack((net.macro_xy, net.metro_xy))[powers.wap_index]
        d2d = np.maximum(np.hypot(xy[:, 0], xy[:, 1]), MIN_LINK_DISTANCE_KM)
        is_macro = powers.wap_index < n1
        for cfg, peak, sel in (
            (scn.macro, scn.macro.max_gain_dbi, is_macro),
            (METRO, METRO.antenna().pattern.max_gain_dbi, ~is_macro),
        ):
            loss = cfg.pathloss_intercept_db + cfg.pathloss_slope_db * np.log10(d2d[sel])
            assert np.all(powers.power_dbm[sel] <= cfg.tx_power_dbm + peak - loss + 1e-9)


# ------------------------------------------------------------ wall cutting

def wall(center, length_m=20.0, orientation_rad=math.pi / 2.0, height_m=15.0):
    return (*center, length_m, orientation_rad, height_m)


WAP = (0.1, 0.0, 5.0)
USER = (0.0, 0.0, 0.0)


def test_count_blockages_cuts_wall_below_top():
    # path drops from 5 m to ground; the wall at the midpoint is met at 2.5 m
    assert path_wall_count(WAP, USER, [wall((0.05, 0.0))]) == 1


def test_count_blockages_passes_over_short_wall():
    assert path_wall_count(WAP, USER, [wall((0.05, 0.0), height_m=2.0)]) == 0


def test_count_blockages_parallel_offset_wall_misses():
    assert path_wall_count(WAP, USER, [wall((0.05, 0.01), orientation_rad=0.0)]) == 0


def test_count_blockages_endpoint_contact_counts():
    # wall endpoints at y = 0 and y = 0.02; the path along y = 0 touches one
    touching = wall((0.05, 0.01))
    assert scene(walls=[touching]).wall_endpoints()[1][0, 1] == 0.0
    assert path_wall_count(WAP, USER, [touching]) == 1


def test_count_blockages_counts_each_wall_once():
    walls = [wall((0.02, 0.0)), wall((0.05, 0.0)), wall((0.08, 0.0)), wall((0.05, 0.01), orientation_rad=0.0)]
    assert path_wall_count(WAP, USER, walls) == 3


def _random_scene(rng):
    tx = (rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(2.0, 35.0))
    rx = (rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05), rng.uniform(0.0, 2.0))
    return tx, rx, random_walls(rng, int(rng.integers(0, 12)), span_km=0.06)


def test_count_blockages_translation_invariance():
    rng = np.random.default_rng(31)
    for _ in range(200):
        tx, rx, walls = _random_scene(rng)
        dx, dy = rng.uniform(-3, 3, 2)
        shifted = walls + np.array([dx, dy, 0.0, 0.0, 0.0])
        moved = path_wall_count((tx[0] + dx, tx[1] + dy, tx[2]), (rx[0] + dx, rx[1] + dy, rx[2]), shifted)
        assert path_wall_count(tx, rx, walls) == moved


def test_count_blockages_symmetry():
    # the counter takes any user height, so the path can be walked from either end
    rng = np.random.default_rng(32)
    for _ in range(200):
        tx, rx, walls = _random_scene(rng)
        assert path_wall_count(tx, rx, walls) == path_wall_count(rx, tx, walls)


def test_count_blockages_monotonicity():
    rng = np.random.default_rng(33)
    for _ in range(200):
        tx, rx, walls = _random_scene(rng)
        base = path_wall_count(tx, rx, walls)
        taller = walls.copy()
        taller[:, 4] += rng.uniform(0.0, 30.0, len(walls))
        assert path_wall_count(tx, rx, taller) >= base
        extra = np.vstack((walls, random_walls(rng, 1, span_km=0.06)))
        assert path_wall_count(tx, rx, extra) >= base


def test_collinear_wall_is_tested_by_overlap_when_side_products_round():
    # All points on one line through the origin; the wall's endpoints are
    # exactly on each path's line, but the WAP's side product of the wall
    # rounds to ~2e-25.  Only the paths that reach the wall are cut.
    p = np.array([1e-9, -0.1015625])
    waps = np.array([-2.0, 0.25, 1.0, 2.0])[:, None] * p
    e1, e2 = 4.0 * p, 0.5 * p
    mask = _crossing_mask(waps[:, 0], waps[:, 1], 0.0, np.zeros(4), e1[0], e1[1], e2[0], e2[1], 1.0)
    assert mask.tolist() == [False, False, True, True]
    counts = blockage_counts_from_origin(waps, np.zeros(4), 0.0, e1[None], e2[None], np.ones(1))
    assert counts.tolist() == [0, 0, 1, 1]


def test_side_products_that_underflow_do_not_report_a_cut():
    # c1 * c2 = -5.75e-301 * -2.875e-301 underflows to 0, which a product
    # straddle test reads as a cut; the path points away from the wall.
    wap = np.array([[-0.125, 2.3e-300]])
    e1, e2 = np.array([[0.25, -0.0]]), np.array([[0.125, -0.0]])
    mask = _crossing_mask(wap[:, 0], wap[:, 1], 0.0, np.zeros(1), e1[:, 0], e1[:, 1], e2[:, 0], e2[:, 1], 10.0)
    assert mask.tolist() == [False]
    assert blockage_counts_from_origin(wap, np.zeros(1), 0.0, e1, e2, np.full(1, 10.0)).tolist() == [0]


def test_wall_through_the_origin_whose_length_underflows_is_scanned():
    # seg2 = |e2 - e1|^2 underflows to 0 and near2 is NaN; the wall still
    # passes through the origin, so it must be tested against every path.
    wap = np.array([[-0.125, -0.125]])
    e1, e2 = np.array([[0.0, 4.01e-262]]), np.array([[-0.0, -1.00e-262]])
    mask = _crossing_mask(wap[:, 0], wap[:, 1], 0.0, np.zeros(1), e1[:, 0], e1[:, 1], e2[:, 0], e2[:, 1], 1.0)
    assert mask.tolist() == [True]
    assert blockage_counts_from_origin(wap, np.zeros(1), 0.0, e1, e2, np.ones(1)).tolist() == [1]


@pytest.mark.parametrize(
    "wap, e1, e2",
    [
        # a WAP at the end of a wall that passes ~1e-69 km from the user
        ((7.52e-85, 1.28e-81), (-0.125, 4.17e-69), (7.52e-85, 1.28e-81)),
        # a WAP ~1e-45 km from the user, next to a wall through the user
        ((-1.4e-45, 1e-150), (1e-150, 0.126), (-5e-151, -0.0617)),
    ],
)
def test_radial_filter_keeps_cuts_of_waps_next_to_the_user(wap, e1, e2):
    # near2 carries rounding of ~eps times the wall's coordinates, far above
    # the WAP's own squared range
    wap, e1, e2 = (np.array([p]) for p in (wap, e1, e2))
    mask = _crossing_mask(wap[:, 0], wap[:, 1], 0.0, np.zeros(1), e1[:, 0], e1[:, 1], e2[:, 0], e2[:, 1], 1.0)
    assert mask.tolist() == [True]
    assert blockage_counts_from_origin(wap, np.zeros(1), 0.0, e1, e2, np.ones(1)).tolist() == [1]


def test_origin_batch_matches_per_link_counts():
    # the bearing window must not drop a pair that the all-pairs test counts
    rng = np.random.default_rng(34)
    for _ in range(50):
        n_w = int(rng.integers(1, 40))
        wap_xy = rng.uniform(-0.4, 0.4, (n_w, 2))
        wap_z = rng.uniform(2.0, 35.0, n_w)
        user_z = float(rng.uniform(0.0, 2.0))
        # include walls hugging the origin to exercise the full-scan guard
        walls = np.vstack((random_walls(rng, int(rng.integers(0, 40))), random_walls(rng, 2, span_km=0.01)))
        net = scene(walls=walls)
        e1, e2 = net.wall_endpoints()

        batch = blockage_counts_from_origin(wap_xy, wap_z, user_z, e1, e2, net.building_height_m)
        all_pairs = _crossing_mask(
            wap_xy[:, :1], wap_xy[:, 1:], user_z, wap_z[:, None],
            e1[:, 0], e1[:, 1], e2[:, 0], e2[:, 1], net.building_height_m,
        )
        assert np.array_equal(batch, all_pairs.sum(axis=1))


def all_pairs_counts(wap_xy, wap_z, user_z, e1, e2, wall_h, chunk=256):
    """Row sums of `_crossing_mask` over every (WAP, wall) pair, ``chunk``
    walls at a time."""
    counts = np.zeros(len(wap_xy), dtype=np.int64)
    for lo in range(0, len(wall_h), chunk):
        w = slice(lo, lo + chunk)
        counts += _crossing_mask(
            wap_xy[:, :1], wap_xy[:, 1:], user_z, wap_z[:, None],
            e1[w, 0], e1[w, 1], e2[w, 0], e2[w, 1], wall_h[w],
        ).sum(axis=1)
    return counts


# Dyadic coordinates (km) make exact ties, collinear walls and points on the
# -x axis (bearing +-pi) common; the floats cover general position down to
# subnormal coordinates, where products underflow.
_GRID = st.sampled_from([k / 64.0 for k in range(-8, 9)] + [-0.0])
_COORD = st.one_of(_GRID, st.floats(-0.15, 0.15))
_POINT = st.tuples(_COORD, _COORD)
_SCALE = st.sampled_from([0.25, 0.5, 1.0, 2.0])  # exact, so bearings tie exactly


@st.composite
def counter_scenes(draw):
    """WAPs and walls around the origin user, with optional constructions
    for each way the bearing window, the radial filter and the crossing
    test can be reached: walls through the origin, walls and WAPs on the
    +-pi seam, several WAPs on one bearing, walls along a WAP's line on
    either side of the origin, and WAPs at wall endpoints.
    """
    waps = draw(st.lists(_POINT, min_size=1, max_size=8))
    walls = draw(st.lists(st.tuples(_POINT, _POINT), max_size=8))
    if draw(st.booleans()):  # through the origin
        p, k = draw(_POINT), -draw(_SCALE)
        walls.append((p, (k * p[0], k * p[1])))
    if draw(st.booleans()):  # the -x axis: bearings pi (y = 0.0) and -pi (y = -0.0)
        x = -draw(st.floats(1e-3, 0.15))
        waps += [(x, 0.0), (x, -0.0)]
        y = draw(st.floats(1e-3, 0.15))
        walls.append(((draw(st.floats(-0.15, 0.0)), y), (draw(st.floats(-0.15, 0.0)), -y)))
    if draw(st.booleans()):  # the same bearing at other ranges
        p = draw(st.sampled_from(waps))
        waps += [(k * p[0], k * p[1]) for k in draw(st.lists(_SCALE, min_size=1, max_size=3))]
    if draw(st.booleans()):  # a wall along a WAP's line, on its ray or the opposite one
        p = draw(st.sampled_from(waps))
        sign = draw(st.sampled_from([1.0, -1.0]))
        a, b = sign * draw(_SCALE), sign * draw(_SCALE)
        walls.append(((a * p[0], a * p[1]), (b * p[0], b * p[1])))
    if walls and draw(st.booleans()):  # a WAP at a wall endpoint
        waps.append(draw(st.sampled_from(walls))[draw(st.integers(0, 1))])
    walls = [w for w in walls if w[0] != w[1]] or [((0.01, -0.01), (0.01, 0.01))]
    n_w, n_b = len(waps), len(walls)
    e1, e2 = (np.array([w[i] for w in walls], dtype=float).reshape(-1, 2) for i in (0, 1))
    return (
        np.array(waps, dtype=float),
        np.array(draw(st.lists(st.floats(0.0, 40.0), min_size=n_w, max_size=n_w))),
        draw(st.floats(0.0, 5.0)),
        e1,
        e2,
        np.array(draw(st.lists(st.floats(0.5, 30.0), min_size=n_b, max_size=n_b))),
    )


@settings(max_examples=200, deadline=None)
@given(counter_scenes())
def test_counter_equals_all_pairs_crossing_mask(case):
    assert np.array_equal(blockage_counts_from_origin(*case), all_pairs_counts(*case))


def overlap_reference(bx, by, za, zb, e1, e2, wall_h):
    """Cut test for a wall on the path's line, one pair at a time: the
    overlap of path and wall, tested at its midpoint."""
    r2 = bx * bx + by * by
    if r2 == 0.0:
        return False
    s1 = (e1[0] * bx + e1[1] * by) / r2
    s2 = (e2[0] * bx + e2[1] * by) / r2
    lo, hi = max(0.0, min(s1, s2)), min(1.0, max(s1, s2))
    return lo <= hi and za + 0.5 * (lo + hi) * (zb - za) <= wall_h


_SIGNED_SCALE = st.sampled_from([-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(
    _POINT,
    st.lists(st.tuples(_SIGNED_SCALE, st.floats(0.0, 40.0)), min_size=1, max_size=6),
    st.lists(st.tuples(_SIGNED_SCALE, _SIGNED_SCALE, st.floats(0.5, 30.0)), min_size=1, max_size=6),
    st.floats(0.0, 5.0),
)
def test_collinear_walls_match_the_pairwise_overlap_test(p, waps, walls, za):
    # WAPs and wall ends at power-of-two multiples of one point, so every
    # side product c1, c2 is exactly zero
    k, zb = (np.array(col) for col in zip(*waps))
    a, b, h = (np.array(col) for col in zip(*walls))
    bx, by = (k * p[0])[:, None], (k * p[1])[:, None]
    e1, e2 = np.column_stack((a * p[0], a * p[1])), np.column_stack((b * p[0], b * p[1]))
    mask = _crossing_mask(bx, by, za, zb[:, None], e1[:, 0], e1[:, 1], e2[:, 0], e2[:, 1], h)
    expected = [
        [overlap_reference(bx[i, 0], by[i, 0], za, zb[i], e1[j], e2[j], h[j]) for j in range(len(h))]
        for i in range(len(k))
    ]
    assert mask.tolist() == expected


def test_counter_equals_all_pairs_on_default_drops():
    # the engine's own inputs at full scale, so the bearing table sees the
    # default bin occupancy
    scn = Scenario()
    n_crossings = 0
    for drop_index in range(8):
        net, _ = _sample_drop(scn, drop_index)
        counts = _drop_terms(scn, net).wap_blockages
        n1, n2 = len(net.macro_xy), len(net.metro_xy)
        wap_z = np.concatenate((np.full(n1, scn.macro.height_m), np.full(n2, scn.metro.height_m)))
        expected = all_pairs_counts(
            np.vstack((net.macro_xy, net.metro_xy)), wap_z, scn.user_height_m,
            *net.wall_endpoints(), net.building_height_m,
        )
        assert np.array_equal(counts, expected)
        n_crossings += int(expected.sum())
    assert n_crossings > 8 * 1000


def test_wrap_to_pi_matches_np_mod():
    two_pi = 2.0 * math.pi
    edges = [-2.0 * math.pi, -math.pi, -0.0, 0.0, math.pi, 2.0 * math.pi, 2.5 * math.pi]
    x = np.concatenate((
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        np.random.default_rng(41).uniform(-3.0 * math.pi, 3.0 * math.pi, 100_000),
    ))
    x = x[np.abs(x) < 3.0 * math.pi]
    expected = np.mod(x + math.pi, two_pi) - math.pi
    assert np.array_equal(_wrap_to_pi(x), expected)


def test_footprint_crossing_rate_matches_line_process_formula():
    # mean cuts of a length-l path: 2 * density * E[length] * l / pi
    rng = np.random.default_rng(40)
    density = 600.0
    length_km = 0.1
    mean_len_km = 0.0225
    field_radius_km = 0.13
    expected = 2.0 * density * mean_len_km * length_km / math.pi

    n_fields = 2000
    paths_per_field = 50
    field_means = np.empty(n_fields)
    for i in range(n_fields):
        centers = sample_ppp(density, field_radius_km, rng)
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
