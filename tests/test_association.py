import math
from dataclasses import replace

import numpy as np
import pytest

from hetnetsim.association import DegenerateNetworkError, serving_sector, step3_prefers_metro
from hetnetsim.geometry import Tier
from hetnetsim.scenario import Scenario
from hetnetsim.simulation import evaluate_sample, sector_mean_powers

from conftest import engine_associate, oracle_associate, random_sites, random_walls, scene

SCN = Scenario()  # user on the ground, -40 dB per wall, 6 dB bias
TALL_WALL = (-0.05, 0.0, 20.0, math.pi / 2.0, 1000.0)
# an unblocked metro and its wall-shadowed twin, seen on a level path
TWINS = scene(metro_xy=[(0.1, 0.0), (-0.1, 0.0)], walls=[TALL_WALL])
LEVEL = replace(SCN, user_height_m=5.0)


def with_bias(bias_db):
    return replace(SCN, sir_bias_db=bias_db)


def boosted(scn, db=10.0):
    return replace(
        scn,
        macro=replace(scn.macro, tx_power_dbm=scn.macro.tx_power_dbm + db),
        metro=replace(scn.metro, tx_power_dbm=scn.metro.tx_power_dbm + db),
    )


def random_scene(rng, n_macro, n_metro, n_walls, span_km=0.8, wall_span_km=0.6):
    return scene(*random_sites(rng, n_macro, n_metro, span_km), random_walls(rng, n_walls, wall_span_km))


def test_asair_two_candidate_hand_value():
    # unblocked metro at -60.8 dBm vs a wall-shadowed twin at -100.8 dBm
    p = sector_mean_powers(LEVEL, TWINS).power_dbm
    assert p == pytest.approx([-60.8, -100.8], abs=1e-9)
    linear = 10.0 ** (p / 10.0)
    assert 10.0 * math.log10(linear[0] / linear[1]) == pytest.approx(40.0, abs=1e-9)


def test_asair_identical_colocated_candidates():
    net = scene(metro_xy=[(0.1, 0.0), (0.1, 0.0)])
    p = sector_mean_powers(SCN, net).power_dbm
    assert p[0] == p[1]
    assert engine_associate(SCN, net) == (Tier.METRO, (0, 0))
    # with unit fading the SIR is the serving sector's ASAIR
    assert evaluate_sample(SCN, net).sir_db == pytest.approx(0.0, abs=1e-12)


def test_asair_requires_an_interferer():
    with pytest.raises(DegenerateNetworkError):
        serving_sector(np.array([-60.0]), 0, 6.0, np.array([1e-6]))
    with pytest.raises(DegenerateNetworkError):
        evaluate_sample(SCN, scene(metro_xy=[(0.1, 0.0)]))


def test_asair_invariant_to_common_power_scaling():
    net = random_scene(np.random.default_rng(17), 2, 4, 8, span_km=0.6, wall_span_km=0.5)
    base = sector_mean_powers(SCN, net).power_dbm
    assert sector_mean_powers(boosted(SCN), net).power_dbm - base == pytest.approx(10.0, abs=1e-9)
    assert evaluate_sample(boosted(SCN), net).sir_db == pytest.approx(
        evaluate_sample(SCN, net).sir_db, abs=1e-9
    )


def test_step3_boundary_prefers_metro():
    # the >= comparison: a metro exactly bias below the macro still wins
    assert step3_prefers_metro(3.0, -3.0, 6.0)
    assert not step3_prefers_metro(3.0, math.nextafter(-3.0, -4.0), 6.0)


def test_associate_single_tier_skips_the_bias_test():
    macros = scene([(0.5, 0.0), (-0.7, 0.3)], [0.0, 0.0])
    assert engine_associate(with_bias(math.inf), macros)[0] is Tier.MACRO
    metros = scene(metro_xy=[(0.1, 0.0), (0.3, 0.1)])
    assert engine_associate(with_bias(-math.inf), metros) == (Tier.METRO, (0, 0))


def test_associate_requires_some_wap():
    with pytest.raises(DegenerateNetworkError):
        engine_associate(SCN, scene())


def test_associate_breaks_exact_ties_by_lowest_index():
    # mirror-image macros produce bitwise-equal sector powers
    net = scene([(-1.0, 0.0), (1.0, 0.0)], [0.0, math.pi])
    p = sector_mean_powers(SCN, net).power_dbm
    assert p[0] == p[3]
    assert engine_associate(SCN, net) == (Tier.MACRO, (0, 0))


def test_bias_extremes_force_the_tier():
    rng = np.random.default_rng(23)
    for _ in range(20):
        net = random_scene(rng, 2, 3, 5)
        assert engine_associate(with_bias(-math.inf), net)[0] is Tier.MACRO
        assert engine_associate(with_bias(math.inf), net)[0] is Tier.METRO


def test_bias_monotonicity_macro_to_metro_only():
    rng = np.random.default_rng(29)
    biases = [-20.0, -10.0, -3.0, 0.0, 3.0, 6.0, 10.0, 20.0]
    for _ in range(40):
        net = random_scene(rng, int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(0, 10)))
        picked_metro = [engine_associate(with_bias(b), net)[0] is Tier.METRO for b in biases]
        # once metro, always metro as the bias keeps growing
        assert picked_metro == sorted(picked_metro)


def test_decision_invariant_to_common_power_scaling():
    rng = np.random.default_rng(31)
    for _ in range(20):
        net = random_scene(rng, 2, 4, 6)
        assert engine_associate(boosted(SCN), net) == engine_associate(SCN, net)


def test_associate_matches_brute_force_oracle():
    rng = np.random.default_rng(37)
    for _ in range(50):
        n_macro = int(rng.integers(0, 5))
        n_metro = int(rng.integers(0, 10 - n_macro))
        if n_macro + n_metro < 2:
            n_macro, n_metro = 1, 1
        net = random_scene(rng, n_macro, n_metro, int(rng.integers(0, 12)))
        scn = with_bias(float(rng.uniform(-6.0, 12.0)))
        assert engine_associate(scn, net) == oracle_associate(scn, net)


def test_decision_reports_the_serving_asair():
    drop = evaluate_sample(LEVEL, TWINS)
    assert drop.tier is Tier.METRO and drop.serving_blockages == 0
    # with unit fading the SIR is the serving sector's ASAIR
    assert drop.sir_db == pytest.approx(40.0, abs=1e-9)
