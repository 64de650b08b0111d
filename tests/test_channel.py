"""Channel model as the engine evaluates it: path loss, wall shadowing, fading."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hetnetsim.geometry import Tier
from hetnetsim.scenario import Scenario, validate_scenario
from hetnetsim.simulation import _sample_drop, sector_mean_powers

from conftest import metro_dbm, scene

SCN = Scenario()
LEVEL = replace(SCN, user_height_m=SCN.metro.height_m)
TALL_WALL = (0.05, 0.0, 20.0, math.pi / 2.0, 1000.0)


def level_path_loss_db(tier, d_km):
    """Path loss of sites at ``d_km`` on the x axis, read off the engine's
    powers on level boresight paths, where the gain is the peak gain."""
    d_km = np.atleast_1d(np.asarray(d_km, dtype=float))
    xy = np.column_stack((d_km, np.zeros_like(d_km)))
    if tier is Tier.MACRO:
        scn = replace(SCN, user_height_m=SCN.macro.height_m, macro=replace(SCN.macro, downtilt_deg=0.0))
        p = sector_mean_powers(scn, scene(xy, np.full(len(d_km), math.pi))).power_dbm[0::3]
        return scn.macro.tx_power_dbm + scn.macro.max_gain_dbi - p
    p = sector_mean_powers(LEVEL, scene(metro_xy=xy)).power_dbm
    return SCN.metro.tx_power_dbm + SCN.metro.antenna().pattern.max_gain_dbi - p


def test_path_loss_reference_values():
    assert level_path_loss_db(Tier.MACRO, 1.0)[0] == pytest.approx(128.1, abs=1e-9)
    assert level_path_loss_db(Tier.MACRO, 0.5)[0] == pytest.approx(116.7812721630343, abs=1e-9)
    assert level_path_loss_db(Tier.METRO, 0.1)[0] == pytest.approx(104.0, abs=1e-9)


def test_path_loss_model_rejects_nonpositive_slope():
    for tier in ("macro", "metro"):
        scn = replace(SCN, **{tier: replace(getattr(SCN, tier), pathloss_slope_db=0.0)})
        with pytest.raises(ValueError, match=f"{tier}.pathloss_slope_db"):
            validate_scenario(scn)


def test_path_loss_is_increasing_in_distance():
    d = np.linspace(0.001, 5.0, 500)
    for tier in Tier:
        assert np.all(np.diff(level_path_loss_db(tier, d)) > 0.0)


def test_shadow_db_is_linear_in_count():
    walls = [(x, 0.0, 20.0, math.pi / 2.0, 1000.0) for x in (0.02, 0.05, 0.08)]
    clear = metro_dbm(LEVEL, (0.1, 0.0))
    for k in range(4):
        shadowed = metro_dbm(LEVEL, (0.1, 0.0), walls[:k])
        assert shadowed == pytest.approx(clear + k * SCN.buildings.attenuation_db, abs=1e-9)


def test_mean_rx_power_composes_the_link_budget():
    # level 100 m boresight ray: 33 dBm + 10.2 dBi - 104.0 dB path loss
    power = metro_dbm(LEVEL, (0.1, 0.0))
    assert power == pytest.approx(-60.8, abs=1e-9)
    blocked = metro_dbm(LEVEL, (0.1, 0.0), [TALL_WALL])
    assert blocked == pytest.approx(-100.8, abs=1e-9)
    assert blocked == pytest.approx(power - 40.0, abs=1e-12)


def test_each_extra_wall_subtracts_the_attenuation():
    second = (0.07, 0.0, 20.0, math.pi / 2.0, 1000.0)
    two = metro_dbm(LEVEL, (0.1, 0.0), [TALL_WALL, second])
    assert two == pytest.approx(metro_dbm(LEVEL, (0.1, 0.0), [TALL_WALL]) - 40.0, abs=1e-12)


def test_mean_rx_power_decreases_with_distance():
    # heights kept equal so the ray stays on the vertical boresight; the
    # metro pattern is omnidirectional, so the bearing does not matter
    previous = math.inf
    for d, bearing in zip((0.05, 0.1, 0.2, 0.5, 1.0, 2.0), np.linspace(0.0, 5.0, 6)):
        p = metro_dbm(LEVEL, (d * math.cos(bearing), d * math.sin(bearing)))
        assert p < previous
        previous = p


def test_fading_is_unit_mean_exponential():
    scn = replace(SCN, region_radius_km=2.0)
    draws = []
    for i in range(1000):
        net, fading = _sample_drop(scn, i)
        assert fading.shape == (net.n_sectors,)
        draws.append(fading)
    draws = np.concatenate(draws)
    assert np.all(draws >= 0.0)
    assert draws.mean() == pytest.approx(1.0, abs=0.005)
    assert np.mean(draws <= 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=0.01)
