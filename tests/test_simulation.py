import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnetsim.antenna import METRO_ANTENNAS
from hetnetsim.association import DegenerateNetworkError
from hetnetsim.geometry import Tier
from hetnetsim.scenario import PowerMode, Scenario
from hetnetsim.simulation import (
    DropResult,
    aggregate,
    cell_radius,
    evaluate_sample,
    result_row,
    run_drop,
    run_many,
    run_sweep,
    sector_mean_powers,
    sweep_scenarios,
)

from conftest import engine_associate, oracle_associate, oracle_sector_powers, scene

LIGHT = replace(Scenario(), region_radius_km=1.5, drops=64, master_seed=3)


# ------------------------------------------------------------- determinism

def test_run_drop_is_bit_identical_for_fixed_seed_and_index():
    scn = LIGHT
    assert run_drop(scn, 17) == run_drop(scn, 17)
    assert run_drop(scn, 17) != run_drop(scn, 18)


def test_run_many_is_independent_of_worker_count():
    scn = replace(LIGHT, drops=40)
    assert run_many(scn, workers=1) == run_many(scn, workers=2)


def test_run_drop_rejects_negative_index():
    with pytest.raises(ValueError):
        run_drop(LIGHT, -1)


def test_empty_network_is_a_degenerate_drop():
    scn = replace(
        LIGHT,
        macro=replace(LIGHT.macro, density_per_km2=0.0),
        metro=replace(LIGHT.metro, density_per_km2=0.0),
    )
    with pytest.raises(DegenerateNetworkError):
        run_drop(scn, 0)


# ------------------------------------------------------- engine vs oracles

def _sized_lists(n, element):
    return st.lists(element, min_size=n, max_size=n)


@st.composite
def desk_scenes(draw):
    """A scenario with any bias and metro antenna, and a small network of at
    least two sectors around the origin user."""
    coord = st.floats(-0.8, 0.8)
    n_macro = draw(st.integers(0, 4))
    n_metro = draw(st.integers(0 if n_macro else 2, 9))
    net = scene(
        draw(_sized_lists(n_macro, st.tuples(coord, coord))),
        draw(_sized_lists(n_macro, st.floats(0.0, 2.0 * math.pi, exclude_max=True))),
        draw(_sized_lists(n_metro, st.tuples(coord, coord))),
        draw(
            st.lists(
                st.tuples(
                    coord, coord, st.floats(5.0, 40.0), st.floats(0.0, math.pi, exclude_max=True),
                    st.floats(0.5, 25.0),
                ),
                max_size=12,
            )
        ),
    )
    name = draw(st.sampled_from(sorted(METRO_ANTENNAS)))
    tilt = draw(st.floats(0.0, 40.0)) if METRO_ANTENNAS[name].tiltable else 0.0
    scn = replace(
        Scenario(),
        sir_bias_db=draw(st.floats(-6.0, 12.0)),
        metro=replace(Scenario().metro, pattern=name, downtilt_deg=tilt),
    )
    return scn, net


ORACLE_SETTINGS = settings(max_examples=200, deadline=None)


@ORACLE_SETTINGS
@given(desk_scenes())
def test_engine_powers_match_the_scalar_link_budget(case):
    scn, net = case
    powers = sector_mean_powers(scn, net)
    oracle = oracle_sector_powers(scn, net)
    keys = list(zip(powers.wap_index.tolist(), powers.sector_index.tolist()))
    assert keys == list(oracle)
    assert powers.power_dbm == pytest.approx([p for _, p in oracle.values()], rel=1e-12)


@ORACLE_SETTINGS
@given(desk_scenes())
def test_engine_association_matches_the_oracle(case):
    scn, net = case
    assert engine_associate(scn, net) == oracle_associate(scn, net)


def test_unit_fading_drop_matches_hand_computation():
    # one macro aimed at the user plus one metro, no walls, unit fading
    scn = Scenario()
    net = scene([(1.0, 0.0)], [math.pi], [(0.1, 0.0)])
    drop = evaluate_sample(scn, net)

    linear = [10.0 ** (p / 10.0) for _, p in oracle_sector_powers(scn, net).values()]
    total = sum(linear)
    asair_macro = 10.0 * math.log10(linear[0] / (total - linear[0]))
    asair_metro = 10.0 * math.log10(linear[3] / (total - linear[3]))
    serving = 3 if asair_metro >= asair_macro - scn.sir_bias_db else 0
    sir = linear[serving] / (total - linear[serving])

    assert drop.tier is (Tier.METRO if serving == 3 else Tier.MACRO)
    assert drop.sir_db == pytest.approx(10.0 * math.log10(sir), rel=1e-9)
    assert drop.spectral_efficiency == pytest.approx(math.log2(1.0 + sir), rel=1e-9)
    assert drop.serving_blockages == 0


def test_sir_invariant_to_a_common_power_offset():
    scn = LIGHT
    boosted = replace(
        scn,
        macro=replace(scn.macro, tx_power_dbm=scn.macro.tx_power_dbm + 10.0),
        metro=replace(scn.metro, tx_power_dbm=scn.metro.tx_power_dbm + 10.0),
    )
    for index in range(5):
        base = run_drop(scn, index)
        shifted = run_drop(boosted, index)
        assert shifted.tier is base.tier
        assert shifted.sir_db == pytest.approx(base.sir_db, abs=1e-9)


def test_zero_attenuation_equals_disabled_blockage():
    # walls too low to cut any path stand in for switched-off blockage; both
    # scenarios make the same draws, so they see the same networks
    neutral = replace(LIGHT, buildings=replace(LIGHT.buildings, attenuation_db=0.0), drops=50)
    flat_walls = replace(LIGHT.buildings, height_min_m=1e-9, height_max_m=1e-9)
    flat = replace(LIGHT, buildings=flat_walls, drops=50)
    with_walls = run_many(neutral)
    without = run_many(flat)
    for a, b in zip(with_walls, without):
        assert (a.tier, a.spectral_efficiency, a.sir_db) == (b.tier, b.spectral_efficiency, b.sir_db)
    assert sum(a.serving_blockages for a in with_walls) > 0
    assert sum(b.serving_blockages for b in without) == 0
    metrics_a = aggregate(with_walls, neutral.macro.density_per_km2, neutral.metro.density_per_km2)
    metrics_b = aggregate(without, neutral.macro.density_per_km2, neutral.metro.density_per_km2)
    assert metrics_a == metrics_b


# -------------------------------------------------------------- aggregation

def test_aggregate_hand_example():
    drops = [
        DropResult(Tier.MACRO, 2.0, 3.0, 0),
        DropResult(Tier.METRO, 4.0, 6.0, 1),
    ]
    m = aggregate(drops, 2.05, 30.75)
    assert m.ase_bps_hz_km2 == pytest.approx(135.3, abs=1e-9)
    assert m.avg_rate_bps_hz == pytest.approx(3.0, abs=1e-12)
    assert m.metro_fraction == 0.5
    assert m.macro_rate_bps_hz == 2.0 and m.metro_rate_bps_hz == 4.0
    # stored fields satisfy the defining identities exactly
    assert m.ase_bps_hz_km2 == 3.0 * 2.05 * m.macro_rate_bps_hz + 30.75 * m.metro_rate_bps_hz
    assert m.avg_rate_bps_hz == m.macro_rate_bps_hz * (1 - m.metro_fraction) + m.metro_rate_bps_hz * m.metro_fraction


def test_aggregate_single_tier_warns_and_zeroes_the_other():
    drops = [DropResult(Tier.MACRO, 2.0, 3.0, 0), DropResult(Tier.MACRO, 4.0, 6.0, 0)]
    with pytest.warns(RuntimeWarning, match="no metro"):
        m = aggregate(drops, 2.05, 30.75)
    assert m.metro_fraction == 0.0
    assert m.metro_rate_bps_hz == 0.0
    assert m.ase_bps_hz_km2 == pytest.approx(3.0 * 2.05 * 3.0, abs=1e-12)


def test_aggregate_point_estimates_invariant_to_duplication():
    drops = [
        DropResult(Tier.MACRO, 1.0, 0.0, 0),
        DropResult(Tier.METRO, 2.0, 3.0, 0),
        DropResult(Tier.METRO, 5.0, 7.0, 2),
    ]
    once = aggregate(drops, 2.05, 30.75)
    twice = aggregate(drops * 2, 2.05, 30.75)
    assert twice.ase_bps_hz_km2 == pytest.approx(once.ase_bps_hz_km2, rel=1e-12)
    assert twice.avg_rate_bps_hz == pytest.approx(once.avg_rate_bps_hz, rel=1e-12)
    assert twice.metro_fraction == once.metro_fraction


def test_aggregate_requires_results():
    with pytest.raises(ValueError):
        aggregate([], 2.05, 30.75)


def test_rate_stderr_shrinks_like_root_n():
    errs = {}
    for n in (1000, 4000, 16000):
        scn = replace(LIGHT, drops=n)
        metrics = aggregate(run_many(scn, workers=2), scn.macro.density_per_km2, scn.metro.density_per_km2)
        errs[n] = metrics.rate_stderr
    assert errs[1000] / errs[4000] == pytest.approx(2.0, rel=0.3)
    assert errs[4000] / errs[16000] == pytest.approx(2.0, rel=0.3)


# -------------------------------------------------------------- cell radius

@pytest.mark.parametrize(
    "hpbw, tilt, expected_m",
    [
        (19.5, 10.0, 1145.9),
        (19.5, 20.0, 27.7),
        (19.5, 30.0, 13.6),
        (19.5, 40.0, 8.6),
        (14.0, 10.0, 95.4),
        (14.0, 20.0, 21.7),
        (14.0, 30.0, 11.8),
        (14.0, 40.0, 7.7),
    ],
)
def test_cell_radius_reference_table(hpbw, tilt, expected_m):
    assert cell_radius(5.0, 0.0, tilt, hpbw) == pytest.approx(expected_m, abs=0.1)


def test_cell_radius_unbounded_when_edge_reaches_the_horizon():
    assert cell_radius(5.0, 0.0, 5.0, 14.0) == math.inf
    assert cell_radius(5.0, 0.0, 9.75, 19.5) == math.inf  # edge exactly level


def test_cell_radius_validation():
    with pytest.raises(ValueError):
        cell_radius(5.0, 5.0, 10.0, 14.0)
    with pytest.raises(ValueError):
        cell_radius(5.0, 0.0, 90.0, 14.0)
    with pytest.raises(ValueError):
        cell_radius(5.0, 0.0, -1.0, 14.0)
    with pytest.raises(ValueError):
        cell_radius(5.0, 0.0, 10.0, 0.0)


def test_cell_radius_monotonic_in_tilt_and_beamwidth():
    radii = [cell_radius(5.0, 0.0, t, 14.0) for t in np.arange(8.0, 41.0, 1.0)]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    widths = [cell_radius(5.0, 0.0, 20.0, w) for w in (6.0, 10.0, 14.0, 19.5, 30.0)]
    assert all(a < b for a, b in zip(widths, widths[1:]))


# -------------------------------------------------------------------- sweeps

NO_METRO_DROPS = "no metro-associated drops"  # some 2-drop cells have no metro drop
TINY = replace(LIGHT, drops=2, region_radius_km=1.0)
TILTS_0_TO_40 = tuple(float(t) for t in np.arange(0.0, 41.0, 2.0))


def test_sweep_empty_grid_is_empty():
    grid = replace(LIGHT, sweep_downtilts_deg=(), sweep_patterns=("quasi_omni",))
    assert run_sweep(grid) == []


def test_sweep_skips_tilted_single_element_cells():
    cells = sweep_scenarios(replace(LIGHT, sweep_downtilts_deg=TILTS_0_TO_40))
    assert len(cells) == 3 * 21 + 1
    with pytest.warns(RuntimeWarning, match=NO_METRO_DROPS):
        rows = run_sweep(replace(TINY, sweep_downtilts_deg=TILTS_0_TO_40))
    assert len(rows) == 64
    dipole1_rows = [r for r in rows if r["pattern"] == "dipole1"]
    assert len(dipole1_rows) == 1 and dipole1_rows[0]["downtilt_deg"] == 0.0


def test_sweep_same_power_keeps_the_template_power():
    grid = replace(TINY, sweep_downtilts_deg=(0.0, 10.0), power_mode=PowerMode.SAME_POWER)
    with pytest.warns(RuntimeWarning, match=NO_METRO_DROPS):
        rows = run_sweep(grid)
    assert {r["p2_dbm"] for r in rows} == {33.0}
    assert {r["power_mode"] for r in rows} == {"same_power"}


def test_sweep_same_eirp_fills_catalogue_powers():
    grid = replace(TINY, sweep_downtilts_deg=(0.0,), power_mode=PowerMode.SAME_EIRP)
    with pytest.warns(RuntimeWarning, match=NO_METRO_DROPS):
        rows = run_sweep(grid)
    powers = {r["pattern"]: r["p2_dbm"] for r in rows}
    assert powers["dipole1"] == pytest.approx(33.0, abs=1e-9)
    assert powers["dipole2"] == pytest.approx(30.0, abs=1e-9)
    assert powers["dipole4"] == pytest.approx(27.0, abs=1e-9)
    assert powers["quasi_omni"] == pytest.approx(24.95, abs=1e-9)


def test_sweep_rows_share_the_master_seed_and_carry_the_radius():
    grid = replace(
        TINY,
        master_seed=77,
        sweep_downtilts_deg=(0.0, 20.0),
        sweep_patterns=("quasi_omni", "dipole4"),
    )
    with pytest.warns(RuntimeWarning, match=NO_METRO_DROPS):
        rows = run_sweep(grid)
    assert {r["seed"] for r in rows} == {77}
    for row in rows:
        hpbw = 14.0 if row["pattern"] == "quasi_omni" else 19.5
        expected = cell_radius(5.0, 0.0, row["downtilt_deg"], hpbw)
        assert row["cell_radius_m"] == expected
        assert row["drops"] == 2


def test_result_row_matches_metrics():
    scn = replace(LIGHT, drops=30)
    metrics = aggregate(run_many(scn), scn.macro.density_per_km2, scn.metro.density_per_km2)
    row = result_row(scn, metrics)
    assert row["ase_bps_hz_km2"] == metrics.ase_bps_hz_km2
    assert row["metro_fraction"] == metrics.metro_fraction
    assert row["pattern"] == scn.metro.pattern
    assert list(row) == [
        "pattern",
        "downtilt_deg",
        "power_mode",
        "p2_dbm",
        "ase_bps_hz_km2",
        "ase_stderr",
        "avg_rate_bps_hz",
        "rate_stderr",
        "metro_fraction",
        "cell_radius_m",
        "drops",
        "seed",
    ]
