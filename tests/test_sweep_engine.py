"""The sweep engine against its output contract.

``data/golden_sweep.csv`` was written by the per-cell engine that sampled
every drop again in every cell; the shared-geometry engine must reproduce it
byte for byte.  The properties tie a sweep row, and a cell of a grid that
spans both power modes, to a one-cell run of the same cell, and a run to its
drops replayed one at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hetnetsim import results
from hetnetsim.geometry import sample_network
from hetnetsim.scenario import PowerMode, Scenario
from hetnetsim.simulation import (
    aggregate,
    result_row,
    run_cells,
    run_drop,
    run_many,
    run_sweep,
    sweep_scenarios,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_sweep.csv"
GOLDEN = replace(
    Scenario(),
    region_radius_km=2.0,
    drops=48,
    master_seed=7,
    sweep_downtilts_deg=(0.0, 10.0, 25.0),
    sweep_patterns=("dipole1", "dipole2", "dipole4", "quasi_omni"),
)


def golden_rows(workers: int) -> list[dict]:
    rows = []
    for mode in (PowerMode.SAME_POWER, PowerMode.SAME_EIRP):
        rows += run_sweep(replace(GOLDEN, power_mode=mode), workers=workers)
    return rows


def test_sweep_reproduces_the_golden_csv(tmp_path):
    for workers in (1, 2):
        out = tmp_path / f"sweep-{workers}.csv"
        results.write_rows(golden_rows(workers), results.RESULT_COLUMNS, out, "csv")
        assert out.read_bytes() == GOLDEN_PATH.read_bytes(), f"{workers} workers"


# Region 0.2 km holds ~0.26 macros and ~3.9 metros per drop, so about one
# first attempt in thirteen has fewer than two sectors and is resampled.
RESAMPLING = replace(Scenario(), region_radius_km=0.2)
BASE = replace(Scenario(), region_radius_km=1.0)
SCENARIOS = {
    "urban": BASE,
    "no_metros": replace(BASE, metro=replace(BASE.metro, density_per_km2=0.0)),
    "open_field": replace(BASE, buildings=replace(BASE.buildings, density_per_km2=0.0)),
    "resampling": RESAMPLING,
}

scenarios = st.builds(
    lambda base, seed, drops: replace(base, master_seed=seed, drops=drops),
    st.sampled_from(list(SCENARIOS.values())),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
)
PROPERTY_SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY_SETTINGS
@given(
    scenario=scenarios,
    mode=st.sampled_from(list(PowerMode)),
    workers=st.sampled_from([1, 2]),
)
def test_sweep_rows_equal_one_cell_runs(scenario, mode, workers):
    grid = replace(
        scenario,
        sweep_downtilts_deg=(0.0, 15.0),
        sweep_patterns=("dipole1", "dipole4", "quasi_omni"),
    )
    # Both power modes in one run_cells call, as the acceptance fixture runs them.
    cells = [c for m in PowerMode for c in sweep_scenarios(replace(grid, power_mode=m))]
    alone = [run_many(c) for c in cells]
    assert run_cells(cells, workers=workers) == alone
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # cells with no metro drops
        rows = run_sweep(replace(grid, power_mode=mode), workers=workers)
        expected = [
            result_row(c, aggregate(d, c.macro.density_per_km2, c.metro.density_per_km2))
            for c, d in zip(cells, alone)
            if c.power_mode is mode
        ]
    assert rows == expected


@PROPERTY_SETTINGS
@given(scenario=scenarios)
def test_run_many_equals_drops_replayed_alone(scenario):
    assert run_many(scenario) == [run_drop(scenario, i) for i in range(scenario.drops)]


def test_resampling_scenario_resamples():
    scenario = replace(RESAMPLING, drops=64, master_seed=3)
    first_attempts = [
        sample_network(
            scenario,
            np.random.default_rng(np.random.SeedSequence(3, spawn_key=(i, 0))),
        )
        for i in range(scenario.drops)
    ]
    assert any(net.n_sectors < 2 for net in first_attempts)
    assert run_many(scenario) == [run_drop(scenario, i) for i in range(scenario.drops)]
