"""The benchmark's workloads and the pass each of them times.

A pass is what one ``hetnetsim simulate`` or ``hetnetsim sweep`` invocation
does once its scenario is loaded: run the drops, aggregate them, build the
rows and write them as CSV.  A round runs every pass of a workload once; a
run repeats whole rounds.  The seed given to the benchmark becomes the
scenario's master seed, so it alone decides every drop.
"""

from __future__ import annotations

from dataclasses import dataclass

from hetnetsim import results, simulation

SWEEP_PATTERNS = "quasi_omni,dipole4,dipole2,dipole1"
SWEEP_TILTS_DEG = "0,5,10,15,20,25,30,35,40"
# 60 drops per cell keep the tilt trend of check (g) clear of sampling noise:
# at 40 drops the 10-vs-40 degree margin of dipole4 was 9.3 +- 2.6 drops over
# 200 seeds, 3.6 standard deviations from failing.
SWEEP_DROPS_PER_CELL = 60


@dataclass(frozen=True)
class Pass:
    label: str
    overrides: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "sweep"
    workers: int
    passes: tuple[Pass, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "simulate-urban",
            "simulate",
            1,
            (Pass("default", ("simulation.drops=200",)),),
        ),
        Workload(
            "simulate-open",
            "simulate",
            1,
            (Pass("open", ("simulation.drops=1000", "buildings.density_per_km2=0")),),
        ),
        Workload(
            "sweep-tilt",
            "sweep",
            2,
            tuple(
                Pass(
                    mode,
                    (
                        f"simulation.drops={SWEEP_DROPS_PER_CELL}",
                        f"simulation.sweep_patterns={SWEEP_PATTERNS}",
                        f"simulation.sweep_downtilts_deg={SWEEP_TILTS_DEG}",
                        f"simulation.power_mode={mode}",
                    ),
                )
                for mode in ("same_power", "same_eirp")
            ),
        ),
    )
}


def cells_of(command: str, scenario) -> list:
    """The per-cell scenarios a pass evaluates, in output-row order."""
    if command == "simulate":
        return [scenario]
    return simulation.sweep_scenarios(scenario)


def run_pass(command: str, scenario, workers: int, out_path) -> list | None:
    """Run one pass and write its rows; returns a simulate pass's drops."""
    drops = None
    if command == "simulate":
        drops = simulation.run_many(scenario, workers=workers)
        metrics = simulation.aggregate(
            drops, scenario.macro.density_per_km2, scenario.metro.density_per_km2
        )
        rows = [simulation.result_row(scenario, metrics)]
    else:
        rows = simulation.run_sweep(scenario, workers=workers)
    results.write_rows(rows, results.RESULT_COLUMNS, out_path, "csv")
    return drops
