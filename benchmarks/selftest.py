"""Self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py

Feeds every check of checks.py a genuine output of a small run, which must
pass, and a corrupted copy, which must fail: one blockage count +1, walls
missing from the drops, a replayed drop with its tier flipped, two CSV rows
swapped, one spectral efficiency changed, a wall on an open-field serving
path, and the tilt trend reversed.  Exits 1 when a check passes a corrupted
input or fails a genuine one.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

from run import OUT_DIR  # also puts the checkout's package on the path

import checks  # noqa: E402 - after run has set the package path
from hetnetsim import config, geometry, simulation  # noqa: E402
from hetnetsim.geometry import Tier  # noqa: E402
from workloads import run_pass  # noqa: E402

SEED = 7


def expect(name: str, genuine: list[str], corrupted: list[str]) -> bool:
    ok = not genuine and bool(corrupted)
    verdict = "ok  " if ok else "FAIL"
    print(f"{verdict} {name}")
    for failure in genuine:
        print(f"       genuine input failed: {failure}")
    if corrupted:
        print(f"       corrupted input caught: {corrupted[0]}")
    else:
        print("       corrupted input passed")
    return ok


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    urban = config.load_config(None, overrides=("simulation.drops=40",), seed_override=SEED)
    open_field = config.load_config(
        None, overrides=("simulation.drops=40", "buildings.density_per_km2=0"), seed_override=SEED
    )
    results = []

    # (a) one blockage count +1
    net = geometry.sample_network(urban, np.random.default_rng(SEED))
    wap_xy = np.vstack((net.macro_xy, net.metro_xy))
    wap_z = np.concatenate(
        (
            np.full(len(net.macro_xy), urban.macro.height_m),
            np.full(len(net.metro_xy), urban.metro.height_m),
        )
    )
    e1, e2 = checks.wall_endpoints(
        net.building_center_xy, net.building_length_m, net.building_orientation_rad
    )
    args = (wap_xy, wap_z, urban.user_height_m, e1, e2, net.building_height_m)
    counts = geometry.blockage_counts_from_origin(*args)
    expected = checks.brute_force_origin_counts(*args)
    bumped = counts.copy()
    bumped[int(np.argmax(counts))] += 1
    results.append(
        expect(
            "(a) blockage counts vs all-pairs test",
            checks.check_blockage_counts("genuine", counts, expected),
            checks.check_blockage_counts("corrupted", bumped, expected),
        )
    )

    # (b) a quarter of the walls missing; one wall in an open field
    nets = [
        geometry.sample_network(urban, np.random.default_rng([SEED, i])) for i in range(urban.drops)
    ]
    area = np.pi * urban.region_radius_km**2
    observed = {
        "macros": [len(n.macro_xy) for n in nets],
        "metros": [len(n.metro_xy) for n in nets],
        "walls": [len(n.building_center_xy) for n in nets],
    }
    means = {
        "macros": urban.macro.density_per_km2 * area,
        "metros": urban.metro.density_per_km2 * area,
        "walls": urban.buildings.density_per_km2 * area,
    }
    thinned = dict(observed, walls=[3 * n // 4 for n in observed["walls"]])
    results.append(
        expect(
            "(b) Poisson means",
            checks.check_poisson_means(observed, means),
            checks.check_poisson_means(thinned, means),
        )
    )
    no_walls = dict(means, walls=0.0)
    results.append(
        expect(
            "(b) Poisson means, zero density",
            checks.check_poisson_means(dict(observed, walls=[0] * len(nets)), no_walls),
            checks.check_poisson_means(dict(observed, walls=[0] * (len(nets) - 1) + [1]), no_walls),
        )
    )

    # (c), (e): a simulate pass and a replay of some of its drops
    out = OUT_DIR / "selftest-simulate.csv"
    drops = run_pass("simulate", urban, 1, out)
    avg_rate = float(checks.parse_csv(out.read_bytes())[0]["avg_rate_bps_hz"])
    replayed = {i: simulation.run_drop(urban, i) for i in (0, 17, 39)}
    flipped = dict(replayed)
    other = Tier.METRO if replayed[17].tier is Tier.MACRO else Tier.MACRO
    flipped[17] = dataclasses.replace(replayed[17], tier=other)
    results.append(
        expect(
            "(c) replayed drop equals its run",
            checks.check_replay("genuine", drops, replayed),
            checks.check_replay("corrupted", drops, flipped),
        )
    )
    se = [d.spectral_efficiency for d in drops]
    results.append(
        expect(
            "(e) avg_rate_bps_hz is the plain mean",
            checks.check_plain_mean("genuine", avg_rate, se),
            checks.check_plain_mean("corrupted", avg_rate, [se[0] + 0.5] + se[1:]),
        )
    )

    # (f) one open-field drop reports a wall on its serving path
    open_drops = run_pass("simulate", open_field, 1, OUT_DIR / "selftest-open.csv")
    walls = [d.serving_blockages for d in open_drops]
    results.append(
        expect(
            "(f) no walls without buildings",
            checks.check_no_blockage("genuine", walls),
            checks.check_no_blockage("corrupted", walls[:-1] + [1]),
        )
    )

    # (d), (g): a two-worker sweep of the cells the trend check reads
    sweep = config.load_config(
        None,
        overrides=(
            "simulation.drops=60",
            "simulation.sweep_patterns=quasi_omni,dipole4",
            "simulation.sweep_downtilts_deg=10,40",
        ),
        seed_override=SEED,
    )
    sweep_out = OUT_DIR / "selftest-sweep.csv"
    run_pass("sweep", sweep, 2, sweep_out)
    sweep_csv = sweep_out.read_bytes()
    cell_out = OUT_DIR / "selftest-cell.csv"
    run_pass("simulate", simulation.sweep_scenarios(sweep)[1], 1, cell_out)
    lines = sweep_csv.splitlines(keepends=True)
    swapped = b"".join([lines[0], lines[2], lines[1], *lines[3:]])
    results.append(
        expect(
            "(d) one-worker cell rerun matches the sweep row",
            checks.check_rows_identical("genuine", sweep_csv, 1, cell_out.read_bytes()),
            checks.check_rows_identical("corrupted", swapped, 1, cell_out.read_bytes()),
        )
    )
    rows = checks.parse_csv(sweep_csv)
    reversed_rows = [dict(r) for r in rows]
    for pattern in ("quasi_omni", "dipole4"):
        at = {float(r["downtilt_deg"]): r for r in reversed_rows if r["pattern"] == pattern}
        at[10.0]["metro_fraction"], at[40.0]["metro_fraction"] = (
            at[40.0]["metro_fraction"],
            at[10.0]["metro_fraction"],
        )
    results.append(
        expect(
            "(g) metro fraction falls from 10 to 40 degrees",
            checks.check_tilt_trend(rows),
            checks.check_tilt_trend(reversed_rows),
        )
    )

    print(f"{sum(results)} of {len(results)} checks caught their corruption")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
