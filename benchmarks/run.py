"""Drop-throughput benchmark of hetnetsim.

    python3 benchmarks/run.py --workload simulate-urban --seed 1 --seconds 30 --trace 0

Runs a named workload (see workloads.py) through the package's public entry
points for ``--seconds`` seconds, checks its outputs (checks.py) and prints
one JSON object as the last line of standard output.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates traced and untraced rounds
and reports the per-layer metrics, writing the spans to
``benchmarks/out/trace-<workload>.json``.  README.md has the details.
"""

import time

_T_IMPORT = time.perf_counter()  # set-up origin when /proc is unreadable

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
PACKAGE_DIR = ROOT / "src" / "hetnetsim"

# The package under test is this checkout's source tree, not an installed copy.
sys.path.insert(0, str(PACKAGE_DIR.parent))
try:
    import hetnetsim
except ImportError as exc:
    raise SystemExit(f"benchmark: cannot import hetnetsim from {PACKAGE_DIR.parent}: {exc}")
if Path(hetnetsim.__file__).resolve().parent != PACKAGE_DIR.resolve():
    raise SystemExit(f"benchmark: imported hetnetsim from {hetnetsim.__file__}")

import numpy as np  # noqa: E402 - after the package path is set

import checks  # noqa: E402
from hetnetsim import config, geometry, simulation  # noqa: E402
from tracing import ENTRY_LAYERS, Tracer, layer_targets  # noqa: E402
from workloads import WORKLOADS, cells_of, run_pass  # noqa: E402


def seconds_since_process_start() -> float:
    """Wall time since the kernel created this process, at clock-tick resolution."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_IMPORT


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest ended child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib * 1024 / 1e6


def pass_rate(rates: list) -> float:
    """Upper quartile of the per-pass cell-drops/s: the median of the faster half.

    Other tenants of a shared host only ever slow a pass down, so the faster
    half of the passes measures the program and the slower half mostly
    measures how busy the host was.
    """
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=4, method="inclusive")[2]


@dataclass
class Rounds:
    """What a series of rounds measured."""

    rates: list = field(default_factory=list)  # cell-drops/s of each pass that succeeded
    seconds: float = 0.0  # time spent in those passes
    count: int = 0
    last: list | None = None  # outputs of the last round with no failed pass


class Run:
    """One workload with its scenarios, timed in whole rounds."""

    def __init__(self, workload, scenarios):
        self.workload = workload
        self.scenarios = scenarios
        self.cells = [cells_of(workload.command, s) for s in scenarios]
        self.cell_drops = [len(c) * s.drops for c, s in zip(self.cells, scenarios)]
        self.out_paths = [OUT_DIR / f"{workload.name}-{p.label}.csv" for p in workload.passes]
        self.attempted = 0
        self.failed = 0

    def round(self, workers: int, done: Rounds) -> None:
        """Run every pass once, adding what it measured to ``done``."""
        outputs = []
        for scenario, cell_drops, out in zip(self.scenarios, self.cell_drops, self.out_paths):
            self.attempted += cell_drops
            started = time.perf_counter()
            try:
                outputs.append(run_pass(self.workload.command, scenario, workers, out))
            except Exception:  # noqa: BLE001 - a failed pass is counted, not fatal
                traceback.print_exc()
                self.failed += cell_drops
                outputs = None
                continue
            elapsed = time.perf_counter() - started
            done.rates.append(cell_drops / elapsed)
            done.seconds += elapsed
        done.count += 1
        if outputs is not None:
            done.last = outputs

    def rounds(self, seconds: float, workers: int) -> Rounds:
        """Repeat whole rounds until ``seconds`` have passed."""
        done = Rounds()
        deadline = time.perf_counter() + seconds
        while True:
            self.round(workers, done)
            if time.perf_counter() >= deadline:
                return done


def run_checks(run: Run, outputs, seed: int) -> list[str]:
    """Every output check of checks.py that applies to the workload."""
    rng = np.random.default_rng([seed, 0xC4EC])
    failures: list[str] = []
    template = run.scenarios[0]

    # (a), (b): the networks of the first pass's drops (every sweep cell
    # shares them), drawn from each drop's first stream.
    def network(i):
        stream = np.random.SeedSequence(template.master_seed, spawn_key=(i, 0))
        return geometry.sample_network(template, np.random.default_rng(stream))

    nets = [network(i) for i in range(template.drops)]
    area = np.pi * template.region_radius_km**2
    failures += checks.check_poisson_means(
        {
            "macros": [len(n.macro_xy) for n in nets],
            "metros": [len(n.metro_xy) for n in nets],
            "walls": [len(n.building_center_xy) for n in nets],
        },
        {
            "macros": template.macro.density_per_km2 * area,
            "metros": template.metro.density_per_km2 * area,
            "walls": template.buildings.density_per_km2 * area,
        },
    )
    if template.buildings.density_per_km2 > 0.0:
        for i in rng.choice(len(nets), 3, replace=False):
            net = nets[i]
            wap_xy = np.vstack((net.macro_xy, net.metro_xy))
            wap_z = np.concatenate(
                (
                    np.full(len(net.macro_xy), template.macro.height_m),
                    np.full(len(net.metro_xy), template.metro.height_m),
                )
            )
            e1, e2 = checks.wall_endpoints(
                net.building_center_xy, net.building_length_m, net.building_orientation_rad
            )
            args = (wap_xy, wap_z, template.user_height_m, e1, e2, net.building_height_m)
            failures += checks.check_blockage_counts(
                f"drop {i}",
                geometry.blockage_counts_from_origin(*args),
                checks.brute_force_origin_counts(*args),
            )

    if run.workload.command == "simulate":
        drops = outputs[0]
        row = checks.parse_csv(run.out_paths[0].read_bytes())[0]
        picks = [int(i) for i in rng.choice(len(drops), 3, replace=False)]
        replayed = {i: simulation.run_drop(template, i) for i in picks}
        failures += checks.check_replay("simulate", drops, replayed)
        failures += checks.check_plain_mean(
            "simulate", float(row["avg_rate_bps_hz"]), [d.spectral_efficiency for d in drops]
        )
        if template.buildings.density_per_km2 == 0.0:
            failures += checks.check_no_blockage("simulate", [d.serving_blockages for d in drops])
        return failures

    all_rows = []
    for passed, cells, out in zip(run.workload.passes, run.cells, run.out_paths):
        sweep_csv = out.read_bytes()
        rows = checks.parse_csv(sweep_csv)
        all_rows += rows
        for j in sorted(rng.choice(len(cells), 2, replace=False)):
            label = f"{passed.label} cell {j}"
            cell_out = OUT_DIR / f"{run.workload.name}-{passed.label}-cell.csv"
            drops = run_pass("simulate", cells[j], 1, cell_out)
            failures += checks.check_rows_identical(label, sweep_csv, int(j), cell_out.read_bytes())
            i = int(rng.integers(len(drops)))
            failures += checks.check_replay(label, drops, {i: simulation.run_drop(cells[j], i)})
            failures += checks.check_plain_mean(
                label, float(rows[j]["avg_rate_bps_hz"]), [d.spectral_efficiency for d in drops]
            )
    failures += checks.check_tilt_trend(all_rows)
    return failures


def layer_metrics(tracer, run: Run, traced: Rounds, untraced: dict) -> dict:
    """The per-layer metrics of a traced run, named as in BENCHMARK.json."""
    layers = tracer.layers
    blockage = layers["geometry.blockage_counts_from_origin"]
    sampling = layers["geometry.sample_network"]
    gain = layers["antenna.total_gain_dbi"]
    cell_drops = traced.count * sum(run.cell_drops)
    cells = traced.count * sum(len(c) for c in run.cells)
    pairs = blockage.counts["path_wall_pairs"]
    rate_1 = pass_rate(untraced[1].rates)
    traced_rate = pass_rate(traced.rates)
    covered_ns = sum(
        s.self_ns for n, s in layers.items() if n not in (*ENTRY_LAYERS, "config.load_config")
    )

    def ratio(a, b):
        return a / b if b else 0.0

    def ms_per_call(name):
        return ratio(layers[name].ns, layers[name].calls) / 1e6

    def self_ms_per_call(name):
        return ratio(layers[name].self_ns, layers[name].calls) / 1e6

    metrics = {
        "geometry.blockage_counts_from_origin.ms_per_call": (
            ms_per_call("geometry.blockage_counts_from_origin"),
            "ms",
        ),
        "geometry.blockage.path_wall_pairs_per_call": (ratio(pairs, blockage.calls), "count"),
        "geometry.blockage.ns_per_path_wall_pair": (ratio(blockage.ns, pairs), "ns"),
        "geometry.blockage.crossings_per_call": (
            ratio(blockage.counts["crossings"], blockage.calls),
            "count",
        ),
        "geometry.sample_network.ms_per_call": (ms_per_call("geometry.sample_network"), "ms"),
        "geometry.points_per_drop": (ratio(sampling.counts["points"], sampling.calls), "count"),
        "geometry.sample_network.calls_per_cell_drop": (sampling.calls / cell_drops, "count"),
        "geometry.blockage_counts_from_origin.calls_per_cell_drop": (
            blockage.calls / cell_drops,
            "count",
        ),
        "antenna.total_gain_dbi.ms_per_cell_drop": (gain.ns / cell_drops / 1e6, "ms"),
        "antenna.gain_evals_per_cell_drop": (gain.counts["evals"] / cell_drops, "count"),
        "simulation.resampled_drops": (
            (sampling.calls - layers["simulation.run_drop"].calls) / cells,
            "count",
        ),
        "simulation.aggregate.ms_per_cell": (ms_per_call("simulation.aggregate"), "ms"),
        "results.write_rows.ms": (ms_per_call("results.write_rows"), "ms"),
        "config.load_config.ms": (ms_per_call("config.load_config"), "ms"),
        "simulation.pool.efficiency": (pass_rate(untraced[2].rates) / (2.0 * rate_1), "ratio"),
        "trace.cell_drops_per_s": (traced_rate, "cell-drops/s"),
        "trace.overhead": (rate_1 / traced_rate - 1.0, "ratio"),
        "trace.layer_coverage": (covered_ns / 1e9 / traced.seconds, "share"),
    }
    for name in ("sector_mean_powers", "evaluate_sample", "run_drop"):
        metrics[f"simulation.{name}.self_ms_per_call"] = (
            self_ms_per_call(f"simulation.{name}"),
            "ms",
        )
    return metrics


def write_trace(tracer, run: Run, seed: int) -> Path:
    path = OUT_DIR / f"trace-{run.workload.name}.json"
    layers = {
        name: {"calls": s.calls, "ms": s.ns / 1e6, "self_ms": s.self_ns / 1e6, **s.counts}
        for name, s in sorted(tracer.layers.items(), key=lambda kv: -kv[1].self_ns)
    }
    with open(path, "w") as f:
        json.dump(
            {
                "workload": run.workload.name,
                "seed": seed,
                "layers": layers,
                "spans": tracer.span_table(),
            },
            f,
        )
    for name, s in layers.items():
        print(f"  {name:40s} calls {s['calls']:8d}  self {s['self_ms']:10.1f} ms", file=sys.stderr)
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        targets = layer_targets()
        tracer.install(targets)
    scenarios = [
        config.load_config(None, overrides=p.overrides, seed_override=args.seed)
        for p in workload.passes
    ]
    setup_s = seconds_since_process_start()

    OUT_DIR.mkdir(exist_ok=True)
    run = Run(workload, scenarios)
    if tracer is None:
        done = run.rounds(args.seconds, workload.workers)
        outputs = done.last
        metrics = {
            "cell_drops_per_s": (pass_rate(done.rates), "cell-drops/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        print(
            f"{done.count} rounds; median pass {statistics.median(done.rates):.1f} cell-drops/s; "
            "each pass: " + " ".join(f"{r:.1f}" for r in done.rates),
            file=sys.stderr,
        )
    else:
        # Traced and untraced rounds alternate, so that drift in the host's
        # speed cancels out of the tracing overhead and the pool efficiency.
        # Traced rounds use one worker: the wrappers live in this process.
        # The workload's own worker count runs last, so that its outputs are
        # the ones checked.
        traced, untraced = Rounds(), {1: Rounds(), 2: Rounds()}
        deadline = time.perf_counter() + args.seconds
        while True:
            run.round(1, traced)
            tracer.uninstall()
            for workers in sorted(untraced, key=lambda w: w == workload.workers):
                run.round(workers, untraced[workers])
            if time.perf_counter() >= deadline:
                break
            tracer.install(targets)
        outputs = untraced[workload.workers].last
        metrics = layer_metrics(tracer, run, traced, untraced)
        print(f"trace written to {write_trace(tracer, run, args.seed)}", file=sys.stderr)

    failures = ["no round completed"] if outputs is None else run_checks(run, outputs, args.seed)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
