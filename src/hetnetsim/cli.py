"""Command-line front end: simulate, sweep, radius, validate.

Exit codes: 0 on success, 2 for configuration errors, 3 for runtime errors.
"""

from __future__ import annotations

import math
import sys

import click

from . import results, simulation
from .antenna import metro_antenna
from .config import ConfigError, load_config

RADIUS_TILTS_DEG = (10.0, 20.0, 30.0, 40.0)
RADIUS_PATTERNS = ("dipole4", "quasi_omni")


def _config_options(f):
    f = click.option(
        "--set",
        "overrides",
        multiple=True,
        metavar="SECTION.KEY=VALUE",
        help="Override one config key (repeatable).",
    )(f)
    f = click.option("--seed", type=int, default=None, help="Override simulation.master_seed.")(f)
    f = click.option(
        "--config",
        "config_path",
        type=click.Path(),
        default=None,
        help="Scenario file; defaults apply when omitted.",
    )(f)
    return f


def _output_options(f):
    f = click.option(
        "--format",
        "fmt",
        type=click.Choice(["csv", "jsonl"]),
        default="csv",
        show_default=True,
        help="Output format.",
    )(f)
    f = click.option(
        "--out",
        "out_path",
        type=click.Path(),
        default=None,
        help="Output file; stdout when omitted.",
    )(f)
    return f


def _load(config_path, overrides, seed):
    try:
        return load_config(config_path, overrides=tuple(overrides), seed_override=seed)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)


def _emit(rows, columns, out_path, fmt):
    try:
        results.write_rows(rows, columns, out_path, fmt)
    except OSError as exc:
        click.echo(f"cannot write results to {out_path}: {exc}", err=True)
        sys.exit(3)


def _run(action):
    try:
        return action()
    except Exception as exc:  # noqa: BLE001 - map any runtime failure to exit 3
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


@click.group()
@click.version_option(package_name="hetnetsim")
def main() -> None:
    """Monte Carlo simulator for two-tier macro/metro cellular networks."""


@main.command()
@_config_options
@_output_options
@click.option(
    "--workers", type=click.IntRange(min=1), default=1, show_default=True, help="Worker processes."
)
def simulate(config_path, seed, overrides, out_path, fmt, workers) -> None:
    """Run one scenario and emit a single metrics row."""
    scenario = _load(config_path, overrides, seed)

    def action():
        drops = simulation.run_many(scenario, workers=workers)
        metrics = simulation.aggregate(
            drops, scenario.macro.density_per_km2, scenario.metro.density_per_km2
        )
        return [simulation.result_row(scenario, metrics)]

    rows = _run(action)
    _emit(rows, results.RESULT_COLUMNS, out_path, fmt)


@main.command()
@_config_options
@_output_options
@click.option(
    "--workers", type=click.IntRange(min=1), default=1, show_default=True, help="Worker processes."
)
def sweep(config_path, seed, overrides, out_path, fmt, workers) -> None:
    """Run the pattern x downtilt grid and emit one row per cell."""
    scenario = _load(config_path, overrides, seed)
    if not simulation.sweep_scenarios(scenario):
        click.echo(
            "config error: simulation.sweep_patterns and simulation.sweep_downtilts_deg "
            "leave no sweep cell",
            err=True,
        )
        sys.exit(2)
    rows = _run(lambda: simulation.run_sweep(scenario, workers=workers))
    _emit(rows, results.RESULT_COLUMNS, out_path, fmt)


@main.command()
@_config_options
@_output_options
def radius(config_path, seed, overrides, out_path, fmt) -> None:
    """Analytic beam-edge cell radii for the downtiltable metro antennas."""
    scenario = _load(config_path, overrides, seed)

    def action():
        rows = []
        for name in RADIUS_PATTERNS:
            hpbw = metro_antenna(name).pattern.vert_hpbw_deg
            for tilt in RADIUS_TILTS_DEG:
                r = simulation.metro_cell_radius(scenario, tilt, hpbw)
                rows.append(
                    {
                        "pattern": name,
                        "downtilt_deg": tilt,
                        "height_m": scenario.metro.height_m,
                        "user_height_m": scenario.user_height_m,
                        "vert_hpbw_deg": hpbw,
                        "cell_radius_m": r,
                        "cell_radius_m_display": "" if r in (None, math.inf) else f"{r:.1f}",
                    }
                )
        return rows

    rows = _run(action)
    _emit(rows, results.RADIUS_COLUMNS, out_path, fmt)


@main.command()
@_config_options
def validate(config_path, seed, overrides) -> None:
    """Parse and validate a scenario file without running anything."""
    _load(config_path, overrides, seed)
    click.echo("configuration OK")


if __name__ == "__main__":
    main()
