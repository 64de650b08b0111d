"""Scenario files: a sectioned key=value format mapped onto the dataclasses.

Sections are ``[macro]``, ``[metro]``, ``[buildings]`` and ``[simulation]``;
keys are the dataclass field names, so every dB/dBm key carries its unit.
Omitted keys fall back to their defaults; metro and building densities
default to 15x the macro density, and in same-EIRP mode an omitted metro
transmit power is filled from the shared radiated-power budget.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import typing
from pathlib import Path

from .antenna import METRO_ANTENNAS
from .scenario import (
    DENSITY_RATIO_DEFAULT,
    BuildingConfig,
    MacroConfig,
    MetroConfig,
    PowerMode,
    Scenario,
    metro_tx_power_dbm,
    validate_scenario,
)

__all__ = ["ConfigError", "load_config", "parse_config", "scenario_to_config", "save_config"]

_SIMULATION_SECTION = "simulation"


class ConfigError(Exception):
    """A scenario file or override could not be parsed or validated."""


def _parse_power_mode(text: str) -> PowerMode:
    try:
        return PowerMode(text.strip())
    except ValueError:
        options = ", ".join(m.value for m in PowerMode)
        raise ValueError(f"expected one of: {options}") from None


_ITEM_PARSERS = {
    float: float,
    int: functools.partial(int, base=0),
    str: str.strip,
    PowerMode: _parse_power_mode,
}


def _parser(field_type):
    """The text parser for one field type; ``tuple[T, ...]`` is a
    comma-separated list of T."""
    if typing.get_origin(field_type) is tuple:
        item = _ITEM_PARSERS[typing.get_args(field_type)[0]]
        return lambda text: tuple(item(p.strip()) for p in text.split(",") if p.strip())
    return _ITEM_PARSERS[field_type]


def _key_parsers(cls) -> dict:
    """Key -> parser for the fields of ``cls`` that are not sections."""
    hints = typing.get_type_hints(cls)
    return {name: _parser(tp) for name, tp in hints.items() if not dataclasses.is_dataclass(tp)}


# Section -> key -> parser, in field order: one section per dataclass field
# of Scenario, then the simulation section for its other fields.
_SCHEMA = {
    name: _key_parsers(tp)
    for name, tp in typing.get_type_hints(Scenario).items()
    if dataclasses.is_dataclass(tp)
}
_SCHEMA[_SIMULATION_SECTION] = _key_parsers(Scenario)


def _file_items(text: str, source: str) -> list[tuple]:
    """``(section, key, raw, origin)`` for every section header and key of a
    scenario file, in file order; a header's key and raw are None."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text, source=source)
    line_of = {}  # (section, key or None) -> "line N" of its first appearance
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            section, key = stripped[1:-1].strip().lower(), None
        else:
            key = stripped.split("=", 1)[0].split(":", 1)[0].strip().lower()
        line_of.setdefault((section, key), f"line {lineno}")
    items = []
    for section in parser.sections():
        name = section.lower()
        for key, raw in [(None, None), *parser.items(section)]:
            items.append((name, key, raw, line_of.get((name, key), source)))
    return items


def _coerce(section: str, key: str, raw: str, origin: str):
    try:
        return _SCHEMA[section][key](raw)
    except ValueError as exc:
        detail = f"{raw!r} ({str(exc) or 'invalid value'})"
        raise ValueError(f"invalid value for {section}.{key} ({origin}): {detail}") from None


def parse_config(
    text: str,
    *,
    overrides: tuple[str, ...] = (),
    seed_override: int | None = None,
    source: str = "<config>",
) -> Scenario:
    """Build a validated Scenario from config text plus key=value overrides.

    File lines, then ``overrides`` (the CLI's ``--set``), then
    ``seed_override`` (``--seed``) become one list of ``(section, key, raw,
    origin)`` items, so every error names the key and where it came from.
    """
    try:
        items = _file_items(text, source)
        for item in overrides:
            dotted, eq, raw = item.partition("=")
            section, dot, key = dotted.partition(".")
            if not (eq and dot):
                raise ValueError(f"override {item!r} is not of the form section.key=value")
            items.append((section.strip().lower(), key.strip().lower(), raw, "--set"))
        if seed_override is not None:
            items.append((_SIMULATION_SECTION, "master_seed", str(seed_override), "--seed"))
        return _scenario_from_items(items)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _scenario_from_items(items: list[tuple]) -> Scenario:
    values: dict[str, dict[str, object]] = {name: {} for name in _SCHEMA}
    for section, key, raw, origin in items:
        if section not in _SCHEMA:
            raise ValueError(f"unknown section [{section}] ({origin})")
        if key is None:  # a section header
            continue
        if key not in _SCHEMA[section]:
            raise ValueError(f"unknown key {section}.{key} ({origin})")
        values[section][key] = _coerce(section, key, raw, origin)

    macro = MacroConfig(**values["macro"])
    # Densities omitted from the config scale off the macro density.
    density = DENSITY_RATIO_DEFAULT * macro.density_per_km2
    for section in ("metro", "buildings"):
        values[section].setdefault("density_per_km2", density)
    # In same-EIRP mode an omitted metro power follows the pattern's gain; an
    # unknown pattern is left for validate_scenario to report.
    metro, simulation = values["metro"], values[_SIMULATION_SECTION]
    pattern = metro.get("pattern", MetroConfig.pattern)
    if "tx_power_dbm" not in metro and pattern in METRO_ANTENNAS:
        power_mode = simulation.get("power_mode", PowerMode.SAME_POWER)
        metro["tx_power_dbm"] = metro_tx_power_dbm(pattern, power_mode, MetroConfig.tx_power_dbm)
    scenario = Scenario(
        macro=macro,
        metro=MetroConfig(**metro),
        buildings=BuildingConfig(**values["buildings"]),
        **simulation,
    )
    validate_scenario(scenario)
    return scenario


def load_config(
    path: str | Path | None,
    *,
    overrides: tuple[str, ...] = (),
    seed_override: int | None = None,
) -> Scenario:
    """Load a scenario file (None means all defaults) and apply overrides."""
    if path is None:
        return parse_config("", overrides=overrides, seed_override=seed_override)
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(
        text, overrides=overrides, seed_override=seed_override, source=str(path)
    )


def _format_value(value) -> str:
    if isinstance(value, PowerMode):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def scenario_to_config(scenario: Scenario) -> str:
    """Render a scenario as config text; reloading it compares equal."""
    blocks = []
    for section, keys in _SCHEMA.items():
        part = scenario if section == _SIMULATION_SECTION else getattr(scenario, section)
        lines = "".join(f"{key} = {_format_value(getattr(part, key))}\n" for key in keys)
        blocks.append(f"[{section}]\n{lines}")
    return "\n".join(blocks)


def save_config(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(scenario_to_config(scenario))
