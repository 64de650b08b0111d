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


def _key_line(text: str, section: str, key: str) -> int | None:
    """Best-effort line number of ``key`` inside ``[section]``."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
        elif current == section:
            name = stripped.split("=", 1)[0].split(":", 1)[0].strip()
            if name == key:
                return lineno
    return None


def _coerce(section: str, key: str, raw: str):
    try:
        return _SCHEMA[section][key](raw)
    except ValueError as exc:
        detail = str(exc) or "invalid value"
        raise ConfigError(f"invalid value for {section}.{key}: {raw!r} ({detail})") from None


def parse_config(
    text: str,
    *,
    overrides: tuple[str, ...] = (),
    seed_override: int | None = None,
    source: str = "<config>",
) -> Scenario:
    """Build a validated Scenario from config text plus key=value overrides."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None

    values: dict[str, dict[str, object]] = {name: {} for name in _SCHEMA}
    for section in parser.sections():
        name = section.lower()
        if name not in values:
            raise ConfigError(f"{source}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[name]:
                line = _key_line(text, name, key)
                where = f" (line {line})" if line else ""
                raise ConfigError(f"{source}: unknown key {name}.{key}{where}")
            values[name][key] = _coerce(name, key, raw)

    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, key = (part.strip().lower() for part in dotted.split(".", 1))
        if section not in values:
            raise ConfigError(f"override: unknown section {section!r}")
        if key not in _SCHEMA[section]:
            raise ConfigError(f"override: unknown key {section}.{key}")
        values[section][key] = _coerce(section, key, raw)
    if seed_override is not None:
        values[_SIMULATION_SECTION]["master_seed"] = int(seed_override)

    macro = MacroConfig(**values["macro"])

    # Densities omitted from the file scale off the macro density.
    for section in ("metro", "buildings"):
        if "density_per_km2" not in values[section]:
            values[section]["density_per_km2"] = (
                DENSITY_RATIO_DEFAULT * macro.density_per_km2
            )

    sim_kwargs = dict(values[_SIMULATION_SECTION])
    power_mode = sim_kwargs.get("power_mode", PowerMode.SAME_POWER)

    # In same-EIRP mode an omitted metro power follows the pattern's gain.
    metro_kwargs = dict(values["metro"])
    if "tx_power_dbm" not in metro_kwargs:
        pattern = metro_kwargs.get("pattern", MetroConfig.pattern)
        try:
            metro_kwargs["tx_power_dbm"] = metro_tx_power_dbm(
                str(pattern), power_mode, MetroConfig.tx_power_dbm
            )
        except ValueError as exc:
            raise ConfigError(f"{source}: metro.pattern: {exc}") from None

    scenario = Scenario(
        macro=macro,
        metro=MetroConfig(**metro_kwargs),
        buildings=BuildingConfig(**values["buildings"]),
        **sim_kwargs,
    )
    try:
        validate_scenario(scenario)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
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
