import dataclasses

import pytest

from hetnetsim.config import ConfigError, load_config, parse_config, save_config, scenario_to_config
from hetnetsim.scenario import BuildingConfig, MacroConfig, MetroConfig, PowerMode, Scenario


def test_empty_config_yields_all_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    scn = load_config(path)
    assert scn == Scenario()
    assert scn.macro.tx_power_dbm == 46.0
    assert scn.macro.density_per_km2 == 2.05
    assert scn.macro.height_m == 30.0
    assert scn.metro.tx_power_dbm == 33.0
    assert scn.metro.density_per_km2 == pytest.approx(30.75)
    assert scn.buildings.density_per_km2 == pytest.approx(30.75)
    assert scn.buildings.attenuation_db == -40.0
    assert scn.sir_bias_db == 6.0
    assert scn.drops == 10000


def test_missing_config_path_means_defaults():
    assert load_config(None) == Scenario()


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_same_eirp_autofills_metro_power():
    scn = parse_config("[metro]\npattern = dipole4\n\n[simulation]\npower_mode = same_eirp\n")
    assert scn.metro.tx_power_dbm == pytest.approx(27.0, abs=1e-9)
    assert scn.power_mode is PowerMode.SAME_EIRP


def test_same_eirp_rejects_inconsistent_explicit_power():
    text = "[metro]\npattern = dipole4\ntx_power_dbm = 33\n\n[simulation]\npower_mode = same_eirp\n"
    with pytest.raises(ConfigError, match="35.15"):
        parse_config(text)


def test_same_eirp_accepts_consistent_explicit_power():
    text = "[metro]\npattern = dipole4\ntx_power_dbm = 27.0\n\n[simulation]\npower_mode = same_eirp\n"
    assert parse_config(text).metro.tx_power_dbm == 27.0


def test_densities_track_an_overridden_macro_density():
    scn = parse_config("[macro]\ndensity_per_km2 = 4.0\n")
    assert scn.metro.density_per_km2 == pytest.approx(60.0)
    assert scn.buildings.density_per_km2 == pytest.approx(60.0)
    # explicit values win over the ratio rule
    scn = parse_config("[macro]\ndensity_per_km2 = 4.0\n\n[metro]\ndensity_per_km2 = 7.0\n")
    assert scn.metro.density_per_km2 == 7.0


def test_zero_drops_is_rejected():
    with pytest.raises(ConfigError, match="drops"):
        parse_config("[simulation]\ndrops = 0\n")


def test_unknown_key_is_reported_with_its_line():
    text = "[macro]\ntx_power_dbm = 46\n\n[metro]\nbogus_key = 3\n"
    with pytest.raises(ConfigError, match=r"metro\.bogus_key \(line 5\)"):
        parse_config(text)


def test_unknown_section_is_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[femto\]"):
        parse_config("[femto]\ntx_power_dbm = 20\n")
    with pytest.raises(ConfigError, match=r"unknown section \[femto\] \(line 3\)"):
        parse_config("[macro]\n\n[femto]\n")  # an empty section too


def test_bad_values_name_the_key():
    with pytest.raises(ConfigError, match=r"metro\.tx_power_dbm \(line 2\)"):
        parse_config("[metro]\ntx_power_dbm = loud\n")
    with pytest.raises(ConfigError, match=r"metro\.tx_power_dbm \(--set\)"):
        parse_config("[metro]\ntx_power_dbm = 30\n", overrides=("metro.tx_power_dbm=loud",))
    with pytest.raises(ConfigError, match="power_mode"):
        parse_config("[simulation]\npower_mode = sideways\n")


def test_parse_error_is_a_config_error():
    with pytest.raises(ConfigError):
        parse_config("tx_power_dbm = 46\n")  # key before any section header


def test_untiltable_pattern_with_tilt_is_rejected():
    with pytest.raises(ConfigError, match="dipole1"):
        parse_config("[metro]\npattern = dipole1\ndowntilt_deg = 8\n")


def test_overrides_apply_and_validate():
    scn = parse_config("", overrides=("metro.downtilt_deg=8", "simulation.drops=5"))
    assert scn.metro.downtilt_deg == 8.0
    assert scn.drops == 5
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("", overrides=("metro.nope=1",))
    with pytest.raises(ConfigError, match="section.key=value"):
        parse_config("", overrides=("drops=5",))
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("", overrides=("pico.drops=5",))


def test_seed_override_wins_over_the_file():
    scn = parse_config("[simulation]\nmaster_seed = 5\n", seed_override=9)
    assert scn.master_seed == 9


def test_sweep_lists_parse():
    text = "[simulation]\nsweep_downtilts_deg = 0, 8, 16\nsweep_patterns = dipole4, quasi_omni\n"
    scn = parse_config(text)
    assert scn.sweep_downtilts_deg == (0.0, 8.0, 16.0)
    assert scn.sweep_patterns == ("dipole4", "quasi_omni")
    with pytest.raises(ConfigError, match="unknown metro antenna"):
        parse_config("[simulation]\nsweep_patterns = dish\n")


def test_scenario_round_trips_through_config_text(tmp_path):
    scn = parse_config(
        "[macro]\ndensity_per_km2 = 3.7\n\n[metro]\npattern = dipole2\ndowntilt_deg = 12.5\n\n"
        "[simulation]\nmaster_seed = 123\ndrops = 77\npower_mode = same_power\n"
    )
    assert parse_config(scenario_to_config(scn)) == scn

    path = tmp_path / "round.cfg"
    save_config(scn, path)
    assert load_config(path) == scn


def test_round_trip_preserves_full_float_precision():
    scn = parse_config("[macro]\ndensity_per_km2 = 2.0500000000000003\n")
    again = parse_config(scenario_to_config(scn))
    assert again.macro.density_per_km2 == scn.macro.density_per_km2


# One valid, non-default value per key: (override text, parsed value).
EVERY_KEY = {
    "macro.tx_power_dbm": ("43.5", 43.5),
    "macro.density_per_km2": ("1.5", 1.5),
    "macro.height_m": ("25", 25.0),
    "macro.horiz_hpbw_deg": ("70", 70.0),
    "macro.front_back_ratio_db": ("20", 20.0),
    "macro.vert_hpbw_deg": ("8", 8.0),
    "macro.side_lobe_db": ("-20", -20.0),
    "macro.max_gain_dbi": ("17", 17.0),
    "macro.downtilt_deg": ("6", 6.0),
    "macro.pathloss_intercept_db": ("130.5", 130.5),
    "macro.pathloss_slope_db": ("35", 35.0),
    "metro.tx_power_dbm": ("30", 30.0),
    "metro.density_per_km2": ("12", 12.0),
    "metro.height_m": ("6", 6.0),
    "metro.pattern": (" dipole2 ", "dipole2"),
    "metro.downtilt_deg": ("4", 4.0),
    "metro.pathloss_intercept_db": ("141", 141.0),
    "metro.pathloss_slope_db": ("36", 36.0),
    "buildings.density_per_km2": ("20", 20.0),
    "buildings.attenuation_db": ("-30", -30.0),
    "buildings.length_min_m": ("15", 15.0),
    "buildings.length_max_m": ("25", 25.0),
    "buildings.height_min_m": ("8", 8.0),
    "buildings.height_max_m": ("18", 18.0),
    "simulation.sir_bias_db": ("3", 3.0),
    "simulation.region_radius_km": ("2.5", 2.5),
    "simulation.user_height_m": ("1.5", 1.5),
    "simulation.drops": ("0x20", 32),
    "simulation.master_seed": ("42", 42),
    "simulation.power_mode": ("same_eirp", PowerMode.SAME_EIRP),
    "simulation.sweep_downtilts_deg": ("0, 5,12.5", (0.0, 5.0, 12.5)),
    "simulation.sweep_patterns": ("dipole4,quasi_omni", ("dipole4", "quasi_omni")),
}


def _config_sections(scn):
    return {"macro": scn.macro, "metro": scn.metro, "buildings": scn.buildings, "simulation": scn}


def test_every_dataclass_field_is_a_config_key():
    keys = {
        f"{section}.{f.name}"
        for section, cls in (("macro", MacroConfig), ("metro", MetroConfig), ("buildings", BuildingConfig))
        for f in dataclasses.fields(cls)
    }
    keys |= {f"simulation.{f.name}" for f in dataclasses.fields(Scenario)} - {
        "simulation.macro", "simulation.metro", "simulation.buildings"
    }
    assert set(EVERY_KEY) == keys


def test_every_key_parses_into_the_scenario_and_round_trips():
    # in same_eirp mode the metro power plus dipole2's 5.15 dBi fill the 35.15 dBm budget
    scn = parse_config("", overrides=tuple(f"{key}={text}" for key, (text, _) in EVERY_KEY.items()))
    parsed, defaults = _config_sections(scn), _config_sections(Scenario())
    for key, (_, value) in EVERY_KEY.items():
        section, name = key.split(".")
        assert getattr(defaults[section], name) != value, f"{key} is its default"
        assert getattr(parsed[section], name) == value, key
    assert parse_config(scenario_to_config(scn)) == scn
