import json
import math

import pytest
from click.testing import CliRunner

from hetnetsim.cli import main
from hetnetsim.results import RESULT_COLUMNS, write_rows

FAST = (
    "[simulation]\n"
    "region_radius_km = 1.0\n"
    "drops = 24\n"
    "master_seed = 5\n"
)


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, text=FAST, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    columns = header.split(",")
    return [dict(zip(columns, row.split(","))) for row in rows]


# ------------------------------------------------------------------ radius

def test_radius_reproduces_the_reference_table(runner, tmp_path):
    out = tmp_path / "radius.csv"
    result = runner.invoke(main, ["radius", "--out", str(out)])
    assert result.exit_code == 0
    rows = read_csv(out)
    assert len(rows) == 8
    expected = {
        ("dipole4", "10.0"): 1145.9,
        ("dipole4", "20.0"): 27.7,
        ("dipole4", "30.0"): 13.6,
        ("dipole4", "40.0"): 8.6,
        ("quasi_omni", "10.0"): 95.4,
        ("quasi_omni", "20.0"): 21.7,
        ("quasi_omni", "30.0"): 11.8,
        ("quasi_omni", "40.0"): 7.7,
    }
    for row in rows:
        want = expected[(row["pattern"], row["downtilt_deg"])]
        assert float(row["cell_radius_m"]) == pytest.approx(want, abs=0.1)
        assert row["cell_radius_m_display"] == f"{want:.1f}"


def test_radius_honors_config_heights(runner, tmp_path):
    cfg = write_cfg(tmp_path, "[metro]\nheight_m = 10\n")
    result = runner.invoke(main, ["radius", "--config", cfg])
    assert result.exit_code == 0
    row = result.output.splitlines()[1].split(",")
    assert float(row[5]) == pytest.approx(2.0 * 1145.9083, abs=0.1)


@pytest.mark.parametrize("user_height_m", ["5", "6"])
def test_radius_is_empty_when_the_antenna_is_not_above_the_user(runner, tmp_path, user_height_m):
    args = ["radius", "--set", "metro.height_m=5", "--set", f"simulation.user_height_m={user_height_m}"]
    result = runner.invoke(main, args + ["--out", str(tmp_path / "r.csv")])
    assert result.exit_code == 0, result.output
    rows = read_csv(tmp_path / "r.csv")
    assert len(rows) == 8
    assert all(r["cell_radius_m"] == r["cell_radius_m_display"] == "" for r in rows)
    result = runner.invoke(main, args + ["--format", "jsonl"])
    assert result.exit_code == 0, result.output
    assert all(json.loads(line)["cell_radius_m"] is None for line in result.output.splitlines())


# ---------------------------------------------------------------- simulate

def test_simulate_writes_the_result_table(runner, tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run.csv"
    result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(RESULT_COLUMNS)
    rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["pattern"] == "quasi_omni"
    assert row["drops"] == "24"
    assert row["seed"] == "5"
    assert float(row["ase_bps_hz_km2"]) > 0.0
    assert row["cell_radius_m"] == ""  # untilted beam edge never hits the ground


def test_simulate_is_byte_identical_across_reruns_and_workers(runner, tmp_path):
    cfg = write_cfg(tmp_path)
    outs = []
    for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        out = tmp_path / name
        result = runner.invoke(
            main, ["simulate", "--config", cfg, "--out", str(out), "--workers", workers]
        )
        assert result.exit_code == 0, result.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_simulate_jsonl_format(runner, tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "run.jsonl"
    result = runner.invoke(
        main, ["simulate", "--config", cfg, "--out", str(out), "--format", "jsonl"]
    )
    assert result.exit_code == 0
    record = json.loads(out.read_text().splitlines()[0])
    assert set(record) == set(RESULT_COLUMNS)
    assert record["cell_radius_m"] is None
    assert record["drops"] == 24


def test_simulate_set_overrides_change_the_run(runner, tmp_path):
    cfg = write_cfg(tmp_path)
    result = runner.invoke(
        main,
        ["simulate", "--config", cfg, "--set", "metro.downtilt_deg=16",
         "--set", "metro.pattern=dipole4", "--out", str(tmp_path / "o.csv")],
    )
    assert result.exit_code == 0
    row = read_csv(tmp_path / "o.csv")[0]
    assert row["pattern"] == "dipole4"
    assert row["downtilt_deg"] == "16.0"
    assert float(row["cell_radius_m"]) == pytest.approx(45.6547, abs=0.001)


def test_seed_flag_changes_the_stream(runner, tmp_path):
    cfg = write_cfg(tmp_path)
    a = runner.invoke(main, ["simulate", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "a.csv")])
    b = runner.invoke(main, ["simulate", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "b.csv")])
    assert a.exit_code == b.exit_code == 0
    row_a = read_csv(tmp_path / "a.csv")[0]
    row_b = read_csv(tmp_path / "b.csv")[0]
    assert row_a["seed"] == "1" and row_b["seed"] == "2"
    assert row_a["ase_bps_hz_km2"] != row_b["ase_bps_hz_km2"]


# ------------------------------------------------------------------- sweep

def test_sweep_emits_one_row_per_grid_cell(runner, tmp_path):
    cfg = write_cfg(
        tmp_path,
        "[simulation]\nregion_radius_km = 1.0\ndrops = 2\nmaster_seed = 5\n"
        "sweep_downtilts_deg = 0, 8\nsweep_patterns = dipole1, quasi_omni\n",
    )
    out = tmp_path / "sweep.csv"
    with pytest.warns(RuntimeWarning, match="no metro-associated drops"):
        result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = read_csv(out)
    # dipole1 admits only the untilted cell
    assert [(r["pattern"], r["downtilt_deg"]) for r in rows] == [
        ("dipole1", "0.0"),
        ("quasi_omni", "0.0"),
        ("quasi_omni", "8.0"),
    ]


# ------------------------------------------------------------ exit criteria

def test_validate_accepts_good_and_rejects_bad_configs(runner, tmp_path):
    good = write_cfg(tmp_path, "[metro]\npattern = dipole2\n", name="good.cfg")
    result = runner.invoke(main, ["validate", "--config", good])
    assert result.exit_code == 0
    assert "OK" in result.output

    bad = write_cfg(tmp_path, "[simulation]\ndrops = 0\n", name="bad.cfg")
    result = runner.invoke(main, ["validate", "--config", bad])
    assert result.exit_code == 2
    assert "config error" in result.output


def test_config_errors_exit_2(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "--config", str(tmp_path / "missing.cfg")])
    assert result.exit_code == 2
    result = runner.invoke(main, ["simulate", "--set", "metro.unknown=1"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "command, override",
    [
        ("simulate", "metro.tx_power_dbm=nan"),
        ("validate", "macro.tx_power_dbm=inf"),
        ("validate", "buildings.length_max_m=-inf"),
        ("validate", "simulation.region_radius_km=nan"),
    ],
)
def test_non_finite_values_exit_2_naming_the_key(runner, command, override):
    result = runner.invoke(main, [command, "--set", override, "--set", "simulation.drops=4"])
    assert result.exit_code == 2, result.output
    key = override.split("=")[0]
    assert f"{key} must be finite" in result.output


# One case per input rule: (--set overrides, text the error must contain).
BAD_OVERRIDES = [
    (["macro.density_per_km2=-1"], "macro.density_per_km2 must be >= 0"),
    (["metro.density_per_km2=-1"], "metro.density_per_km2 must be >= 0"),
    (["macro.height_m=0"], "macro.height_m must be > 0"),
    (["metro.height_m=-2"], "metro.height_m must be > 0"),
    (["macro.pathloss_slope_db=0"], "macro.pathloss_slope_db must be > 0"),
    (["metro.pathloss_slope_db=-1"], "metro.pathloss_slope_db must be > 0"),
    (["macro.downtilt_deg=-1"], "macro.downtilt_deg must be in [0, 90)"),
    (["macro.downtilt_deg=90"], "macro.downtilt_deg must be in [0, 90)"),
    (["metro.downtilt_deg=-0.5"], "metro.downtilt_deg must be in [0, 90)"),
    (["metro.downtilt_deg=90"], "metro.downtilt_deg must be in [0, 90)"),
    (["macro.horiz_hpbw_deg=0"], "macro antenna: horiz_hpbw_deg must be in (0, 180)"),
    (["macro.vert_hpbw_deg=180"], "macro antenna: vert_hpbw_deg must be in (0, 180)"),
    (["macro.front_back_ratio_db=-1"], "macro antenna: front_back_ratio_db must be >= 0"),
    (["macro.side_lobe_db=1"], "macro antenna: side_lobe_db must be a finite dB value <= 0"),
    (["metro.pattern=dish"], "metro.pattern: unknown metro antenna 'dish'"),
    (
        ["metro.pattern=dipole1", "metro.downtilt_deg=8"],
        "metro antenna 'dipole1' cannot be downtilted (metro.downtilt_deg = 8.0)",
    ),
    (
        ["simulation.power_mode=same_eirp", "metro.tx_power_dbm=33"],
        "metro.tx_power_dbm + antenna max gain must equal 35.15 dBm",
    ),
    (["buildings.density_per_km2=-1"], "buildings.density_per_km2 must be >= 0"),
    (["buildings.attenuation_db=1"], "buildings.attenuation_db must be <= 0 dB"),
    (["buildings.length_min_m=0"], "buildings.length_min_m/length_max_m must satisfy"),
    (["buildings.length_max_m=10"], "buildings.length_min_m/length_max_m must satisfy"),
    (["buildings.height_min_m=0"], "buildings.height_min_m/height_max_m must satisfy"),
    (["buildings.height_max_m=5"], "buildings.height_min_m/height_max_m must satisfy"),
    (["simulation.user_height_m=-1"], "simulation.user_height_m must be >= 0"),
    (["simulation.drops=0"], "simulation.drops must be >= 1"),
    (["simulation.master_seed=-1"], "simulation.master_seed must be >= 0"),
    (["simulation.power_mode=sideways"], "invalid value for simulation.power_mode"),
    (["simulation.sweep_downtilts_deg=0, 90"], "simulation.sweep_downtilts_deg entries must be in [0, 90)"),
    (["simulation.sweep_patterns=dish"], "simulation.sweep_patterns: unknown metro antenna 'dish'"),
    (["metro.bogus=1"], "unknown key metro.bogus (--set)"),
    (["simulation.carrier_frequency_ghz=2"], "unknown key simulation.carrier_frequency_ghz (--set)"),
    (["pico.drops=1"], "unknown section [pico] (--set)"),
]


@pytest.mark.parametrize(
    "overrides, message", BAD_OVERRIDES, ids=[" ".join(o) for o, _ in BAD_OVERRIDES]
)
def test_validate_rejects_each_bad_input_naming_the_key(runner, overrides, message):
    args = ["validate"]
    for item in overrides:
        args += ["--set", item]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.startswith("config error:")
    assert message in result.output


def test_validate_rejects_a_negative_seed_flag(runner):
    result = runner.invoke(main, ["validate", "--seed", "-1"])
    assert result.exit_code == 2, result.output
    assert "simulation.master_seed must be >= 0" in result.output


def test_validate_names_an_unknown_file_key_and_its_line(runner, tmp_path):
    cfg = write_cfg(tmp_path, "[simulation]\ndrops = 4\n\n[metro]\nbogus = 1\n")
    result = runner.invoke(main, ["validate", "--config", cfg])
    assert result.exit_code == 2, result.output
    assert "unknown key metro.bogus (line 5)" in result.output


@pytest.mark.parametrize(
    "override", ["simulation.region_radius_km=1e6", "buildings.density_per_km2=1e5"]
)
def test_validate_caps_the_expected_points_per_drop(runner, override):
    result = runner.invoke(main, ["validate", "--set", override])
    assert result.exit_code == 2, result.output
    assert "simulation.region_radius_km" in result.output
    assert "density_per_km2" in result.output


@pytest.mark.parametrize("radius", ["0", "-1"])
def test_validate_rejects_nonpositive_region_radius(runner, radius):
    result = runner.invoke(main, ["validate", "--set", f"simulation.region_radius_km={radius}"])
    assert result.exit_code == 2, result.output
    assert "simulation.region_radius_km must be > 0" in result.output


@pytest.mark.parametrize(
    "overrides",
    [
        ["simulation.sweep_patterns="],
        ["simulation.sweep_patterns=dipole1", "simulation.sweep_downtilts_deg=10"],
    ],
)
def test_sweep_with_an_empty_grid_exits_2(runner, overrides):
    args = ["sweep", "--set", "simulation.drops=4"]
    for item in overrides:
        args += ["--set", item]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output.startswith("config error:")
    assert "simulation.sweep_patterns" in result.output
    assert "simulation.sweep_downtilts_deg" in result.output


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(runner, command, workers):
    result = runner.invoke(main, [command, "--workers", workers, "--set", "simulation.drops=4"])
    assert result.exit_code == 2
    assert "--workers" in result.output


@pytest.mark.parametrize("workers", ["1", "2"])
def test_degenerate_drop_exits_3_naming_the_drop(runner, workers):
    # every metro link underflows to zero power, so drop 0 has no interference
    result = runner.invoke(
        main,
        ["simulate", "--workers", workers, "--set", "metro.tx_power_dbm=-5000",
         "--set", "macro.density_per_km2=0", "--set", "metro.density_per_km2=30",
         "--set", "simulation.drops=5"],
    )
    assert result.exit_code == 3, result.output
    assert "error: drop 0: no interference power on this drop" in result.stderr


def test_unwritable_output_exits_3(runner, tmp_path):
    cfg = write_cfg(tmp_path)
    result = runner.invoke(
        main, ["simulate", "--config", cfg, "--out", str(tmp_path / "no" / "dir" / "x.csv")]
    )
    assert result.exit_code == 3
    assert "cannot write" in result.output


# ----------------------------------------------------------------- writers

def test_write_rows_formats_csv_and_jsonl(tmp_path):
    rows = [
        {"pattern": "quasi_omni", "downtilt_deg": 0.0, "power_mode": "same_power",
         "p2_dbm": 33.0, "ase_bps_hz_km2": 1.25, "ase_stderr": 0.5,
         "avg_rate_bps_hz": 2.0, "rate_stderr": 0.25, "metro_fraction": 0.625,
         "cell_radius_m": math.inf, "drops": 10, "seed": 1},
    ]
    csv_path = tmp_path / "t.csv"
    write_rows(rows, RESULT_COLUMNS, csv_path, "csv")
    lines = csv_path.read_text().splitlines()
    assert lines[1].split(",")[9] == ""  # unbounded radius is an empty field
    assert lines[1].split(",")[4] == "1.25"

    jsonl_path = tmp_path / "t.jsonl"
    write_rows(rows, RESULT_COLUMNS, jsonl_path, "jsonl")
    record = json.loads(jsonl_path.read_text())
    assert record["cell_radius_m"] is None

    with pytest.raises(ValueError):
        write_rows(rows, RESULT_COLUMNS, csv_path, "xml")
