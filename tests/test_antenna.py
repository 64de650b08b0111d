import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnetsim.antenna import (
    DIPOLE_GAIN_FLOOR_DB,
    HALF_POWER_DB,
    METRO_ANTENNAS,
    DipolePattern,
    QuasiOmniPattern,
    SectorPattern,
    dipole_exponent,
    metro_antenna,
)

MACRO = SectorPattern(
    horiz_hpbw_deg=65.0,
    front_back_ratio_db=25.0,
    vert_hpbw_deg=7.0,
    side_lobe_db=-18.0,
    max_gain_dbi=18.0,
)
QUASI = METRO_ANTENNAS["quasi_omni"].pattern
ALL_PATTERNS = [MACRO] + [m.pattern for m in METRO_ANTENNAS.values()]


@pytest.mark.parametrize(
    "hpbw, expected",
    [(78.0, 2.75), (39.0, 11.73), (19.5, 47.64)],
)
def test_dipole_exponent_reference_values(hpbw, expected):
    assert dipole_exponent(hpbw) == pytest.approx(expected, abs=0.01)


@pytest.mark.parametrize("hpbw", [0.0, -5.0, 180.0, 250.0])
def test_dipole_exponent_rejects_bad_hpbw(hpbw):
    with pytest.raises(ValueError):
        dipole_exponent(hpbw)


def test_sector_horizontal_gain():
    assert MACRO.horizontal_gain_db(0.0) == 0.0
    # exactly -3 dB at half the horizontal beamwidth (coefficient 12)
    assert MACRO.horizontal_gain_db(32.5) == -3.0
    assert MACRO.horizontal_gain_db(-32.5) == -3.0
    # capped by the front-to-back ratio behind the sector
    assert MACRO.horizontal_gain_db(180.0) == -25.0


def test_omni_horizontal_gain_is_flat():
    phi = np.linspace(-180.0, 180.0, 721)
    for pattern in (QUASI, METRO_ANTENNAS["dipole2"].pattern):
        assert np.all(pattern.horizontal_gain_db(phi) == 0.0)


@pytest.mark.parametrize("pattern", ALL_PATTERNS)
@pytest.mark.parametrize("tilt", [0.0, 8.0, 16.0])
def test_vertical_boresight_gain_is_zero(pattern, tilt):
    assert pattern.vertical_gain_db(tilt, tilt) == 0.0


@pytest.mark.parametrize("tilt", [0.0, 8.0, 16.0])
def test_parabolic_half_power_points(tilt):
    # half the beamwidth off boresight is exactly half power, not -3 dB
    assert QUASI.vertical_gain_db(tilt + 7.0, tilt) == pytest.approx(HALF_POWER_DB, abs=1e-9)
    assert MACRO.vertical_gain_db(tilt - 3.5, tilt) == pytest.approx(HALF_POWER_DB, abs=1e-9)


@pytest.mark.parametrize("name", ["dipole1", "dipole2", "dipole4"])
def test_dipole_half_power_points(name):
    pattern = METRO_ANTENNAS[name].pattern
    half = pattern.vert_hpbw_deg / 2.0
    assert pattern.vertical_gain_db(half, 0.0) == pytest.approx(HALF_POWER_DB, abs=1e-9)
    assert pattern.vertical_gain_db(-half, 0.0) == pytest.approx(HALF_POWER_DB, abs=1e-9)


def test_dipole_side_lobe_floor():
    unfloored = DipolePattern(
        vert_hpbw_deg=39.0, max_gain_dbi=5.15, side_lobe_db=DIPOLE_GAIN_FLOOR_DB
    )
    # cos^n lobe value 60 degrees off boresight, then the catalogue floor
    assert unfloored.vertical_gain_db(60.0, 0.0) == pytest.approx(-35.324318608623, abs=1e-9)
    floored = METRO_ANTENNAS["dipole2"].pattern
    assert floored.vertical_gain_db(60.0, 0.0) == -10.0


def test_sector_vertical_side_lobe_cap():
    assert MACRO.vertical_gain_db(30.0, 0.0) == -18.0


def test_dipole1_runs_down_to_numerical_floor():
    dipole1 = METRO_ANTENNAS["dipole1"].pattern
    assert dipole1.side_lobe_db == DIPOLE_GAIN_FLOOR_DB
    assert dipole1.vertical_gain_db(90.0, 0.0) == DIPOLE_GAIN_FLOOR_DB
    assert not METRO_ANTENNAS["dipole1"].tiltable


def test_total_gain_at_boresight_matches_peak():
    assert QUASI.total_gain_dbi(0.0, 0.0, 0.0) == 10.2
    assert METRO_ANTENNAS["dipole4"].pattern.total_gain_dbi(0.0, 0.0, 0.0) == 8.15


def test_total_gain_composition():
    # both half-power offsets at once on top of the 18 dBi peak
    total = MACRO.total_gain_dbi(32.5, 3.5, 0.0)
    assert total == pytest.approx(18.0 - 3.0 + HALF_POWER_DB, abs=1e-9)
    assert total == pytest.approx(12.0, abs=0.02)


def test_element_doubling_gain_ladder():
    gains = [METRO_ANTENNAS[n].pattern.max_gain_dbi for n in ("dipole1", "dipole2", "dipole4")]
    assert gains[1] - gains[0] == pytest.approx(3.0, abs=1e-9)
    assert gains[2] - gains[1] == pytest.approx(3.0, abs=1e-9)


def test_metro_antenna_lookup():
    assert metro_antenna("dipole4").pattern.vert_hpbw_deg == 19.5
    with pytest.raises(ValueError, match="unknown metro antenna"):
        metro_antenna("yagi")


@pytest.mark.parametrize("pattern", ALL_PATTERNS)
@settings(deadline=None, max_examples=200)
@given(
    offset=st.floats(0.0, 89.0),
    tilt=st.floats(0.0, 45.0),
)
def test_vertical_pattern_is_even(pattern, offset, tilt):
    left = float(pattern.vertical_gain_db(tilt - offset, tilt))
    right = float(pattern.vertical_gain_db(tilt + offset, tilt))
    assert left == pytest.approx(right, abs=1e-6)


@pytest.mark.parametrize("pattern", ALL_PATTERNS)
@settings(deadline=None, max_examples=200)
@given(
    theta=st.floats(-90.0, 90.0),
    tilt=st.floats(0.0, 45.0),
)
def test_downtilt_is_a_pure_shift(pattern, theta, tilt):
    # identical to evaluating the untilted pattern at the shifted angle
    assert float(pattern.vertical_gain_db(theta, tilt)) == float(
        pattern.vertical_gain_db(theta - tilt, 0.0)
    )


@pytest.mark.parametrize("pattern", ALL_PATTERNS)
@settings(deadline=None, max_examples=200)
@given(
    phi=st.floats(-180.0, 180.0),
    theta=st.floats(-90.0, 90.0),
    tilt=st.floats(0.0, 45.0),
)
def test_total_gain_never_exceeds_peak_and_respects_floors(pattern, phi, theta, tilt):
    total = float(pattern.total_gain_dbi(phi, theta, tilt))
    assert total <= pattern.max_gain_dbi + 1e-12

    vertical = float(pattern.vertical_gain_db(theta, tilt))
    assert vertical <= 1e-12
    assert vertical >= pattern.side_lobe_db - 1e-12

    horizontal = float(pattern.horizontal_gain_db(phi))
    assert horizontal <= 0.0
    if isinstance(pattern, SectorPattern):
        assert horizontal >= -pattern.front_back_ratio_db - 1e-12
    else:
        assert horizontal == 0.0


def test_pattern_parameter_validation():
    with pytest.raises(ValueError):
        SectorPattern(65.0, -1.0, 7.0, -18.0, 18.0)  # negative FBR
    with pytest.raises(ValueError):
        SectorPattern(65.0, 25.0, 7.0, 2.0, 18.0)  # positive SLL
    with pytest.raises(ValueError):
        QuasiOmniPattern(0.0, -16.0, 10.2)  # HPBW out of range
    with pytest.raises(ValueError):
        QuasiOmniPattern(14.0, -16.0, math.nan)  # non-finite gain
    with pytest.raises(ValueError):
        DipolePattern(39.0, math.inf, -10.0)  # non-finite gain
    with pytest.raises(ValueError):
        DipolePattern(39.0, 5.15, 1.0)  # positive SLL
    with pytest.raises(TypeError):
        DipolePattern(39.0, 5.15)  # the side-lobe floor is required


def test_dipole_exponent_is_stored_consistently():
    for name in ("dipole1", "dipole2", "dipole4"):
        pattern = METRO_ANTENNAS[name].pattern
        assert pattern.exponent == pytest.approx(dipole_exponent(pattern.vert_hpbw_deg), rel=1e-15)


def test_patterns_broadcast_over_arrays():
    theta = np.linspace(-90.0, 90.0, 361)
    gains = QUASI.total_gain_dbi(0.0, theta, 8.0)
    assert gains.shape == theta.shape
    assert float(gains.max()) == pytest.approx(10.2, abs=1e-12)
