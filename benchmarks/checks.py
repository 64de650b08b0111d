"""Output checks of the drop-throughput benchmark.

Each check compares an output of the program with a computation kept apart
from the program, or with a property the method must have, and returns a
list of failure messages: empty when the check passes.  No check compares
against a stored copy of earlier output.  This module does not import the
package, so the self-test can feed every check corrupted inputs.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Walls are tested against this many paths at once, which bounds the
# all-pairs arrays to a few MB.
_BRUTE_FORCE_CHUNK = 128


def wall_endpoints(center_xy, length_m, orientation_rad):
    """Both ends (km) of walls given by center (km), length (m), orientation."""
    half_km = 0.5e-3 * np.asarray(length_m, dtype=float)
    orientation = np.asarray(orientation_rad, dtype=float)
    offset = np.stack((half_km * np.cos(orientation), half_km * np.sin(orientation)), axis=-1)
    center = np.asarray(center_xy, dtype=float).reshape(-1, 2)
    return center + offset, center - offset


def brute_force_origin_counts(
    wap_xy, wap_height_m, user_height_m, wall_e1, wall_e2, wall_height_m
) -> np.ndarray:
    """Walls cut by each path from the origin user to a WAP, over all pairs.

    The path is ``t * w`` (user at t = 0, WAP at t = 1) and the wall is
    ``e1 + s * v``.  They meet where ``t = cross(e1, v) / cross(w, v)`` and
    ``s = cross(e1, w) / cross(w, v)``, both in [0, 1]; the wall counts when
    the path there is no higher than the wall top.  Every wall is tested
    against every path, with no bearing window.  Parallel pairs never count:
    with continuous random positions they have probability zero.
    """
    wap_xy = np.asarray(wap_xy, dtype=float).reshape(-1, 2)
    wap_z = np.asarray(wap_height_m, dtype=float)
    e1 = np.asarray(wall_e1, dtype=float).reshape(-1, 2)
    v = np.asarray(wall_e2, dtype=float).reshape(-1, 2) - e1
    top = np.asarray(wall_height_m, dtype=float)
    counts = np.zeros(len(wap_xy), dtype=np.int64)
    if len(e1) == 0:
        return counts
    e1_cross_v = e1[:, 0] * v[:, 1] - e1[:, 1] * v[:, 0]
    for lo in range(0, len(wap_xy), _BRUTE_FORCE_CHUNK):
        w = wap_xy[lo : lo + _BRUTE_FORCE_CHUNK, None, :]
        denom = w[..., 0] * v[:, 1] - w[..., 1] * v[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = e1_cross_v / denom
            s = (e1[:, 0] * w[..., 1] - e1[:, 1] * w[..., 0]) / denom
        z = user_height_m + t * (wap_z[lo : lo + _BRUTE_FORCE_CHUNK, None] - user_height_m)
        cut = (denom != 0.0) & (t >= 0.0) & (t <= 1.0) & (s >= 0.0) & (s <= 1.0) & (z <= top)
        counts[lo : lo + len(w)] = cut.sum(axis=1)
    return counts


def check_blockage_counts(label: str, counts, expected) -> list[str]:
    """(a) The program's wall counts equal the all-pairs count on every path."""
    counts = np.asarray(counts)
    expected = np.asarray(expected)
    if counts.shape != expected.shape:
        return [f"(a) {label}: {counts.shape} counts for {expected.shape} paths"]
    bad = np.nonzero(counts != expected)[0]
    if len(bad):
        first = ", ".join(f"wap {i}: {counts[i]} != {expected[i]}" for i in bad[:3])
        return [f"(a) {label}: {len(bad)} of {len(counts)} paths differ ({first})"]
    return []


def check_poisson_means(counts: dict, expected_mean: dict, z: float = 4.0) -> list[str]:
    """(b) Mean point counts per drop lie within ``z`` standard errors of the
    Poisson mean density * area; a zero mean requires zero points."""
    failures = []
    for name, mean in expected_mean.items():
        observed = np.asarray(counts[name], dtype=float)
        got = float(observed.mean())
        if mean == 0.0:
            if np.any(observed != 0.0):
                failures.append(f"(b) {name}: mean {got} per drop where the density is 0")
            continue
        stderr = math.sqrt(mean / len(observed))
        if abs(got - mean) > z * stderr:
            failures.append(
                f"(b) {name}: mean {got:.3f} per drop over {len(observed)} drops, "
                f"Poisson mean {mean:.3f} +- {z:g} x {stderr:.3f}"
            )
    return failures


def check_replay(label: str, results, replayed: dict) -> list[str]:
    """(c) A drop re-run alone equals the same drop of the full run."""
    return [
        f"(c) {label}: drop {i} alone gave {again}, the run gave {results[i]}"
        for i, again in sorted(replayed.items())
        if results[i] != again
    ]


def check_rows_identical(
    label: str, sweep_csv: bytes, row_index: int, cell_csv: bytes
) -> list[str]:
    """(d) A cell re-run with one worker writes the same CSV bytes as its row
    in the multi-worker sweep."""
    sweep_lines = sweep_csv.splitlines(keepends=True)
    cell_lines = cell_csv.splitlines(keepends=True)
    if len(cell_lines) != 2 or row_index + 1 >= len(sweep_lines):
        return [f"(d) {label}: unexpected line counts {len(sweep_lines)} and {len(cell_lines)}"]
    if cell_lines[0] != sweep_lines[0]:
        return [f"(d) {label}: headers differ"]
    if cell_lines[1] != sweep_lines[row_index + 1]:
        return [
            f"(d) {label}: row {row_index} differs: {cell_lines[1]!r} "
            f"!= {sweep_lines[row_index + 1]!r}"
        ]
    return []


def check_plain_mean(label: str, avg_rate_bps_hz: float, spectral_efficiencies) -> list[str]:
    """(e) The reported average rate equals the plain mean of the per-drop
    spectral efficiencies."""
    se = [float(x) for x in spectral_efficiencies]
    plain = math.fsum(se) / len(se)
    if not math.isclose(avg_rate_bps_hz, plain, rel_tol=1e-9, abs_tol=1e-12):
        return [f"(e) {label}: avg_rate_bps_hz {avg_rate_bps_hz!r} != plain mean {plain!r}"]
    return []


def check_no_blockage(label: str, serving_blockages) -> list[str]:
    """(f) Without buildings no serving path crosses a wall."""
    walls = np.asarray(serving_blockages)
    if np.any(walls != 0):
        n_bad = int(np.count_nonzero(walls))
        return [f"(f) {label}: {n_bad} drops report walls on the serving path"]
    return []


def check_tilt_trend(rows: list[dict], patterns=("quasi_omni", "dipole4")) -> list[str]:
    """(g) In same-power mode the metro-served fraction at 40 degrees of
    downtilt is below its value at 10 degrees."""
    fraction = {
        (row["pattern"], float(row["downtilt_deg"])): float(row["metro_fraction"])
        for row in rows
        if row["power_mode"] == "same_power"
    }
    failures = []
    for pattern in patterns:
        at10 = fraction.get((pattern, 10.0))
        at40 = fraction.get((pattern, 40.0))
        if at10 is None or at40 is None:
            failures.append(f"(g) {pattern}: no same_power rows at 10 and 40 degrees")
        elif not at40 < at10:
            failures.append(f"(g) {pattern}: metro_fraction {at40} at 40 deg >= {at10} at 10 deg")
    return failures


def parse_csv(data: bytes) -> list[dict]:
    """Rows of a result CSV as dicts of strings."""
    return list(csv.DictReader(io.StringIO(data.decode())))
