"""Seeded Monte Carlo drops, aggregation, sweeps, and the cell-radius rule.

Each drop places one random network around a probe user at the origin,
associates the user, draws one fading realization per sector link, and
records the resulting signal-to-interference ratio.  Drop ``i`` of a run
draws from a stream derived as ``SeedSequence(master_seed,
spawn_key=(i, attempt))``, so results are independent of execution order
and worker count.

The cells of a sweep share that seed and differ only in the metro antenna,
downtilt and transmit power, none of which consumes a random draw.  So
`run_cells` samples each drop, counts its walls and evaluates every other
link-budget term once, then scores each cell against the shared drop.  A
single run is the one-cell case.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    _SECTOR_OFFSETS_RAD,
    MIN_LINK_DISTANCE_KM,
    NetworkSample,
    Tier,
    blockage_counts_from_origin,
    sample_network,
    wrap_angle_deg,
)
from .antenna import metro_antenna
from .association import DegenerateNetworkError, serving_sector
from .scenario import (
    MacroConfig,
    MetroConfig,
    PowerMode,
    Scenario,
    metro_tx_power_dbm,
    validate_scenario,
)

__all__ = [
    "DropResult",
    "NetworkMetrics",
    "SectorPowers",
    "aggregate",
    "cell_radius",
    "evaluate_sample",
    "metro_cell_radius",
    "result_row",
    "run_cells",
    "run_drop",
    "run_many",
    "run_sweep",
    "sector_mean_powers",
    "sweep_scenarios",
]

# A drop needs at least one interferer next to the serving sector.
MAX_DROP_RETRIES = 8


@dataclass(frozen=True)
class DropResult:
    """Outcome of one Monte Carlo drop for the origin user."""

    tier: Tier
    spectral_efficiency: float  # b/s/Hz, log2(1 + SIR)
    sir_db: float
    serving_blockages: int  # walls on the serving path


@dataclass(frozen=True)
class NetworkMetrics:
    """Aggregated drop statistics."""

    ase_bps_hz_km2: float
    ase_stderr: float
    avg_rate_bps_hz: float
    rate_stderr: float
    metro_fraction: float
    macro_rate_bps_hz: float
    metro_rate_bps_hz: float
    macro_drops: int
    metro_drops: int


@dataclass(frozen=True)
class SectorPowers:
    """Fading-averaged receive power of every sector, origin user."""

    power_dbm: np.ndarray  # (S,) macro sectors wap-major, then metros
    n_macro_sectors: int
    wap_index: np.ndarray  # (S,) macros 0..n1-1, metros n1..n1+n2-1
    sector_index: np.ndarray  # (S,) 0..2 for macros, 0 for metros


@dataclass(frozen=True)
class _DropTerms:
    """The link-budget terms of one drop that are the same in every cell."""

    macro_dbm: np.ndarray  # (3*n1,) macro sector powers, wap-major
    metro_theta_deg: np.ndarray  # (n2,) elevation of each metro seen from the user
    metro_loss_db: np.ndarray  # (n2,)
    metro_shadow_db: np.ndarray  # (n2,)
    wap_blockages: np.ndarray  # (n1+n2,) walls on each WAP-user path


def _link_terms(
    tier: MacroConfig | MetroConfig, xy: np.ndarray, user_h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Elevation (deg) and path loss (dB) from each site of a tier to the origin user."""
    d2d = np.maximum(np.hypot(xy[:, 0], xy[:, 1]), MIN_LINK_DISTANCE_KM)
    dz_m = tier.height_m - user_h
    theta = np.degrees(np.arctan2(dz_m, d2d * 1e3))
    d3d = np.hypot(d2d, dz_m * 1e-3)
    return theta, tier.pathloss_intercept_db + tier.pathloss_slope_db * np.log10(d3d)


def _drop_terms(scenario: Scenario, net: NetworkSample) -> _DropTerms:
    n1 = len(net.macro_xy)
    n2 = len(net.metro_xy)
    user_h = scenario.user_height_m
    macro = scenario.macro
    metro = scenario.metro

    crossings = np.zeros(n1 + n2, dtype=np.int64)
    if len(net.building_center_xy):
        crossings = blockage_counts_from_origin(
            np.vstack((net.macro_xy.reshape(n1, 2), net.metro_xy.reshape(n2, 2))),
            np.concatenate((np.full(n1, macro.height_m), np.full(n2, metro.height_m))),
            user_h,
            *net.wall_endpoints(),
            net.building_height_m,
        )
    shadow = crossings * scenario.buildings.attenuation_db

    theta, loss = _link_terms(macro, net.macro_xy, user_h)
    azimuth_to_user = np.arctan2(-net.macro_xy[:, 1], -net.macro_xy[:, 0])
    boresights = net.macro_azimuth0_rad[:, None] + _SECTOR_OFFSETS_RAD[None, :]
    phi = wrap_angle_deg(np.degrees(azimuth_to_user[:, None] - boresights))
    gain = macro.pattern().total_gain_dbi(phi, theta[:, None], macro.downtilt_deg)
    p = macro.tx_power_dbm + gain
    p = p - loss[:, None]
    p = p + shadow[:n1, None]

    metro_theta, metro_loss = _link_terms(metro, net.metro_xy, user_h)
    return _DropTerms(
        macro_dbm=p.ravel(),
        metro_theta_deg=metro_theta,
        metro_loss_db=metro_loss,
        metro_shadow_db=shadow[n1:],
        wap_blockages=crossings,
    )


def _sector_power_dbm(terms: _DropTerms, metro: MetroConfig) -> np.ndarray:
    """Mean receive power of every sector, macros first, under one metro antenna."""
    gain = metro.antenna().pattern.total_gain_dbi(0.0, terms.metro_theta_deg, metro.downtilt_deg)
    p = metro.tx_power_dbm + gain
    p = p - terms.metro_loss_db
    p = p + terms.metro_shadow_db
    return np.concatenate((terms.macro_dbm, p))


def sector_mean_powers(scenario: Scenario, net: NetworkSample) -> SectorPowers:
    """Evaluate the mean link budget of every sector toward the origin.

    The fading-averaged receive power of a link in dBm is ``P_tx + G(phi,
    theta, tilt) - L(d_3d) + K * gamma``, with L the tier's distance power
    law (d in km), K the number of walls cutting the path and gamma the
    per-wall attenuation in dB.
    """
    n1 = len(net.macro_xy)
    n2 = len(net.metro_xy)
    terms = _drop_terms(scenario, net)
    return SectorPowers(
        power_dbm=_sector_power_dbm(terms, scenario.metro),
        n_macro_sectors=3 * n1,
        wap_index=np.concatenate((np.repeat(np.arange(n1), 3), np.arange(n1, n1 + n2))),
        sector_index=np.concatenate((np.tile(np.arange(3), n1), np.zeros(n2, dtype=np.int64))),
    )


def _evaluate(
    terms: _DropTerms, metro: MetroConfig, bias_db: float, fading: np.ndarray | None
) -> DropResult:
    """Associate the origin user and score one drop under one metro antenna."""
    dbm = _sector_power_dbm(terms, metro)
    n_ms = len(terms.macro_dbm)
    mean_linear = 10.0 ** (dbm / 10.0)
    serving = serving_sector(dbm, n_ms, bias_db, mean_linear)

    inst = mean_linear if fading is None else mean_linear * fading
    desired = inst[serving]
    interference = inst.sum() - desired
    if interference <= 0.0:
        raise DegenerateNetworkError("no interference power on this drop")
    sir = desired / interference
    wap = serving // 3 if serving < n_ms else serving - n_ms + n_ms // 3
    return DropResult(
        tier=Tier.MACRO if serving < n_ms else Tier.METRO,
        spectral_efficiency=float(np.log2(1.0 + sir)),
        sir_db=float(10.0 * np.log10(sir)),
        serving_blockages=int(terms.wap_blockages[wap]),
    )


def evaluate_sample(
    scenario: Scenario, net: NetworkSample, *, fading: np.ndarray | None = None
) -> DropResult:
    """Associate the origin user and score one already-sampled network.

    ``fading`` holds one linear power factor per sector in sector order;
    None means unit fading on every link.
    """
    terms = _drop_terms(scenario, net)
    return _evaluate(terms, scenario.metro, scenario.sir_bias_db, fading)


def _sample_drop(scenario: Scenario, drop_index: int) -> tuple[NetworkSample, np.ndarray]:
    """The network and fading of one seeded drop; resamples degenerate
    (< 2 sector) networks."""
    if drop_index < 0:
        raise ValueError("drop_index must be >= 0")
    last_error: DegenerateNetworkError | None = None
    for attempt in range(MAX_DROP_RETRIES):
        rng = np.random.default_rng(
            np.random.SeedSequence(scenario.master_seed, spawn_key=(drop_index, attempt))
        )
        net = sample_network(scenario, rng)
        if net.n_sectors < 2:
            last_error = DegenerateNetworkError(
                f"drop {drop_index}: {net.n_sectors} sectors in the window"
            )
            continue
        return net, rng.standard_exponential(net.n_sectors)
    raise DegenerateNetworkError(
        f"drop {drop_index} stayed degenerate after {MAX_DROP_RETRIES} attempts: {last_error}"
    )


def run_drop(scenario: Scenario, drop_index: int) -> DropResult:
    """Run one seeded drop; resamples degenerate (< 2 sector) networks."""
    net, fading = _sample_drop(scenario, drop_index)
    return evaluate_sample(scenario, net, fading=fading)


def _drop_batch(args) -> list[list[DropResult]]:
    """Drops start..stop-1, one list per cell."""
    cells, start, stop = args
    results: list[list[DropResult]] = [[] for _ in cells]
    for drop_index in range(start, stop):
        net, fading = _sample_drop(cells[0], drop_index)
        terms = _drop_terms(cells[0], net)
        try:
            for cell, out in zip(cells, results):
                out.append(_evaluate(terms, cell.metro, cell.sir_bias_db, fading))
        except DegenerateNetworkError as exc:
            raise DegenerateNetworkError(f"drop {drop_index}: {exc}") from exc
    return results


def _shared_part(cell: Scenario) -> Scenario:
    """The cell without the settings that cells of one run may vary."""
    return replace(
        cell,
        power_mode=PowerMode.SAME_POWER,
        metro=replace(cell.metro, pattern="", downtilt_deg=0.0, tx_power_dbm=0.0),
    )


def run_cells(cells: list[Scenario], *, workers: int = 1) -> list[list[DropResult]]:
    """Run the drops of every cell, sampling each drop once for all of them.

    The cells may differ only in ``metro.pattern``, ``metro.downtilt_deg``,
    ``metro.tx_power_dbm`` and ``power_mode``.  Each cell's outcomes equal a
    run of that cell alone, for any worker count: every drop owns a stream
    derived from its index, and batches are concatenated in index order.
    """
    if not cells:
        return []
    for cell in cells:
        validate_scenario(cell)
    shared = _shared_part(cells[0])
    if any(_shared_part(cell) != shared for cell in cells[1:]):
        raise ValueError(
            "cells of one run may differ only in metro pattern, downtilt and power"
        )
    n = cells[0].drops
    if workers <= 1:
        return _drop_batch((cells, 0, n))
    bounds = np.linspace(0, n, min(n, workers * 4) + 1).astype(int)
    tasks = [(cells, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    results: list[list[DropResult]] = [[] for _ in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for batch in pool.map(_drop_batch, tasks):
            for out, part in zip(results, batch):
                out.extend(part)
    return results


def run_many(scenario: Scenario, *, workers: int = 1) -> list[DropResult]:
    """Run ``scenario.drops`` drops, in drop-index order (a one-cell `run_cells`)."""
    return run_cells([scenario], workers=workers)[0]


def aggregate(
    results: list[DropResult],
    macro_density_per_km2: float,
    metro_density_per_km2: float,
) -> NetworkMetrics:
    """Combine drop results into the area and per-user rate metrics.

    Conditional tier rates are averaged over the drops served by each tier;
    the area rate weighs them by sector density (three sectors per macro
    site).  A tier with no drops contributes a zero rate and a warning.
    """
    se = np.array([r.spectral_efficiency for r in results])
    is_metro = np.array([r.tier is Tier.METRO for r in results], dtype=bool)
    n = len(se)
    if n == 0:
        raise ValueError("aggregate needs at least one drop result")
    n_metro = int(np.count_nonzero(is_metro))
    n_macro = n - n_metro
    for count, name in ((n_macro, "macro"), (n_metro, "metro")):
        if count == 0:
            warnings.warn(
                f"no {name}-associated drops; its conditional rate is reported as 0",
                RuntimeWarning,
                stacklevel=2,
            )

    rate_macro = float(se[~is_metro].mean()) if n_macro else 0.0
    rate_metro = float(se[is_metro].mean()) if n_metro else 0.0
    var_macro = float(se[~is_metro].var(ddof=1)) if n_macro >= 2 else 0.0
    var_metro = float(se[is_metro].var(ddof=1)) if n_metro >= 2 else 0.0

    macro_weight = 3.0 * macro_density_per_km2
    ase = macro_weight * rate_macro + metro_density_per_km2 * rate_metro
    ase_var = 0.0
    if n_macro:
        ase_var += macro_weight**2 * var_macro / n_macro
    if n_metro:
        ase_var += metro_density_per_km2**2 * var_metro / n_metro

    metro_fraction = n_metro / n
    avg_rate = rate_macro * (1.0 - metro_fraction) + rate_metro * metro_fraction
    rate_stderr = float(se.std(ddof=1) / math.sqrt(n)) if n >= 2 else 0.0

    return NetworkMetrics(
        ase_bps_hz_km2=float(ase),
        ase_stderr=float(math.sqrt(ase_var)),
        avg_rate_bps_hz=float(avg_rate),
        rate_stderr=rate_stderr,
        metro_fraction=float(metro_fraction),
        macro_rate_bps_hz=rate_macro,
        metro_rate_bps_hz=rate_metro,
        macro_drops=n_macro,
        metro_drops=n_metro,
    )


def cell_radius(
    height_m: float, user_height_m: float, downtilt_deg: float, vert_hpbw_deg: float
) -> float:
    """Ground radius of the outer half-power edge of a downtilted beam.

    Returns ``math.inf`` when the edge ray points at or above the horizon
    (downtilt no larger than half the beamwidth).
    """
    if height_m <= user_height_m:
        raise ValueError("antenna height must exceed the user height")
    if not 0.0 <= downtilt_deg < 90.0:
        raise ValueError("downtilt_deg must be in [0, 90)")
    if not 0.0 < vert_hpbw_deg < 180.0:
        raise ValueError("vert_hpbw_deg must be in (0, 180)")
    edge_deg = downtilt_deg - vert_hpbw_deg / 2.0
    if edge_deg <= 0.0:
        return math.inf
    return (height_m - user_height_m) / math.tan(math.radians(edge_deg))


def metro_cell_radius(scenario: Scenario, downtilt_deg: float, hpbw_deg: float) -> float | None:
    """`cell_radius` of a metro beam at the scenario's heights, or None when
    the antenna is not above the user: the beam edge then has no footprint."""
    height_m, user_m = scenario.metro.height_m, scenario.user_height_m
    if height_m <= user_m:
        return None
    return cell_radius(height_m, user_m, downtilt_deg, hpbw_deg)


def result_row(scenario: Scenario, metrics: NetworkMetrics) -> dict:
    """Flatten one scenario + metrics pair into an output table row."""
    hpbw = scenario.metro.antenna().pattern.vert_hpbw_deg
    radius = metro_cell_radius(scenario, scenario.metro.downtilt_deg, hpbw)
    return {
        "pattern": scenario.metro.pattern,
        "downtilt_deg": scenario.metro.downtilt_deg,
        "power_mode": scenario.power_mode.value,
        "p2_dbm": scenario.metro.tx_power_dbm,
        "ase_bps_hz_km2": metrics.ase_bps_hz_km2,
        "ase_stderr": metrics.ase_stderr,
        "avg_rate_bps_hz": metrics.avg_rate_bps_hz,
        "rate_stderr": metrics.rate_stderr,
        "metro_fraction": metrics.metro_fraction,
        "cell_radius_m": radius,
        "drops": scenario.drops,
        "seed": scenario.master_seed,
    }


def sweep_scenarios(scenario: Scenario) -> list[Scenario]:
    """The per-cell scenarios of a sweep, in pattern-major order.

    The grid is ``sweep_patterns`` x ``sweep_downtilts_deg`` under
    ``power_mode``.  Every cell keeps the template's master seed; tilted
    cells of non-tiltable antennas are dropped from the grid.
    """
    cells = []
    for name in scenario.sweep_patterns:
        antenna = metro_antenna(name)
        for tilt in scenario.sweep_downtilts_deg:
            if tilt != 0.0 and not antenna.tiltable:
                continue
            cells.append(
                replace(
                    scenario,
                    metro=replace(
                        scenario.metro,
                        pattern=name,
                        downtilt_deg=float(tilt),
                        tx_power_dbm=metro_tx_power_dbm(
                            name, scenario.power_mode, scenario.metro.tx_power_dbm
                        ),
                    ),
                )
            )
    return cells


def run_sweep(scenario: Scenario, *, workers: int = 1) -> list[dict]:
    """One metrics row per (pattern, downtilt) cell of `sweep_scenarios`.

    Every cell reuses the scenario's master seed, so rows differ only in the
    swept parameter.
    """
    cells = sweep_scenarios(scenario)
    return [
        result_row(cell, aggregate(drops, cell.macro.density_per_km2, cell.metro.density_per_km2))
        for cell, drops in zip(cells, run_cells(cells, workers=workers))
    ]
