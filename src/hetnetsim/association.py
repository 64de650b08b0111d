"""User association: best sector per tier, then a biased cross-tier choice.

A user first identifies the strongest macro sector and the strongest metro
cell by fading-averaged signal power, then compares their ASAIR (ratio of
the candidate's mean power to the summed mean power of every other sector)
and prefers the metro cell whenever its ASAIR is within ``bias_db`` of the
macro one.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateNetworkError",
    "serving_sector",
    "step3_prefers_metro",
]


class DegenerateNetworkError(RuntimeError):
    """The network realization cannot support an association decision."""


def step3_prefers_metro(asair_macro_db: float, asair_metro_db: float, bias_db: float) -> bool:
    """Cross-tier rule: metro wins when within ``bias_db`` of the macro ASAIR."""
    return asair_metro_db >= asair_macro_db - bias_db


def serving_sector(
    power_dbm: np.ndarray, n_macro_sectors: int, bias_db: float, power_linear: np.ndarray
) -> int:
    """Flat index of the serving sector.

    ``power_dbm`` holds the mean power of every sector, the
    ``n_macro_sectors`` macro sectors first, and ``power_linear`` the same
    powers in mW.  Step 1 takes the strongest macro sector, step 2 the
    strongest metro cell, step 3 compares their ASAIRs with the bias.  Ties
    go to the lowest index.  A missing tier skips the bias comparison.
    """
    if len(power_dbm) < 2:
        raise DegenerateNetworkError("need at least two sectors to form an SIR")
    n_ms = n_macro_sectors
    best_macro = int(np.argmax(power_dbm[:n_ms])) if n_ms else None
    best_metro = int(n_ms + np.argmax(power_dbm[n_ms:])) if len(power_dbm) > n_ms else None
    if best_macro is None:
        return best_metro
    if best_metro is None:
        return best_macro
    total = power_linear.sum()
    asair_macro = 10.0 * np.log10(power_linear[best_macro] / (total - power_linear[best_macro]))
    asair_metro = 10.0 * np.log10(power_linear[best_metro] / (total - power_linear[best_metro]))
    if step3_prefers_metro(asair_macro, asair_metro, bias_db):
        return best_metro
    return best_macro
