"""Baseline protocol: fixed per subcarrier selection plus water-filling.

Each subcarrier is handed to the destination with the best of its two gains
(relay aided effective gain or direct gain), the better mode is kept fixed,
and plain water-filling, at the exact level of ``solver.water_level``,
spreads the budget over the resulting single gain per subcarrier. In
direct mode the source only transmits in the broadcasting slot here, so
the direct rate is ``ln(1 + g_su p)`` rather than the two slot form, which
is what makes this baseline lose to the joint optimisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rates, solver
from .channel import GainTable

__all__ = ["ReferenceAllocation", "select_per_subcarrier", "waterfill", "solve_reference"]


@dataclass(frozen=True, eq=False)
class ReferenceAllocation:
    """Outcome of the baseline protocol on one gain table."""

    dest: np.ndarray        # (K,) destination per subcarrier
    mode: np.ndarray        # (K,) MODE_RELAY or MODE_DIRECT
    gain: np.ndarray        # (K,) gain the water-filling saw
    power: np.ndarray       # (K,)
    rates_per_subcarrier: np.ndarray
    wsr: float
    water_level: float


def select_per_subcarrier(
    gains: GainTable,
    weights: Optional[np.ndarray] = None,
    g1_table: Optional[np.ndarray] = None,
):
    """Destination, mode and scalar gain per subcarrier.

    The selection is ``solver.max_gain_choice`` without weights: the metric
    is max(g1, g_su) per destination, and relay aided mode wins only on a
    strict gain advantage. Defined for equal priorities; a weights argument
    is accepted for signature parity but must be uniform.
    """
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if not np.all(w == w.flat[0]):
            raise ValueError("the baseline protocol is defined for equal weights only")
    if g1_table is None:
        g1_table = rates.effective_gain_table(gains.g_su, gains.g_sr, gains.g_ru)
    return solver.max_gain_choice(g1_table, gains.g_su)


def waterfill(gain: np.ndarray, ptot: float) -> tuple:
    """Classic water-filling ``p_k = [level - 1/g_k]+`` meeting the budget.

    Returns (power, level), with the exact level of ``solver.water_level``
    and the powers rescaled onto the budget. Gains of zero get no power.
    Raises ValueError if every gain is zero.
    """
    g = np.asarray(gain, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gain must be a nonempty 1-D array")
    if np.any(g < 0.0) or not np.all(np.isfinite(g)):
        raise ValueError("gains must be nonnegative and finite")
    if not (ptot > 0.0 and np.isfinite(ptot)):
        raise ValueError("ptot must be positive and finite")
    inv = solver._inverse(g)
    fill = solver.water_level(1.0, inv, ptot)
    if fill is None:
        raise ValueError("water-filling needs at least one positive gain")
    level = fill[1] / fill[0]
    power = np.maximum(level - inv, 0.0)
    scale = power.sum()
    if scale > 0.0:
        power *= ptot / scale
    return power, float(level)


def solve_reference(
    gains: GainTable,
    ptot: float,
    weights: Optional[np.ndarray] = None,
    g1_table: Optional[np.ndarray] = None,
) -> ReferenceAllocation:
    """Run the baseline protocol and return rates at the filled powers.

    When (uniform) weights are given, ``wsr`` is scaled by the common weight
    so it is directly comparable to a weighted sum rate. Without a usable
    link (no gain with a finite inverse) no split carries any rate: the
    budget is spread evenly, as ``solver.solve`` does, and the water level
    is infinite (price zero).
    """
    dest, mode, gain = select_per_subcarrier(gains, weights=weights, g1_table=g1_table)
    if np.isfinite(solver._inverse(gain)).any():
        power, level = waterfill(gain, ptot)
    else:
        power, level = np.full(gain.size, ptot / gain.size), math.inf
    per_k = np.log1p(gain * power)
    w0 = 1.0 if weights is None else float(np.asarray(weights, dtype=float).flat[0])
    return ReferenceAllocation(
        dest=dest,
        mode=mode,
        gain=gain,
        power=power,
        rates_per_subcarrier=per_k,
        wsr=w0 * float(per_k.sum()),
        water_level=level,
    )
