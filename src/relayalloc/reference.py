"""Baseline protocol: fixed per subcarrier selection plus water-filling.

Each subcarrier is handed to the destination with the best of its two gains
(relay aided effective gain or direct gain), the better mode is kept fixed,
and plain water-filling, the solver's own exact fill, spreads the budget
over the resulting single gain per subcarrier. In direct mode the source
only transmits in the broadcasting slot here (slot count c = 1 in either
mode), so the direct rate is ``ln(1 + g_su p)`` rather than the two slot
form, which is what makes this baseline lose to the joint optimisation. The
result is built by ``solver.Allocation.from_choice`` like every other
protocol's.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import rates, solver
from .channel import GainTable

__all__ = ["waterfill", "solve_reference"]


def waterfill(gain: np.ndarray, ptot: float) -> tuple:
    """Classic water-filling ``p_k = [level - 1/g_k]+`` meeting the budget.

    Returns (power, level), with the exact level and powers of the solver's
    fill, which spends the budget however small it is. Gains too small to
    invert (``rates._inverse``) get no power; if every gain is, the budget is
    spread evenly and the level is infinite. Raises ValueError for malformed
    input.
    """
    g = np.asarray(gain, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("gain must be a nonempty 1-D array")
    if np.any(g < 0.0) or not np.all(np.isfinite(g)):
        raise ValueError("gains must be nonnegative and finite")
    if not (ptot > 0.0 and np.isfinite(ptot)):
        raise ValueError("ptot must be positive and finite")
    lam, power = solver._fill(1.0, rates._inverse(g), 1.0, ptot)
    return power, (1.0 / lam if lam > 0.0 else math.inf)


def solve_reference(
    gains: GainTable,
    ptot: float,
    weights: Optional[np.ndarray] = None,
    g1_table: Optional[np.ndarray] = None,
) -> solver.Allocation:
    """Run the baseline protocol; returns an ``Allocation`` with status ``waterfill``.

    The selection is ``solver.max_gain_choice`` without weights: the metric
    is max(g1, g_su) per destination, and relay aided mode wins only on a
    strict gain advantage. The protocol is defined for equal priorities, so
    weights, when given, must be uniform; ``wsr`` is then scaled by the
    common weight w0 so it is directly comparable to a weighted sum rate,
    and the price is ``w0 / level``. ``rate`` is the single slot rate
    ``ln(1 + g p)`` of each subcarrier. Without a usable link (no gain with
    a finite inverse) ``waterfill`` spreads the budget evenly at an infinite
    level, so the price is 0, as in ``solver.solve``. The assignment
    rows spend a direct subcarrier's power in the broadcasting slot only.
    Raises ValueError for a common weight or budget that is not positive
    and finite.
    """
    w0 = 1.0
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if not np.all(w == w.flat[0]):
            raise ValueError("the baseline protocol is defined for equal weights only")
        w0 = float(w.flat[0])
    params = solver.SolverParams(ptot=ptot, weights=np.full(gains.num_destinations, w0))
    if g1_table is None:
        g1_table = rates.effective_gain_table(gains.g_su, gains.g_sr, gains.g_ru)
    pick, gain = solver.max_gain_choice((g1_table, gains.g_su))
    power, level = waterfill(gain, ptot)
    mu = w0 / level
    # one slot in either mode
    return solver.Allocation.from_choice(pick, power, gain, 1.0, params, gains, solver.STATUS_WATERFILL, mu, (mu, mu))
