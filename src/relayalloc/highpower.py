"""High power closed form: uniform power and max gain destination choice.

When the water level implied by the upper price bound dwarfs every inverse
gain (and every gain, so that the log arguments are large), the closed form
replaces the dual search: equal power per subcarrier, each to its best
direct gain destination (the largest weight one with unequal weights). This
is the paper's large budget limit. It carries no certificate at a finite
budget: with unequal weights its weighted sum rate can fall well below the
proposed protocol's where the conditions hold. The conditions are checked
with the margin ``FACTOR`` and reported, so callers can fall back to the
full search when they do not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rates, solver
from .channel import GainTable
from .solver import Allocation, SolverParams

__all__ = ["FACTOR", "HighPowerReport", "check_conditions", "solve_high_power"]

# The water level must dominate every inverse gain and every gain by this
# factor for the closed form to apply.
FACTOR = 100.0


@dataclass(frozen=True, eq=False)
class HighPowerReport:
    """Outcome of the high power condition checks.

    ``threshold`` is ``min_u w_u / mu_upper``, the smallest water level any
    destination can see at the upper price bound ``mu_upper`` of
    ``solver.price_bracket``. ``margin`` is the ratio of the threshold to the
    larger of the two quantities it must dominate; the conditions hold when
    ``margin >= FACTOR``.
    """

    conditions_met: bool
    threshold: float
    max_inverse_gain: float
    max_gain: float
    margin: float
    mu_upper: float


def check_conditions(
    params: SolverParams,
    gains: GainTable,
    mode_sets: Optional[rates.ModeSets] = None,
) -> HighPowerReport:
    """Check whether the closed form regime applies.

    The threshold must exceed ``FACTOR`` times both the largest inverse
    gain max(1/g1, 1/g_su) and the largest gain max(g1, g_su) over the whole
    (2, K, U) candidate table of ``mode_sets`` (``rates.classify`` at
    ``params.ptot``, computed when not supplied), and ``mu_upper`` is read
    from ``solver.price_bracket``.
    """
    if mode_sets is None:
        mode_sets = rates.classify(gains, params.ptot)
    mu_upper = solver.price_bracket(params, mode_sets)[1]

    # a zero bound means no usable link, hence no water level to compare
    threshold = float(params.weights.min()) / mu_upper if mu_upper > 0.0 else 0.0
    max_inv = float(rates._inverse(mode_sets.gain.min()))  # that of the least gain
    max_gain = mode_sets.peak
    worst = max(max_inv, max_gain)
    return HighPowerReport(
        conditions_met=bool(threshold >= FACTOR * worst),
        threshold=threshold,
        max_inverse_gain=max_inv,
        max_gain=max_gain,
        margin=threshold / worst,  # max_inv > 0: the inverse of a gain, or inf
        mu_upper=mu_upper,
    )


def solve_high_power(params: SolverParams, gains: GainTable, report: HighPowerReport) -> Allocation:
    """Closed form allocation for the high power regime.

    Power is split uniformly over subcarriers. With equal weights each
    subcarrier goes to the destination with the largest direct gain; with
    unequal weights every subcarrier goes to the maximum weight destination
    (lowest index on ties), the choice of the paper's large budget limit,
    which is not certified at a finite budget. ``report`` is
    ``check_conditions(params, gains)``, and the price reported is the upper
    bound it was checked at. Raises ValueError when the regime conditions
    are not met.
    """
    if not report.conditions_met:
        raise ValueError(
            "high power conditions not met "
            f"(margin {report.margin:.3g} < factor {FACTOR:.3g})"
        )

    w = params.weights
    kk = gains.num_subcarriers
    if np.all(w == w[0]):
        dest = np.argmax(gains.g_su, axis=1)
    else:
        # the large budget limit's choice; at a finite budget a stronger
        # destination of a smaller weight can be worth more
        dest = np.full(kk, int(np.argmax(w)))

    power = np.full(kk, params.ptot / kk)
    # direct candidates 2u + 1, over both slots
    return Allocation.from_choice(2 * dest + 1, power, gains.g_su[np.arange(kk), dest], rates._SLOTS[1], params,
                                  gains, solver.STATUS_CLOSED_FORM, report.mu_upper)
