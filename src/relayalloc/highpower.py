"""High power closed form: uniform power and max gain destination choice.

When the water level implied by the upper price bound dwarfs every inverse
gain (and every gain, so that the log arguments are large), the dual search
can be skipped: equal power per subcarrier with the best direct gain
destination per subcarrier is optimum up to vanishing terms. The conditions
are checked with the margin ``FACTOR`` and reported, so callers can fall
back to the full search when they do not hold.
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
    destination can see at the upper price bound. ``margin`` is the ratio of
    the threshold to the larger of the two quantities it must dominate; the
    conditions hold when ``margin >= factor``, the module's ``FACTOR``.
    ``mu_lower`` and ``mu_upper`` are the ``solver.price_bracket`` the
    conditions were checked at.
    """

    conditions_met: bool
    threshold: float
    max_inverse_gain: float
    max_gain: float
    margin: float
    factor: float
    mu_lower: float
    mu_upper: float


def check_conditions(
    params: SolverParams,
    gains: GainTable,
    mode_sets: Optional[rates.ModeSets] = None,
    bracket: Optional[tuple] = None,
) -> HighPowerReport:
    """Check whether the closed form regime applies.

    The threshold must exceed ``FACTOR`` times both the largest admissible
    inverse gain max(1/g1, 1/g_su) and the largest gain max(g1, g_su) over
    all subcarrier destination pairs. ``mode_sets``
    (``rates.classify`` at ``params.ptot``) and ``bracket``
    (``solver.price_bracket``'s (mu_lower, mu_upper)) are computed when not
    supplied.
    """
    if mode_sets is None:
        mode_sets = rates.classify(gains, params.ptot)
    if bracket is None:
        bracket = solver.price_bracket(params, gains, mode_sets)
    mu_lower, mu_upper = bracket

    # a zero bound means no usable link, hence no water level to compare
    threshold = float(params.weights.min()) / mu_upper if mu_upper > 0.0 else 0.0
    max_inv = max(float(mode_sets.inv_g1.max()), float(mode_sets.inv_g_su.max()))
    max_gain = max(float(mode_sets.g1.max()), float(gains.g_su.max()))
    worst = max(max_inv, max_gain)
    margin = threshold / worst if worst > 0.0 else np.inf
    return HighPowerReport(
        conditions_met=bool(threshold >= FACTOR * worst),
        threshold=threshold,
        max_inverse_gain=max_inv,
        max_gain=max_gain,
        margin=margin,
        factor=FACTOR,
        mu_lower=mu_lower,
        mu_upper=mu_upper,
    )


def solve_high_power(
    params: SolverParams,
    gains: GainTable,
    report: Optional[HighPowerReport] = None,
) -> Allocation:
    """Closed form allocation for the high power regime.

    Power is split uniformly over subcarriers. With equal weights each
    subcarrier goes to the destination with the largest direct gain; with
    unequal weights the weighted log dominates and every subcarrier goes to
    the maximum weight destination (lowest index on ties). The price bracket
    reported is the one ``report`` was checked at; ``report`` is computed
    when not supplied. Raises ValueError when the regime conditions are not
    met.
    """
    if report is None:
        report = check_conditions(params, gains)
    if not report.conditions_met:
        raise ValueError(
            "high power conditions not met "
            f"(margin {report.margin:.3g} < factor {report.factor:.3g})"
        )

    w = params.weights
    kk = gains.num_subcarriers
    if np.all(w == w[0]):
        dest = np.argmax(gains.g_su, axis=1)
    else:
        # the weighted log dominates every gain difference in this regime
        dest = np.full(kk, int(np.argmax(w)))

    mode = np.full(kk, rates.MODE_DIRECT)
    power = np.full(kk, params.ptot / kk)
    rate = solver._rates(gains.g_su[np.arange(kk), dest], power, np.zeros(kk, dtype=bool))
    return Allocation(
        assignments=solver._LazyAssignments(dest, mode, power, gains),
        wsr=solver._weighted_total(w[dest], rate),
        mu_star=report.mu_upper,
        residual=0.0,
        iterations=0,
        status=solver.STATUS_CLOSED_FORM,
        mu_lower=report.mu_lower,
        mu_upper=report.mu_upper,
        dest=dest,
        mode=mode,
        power=power,
        rate=rate,
    )
