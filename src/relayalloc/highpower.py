"""High power closed form: uniform power and max gain destination choice.

When the water level implied by the upper price bound dwarfs every inverse
gain (and every gain, so that the log arguments are large), the dual search
can be skipped: equal power per subcarrier with the best direct gain
destination per subcarrier is optimum up to vanishing terms. The conditions
are checked with a configurable margin factor and reported, so callers can
fall back to the full search when they do not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rates, solver
from .channel import GainTable
from .solver import Allocation, SolverParams

__all__ = ["HighPowerReport", "check_conditions", "solve_high_power"]


@dataclass(frozen=True, eq=False)
class HighPowerReport:
    """Outcome of the high power condition checks.

    ``threshold`` is ``min_u w_u / mu_upper``, the smallest water level any
    destination can see at the upper price bound. ``margin`` is the ratio of
    the threshold to the larger of the two quantities it must dominate; the
    conditions hold when ``margin >= factor``.
    """

    conditions_met: bool
    threshold: float
    max_inverse_gain: float
    max_gain: float
    margin: float
    factor: float


def check_conditions(
    params: SolverParams,
    gains: GainTable,
    mu_upper: Optional[float] = None,
    factor: Optional[float] = None,
    g1_table: Optional[np.ndarray] = None,
) -> HighPowerReport:
    """Check whether the closed form regime applies.

    The threshold must exceed ``factor`` times both the largest admissible
    inverse gain max(1/g1, 1/g_su) and the largest gain max(g1, g_su) over
    all subcarrier destination pairs. mu_upper and the effective gain table
    are computed when not supplied.
    """
    if factor is None:
        factor = params.highpower_factor
    if mu_upper is None:
        mode_sets = rates.classify(gains, params.ptot)
        _, mu_upper = solver.price_bracket(params, gains, mode_sets)
        if g1_table is None:
            g1_table = mode_sets.g1
    if g1_table is None:
        g1_table = rates.effective_gain_table(gains.g_su, gains.g_sr, gains.g_ru)

    # a zero bound means no usable link, hence no water level to compare
    threshold = float(params.weights.min()) / mu_upper if mu_upper > 0.0 else 0.0
    both = np.stack([g1_table, gains.g_su])
    max_inv = float(solver._inverse(both).max())
    max_gain = float(both.max())
    worst = max(max_inv, max_gain)
    margin = threshold / worst if worst > 0.0 else np.inf
    return HighPowerReport(
        conditions_met=bool(threshold >= factor * worst),
        threshold=threshold,
        max_inverse_gain=max_inv,
        max_gain=max_gain,
        margin=margin,
        factor=factor,
    )


def solve_high_power(
    params: SolverParams,
    gains: GainTable,
    factor: Optional[float] = None,
    report: Optional[HighPowerReport] = None,
    bracket: Optional[tuple] = None,
) -> Allocation:
    """Closed form allocation for the high power regime.

    Power is split uniformly over subcarriers. With equal weights each
    subcarrier goes to the destination with the largest direct gain; with
    unequal weights the weighted log dominates and every subcarrier goes to
    the maximum weight destination (lowest index on ties). ``bracket`` is
    ``solver.price_bracket``'s (mu_lower, mu_upper), computed when not
    supplied. Raises ValueError when the regime conditions are not met.
    """
    if bracket is None or report is None:
        mode_sets = rates.classify(gains, params.ptot)
        if bracket is None:
            bracket = solver.price_bracket(params, gains, mode_sets)
        if report is None:
            report = check_conditions(params, gains, bracket[1], factor, mode_sets.g1)
    mu_lower, mu_upper = bracket
    if not report.conditions_met:
        raise ValueError(
            "high power conditions not met "
            f"(margin {report.margin:.3g} < factor {report.factor:.3g})"
        )

    w = params.weights
    kk = gains.num_subcarriers
    p_k = params.ptot / kk
    if np.all(w == w[0]):
        dest = np.argmax(gains.g_su, axis=1)
    else:
        # the weighted log dominates every gain difference in this regime
        dest = np.full(kk, int(np.argmax(w)))

    rate = 2.0 * np.log1p(gains.g_su[np.arange(kk), dest] * p_k / 2.0)  # rates.direct_rate per subcarrier
    return Allocation(
        assignments=solver._assemble(dest, np.full(kk, rates.MODE_DIRECT), np.full(kk, p_k), gains),
        wsr=solver._weighted_total(w[dest], rate),
        mu_star=mu_upper,
        residual=0.0,
        iterations=0,
        status=solver.STATUS_CLOSED_FORM,
        mu_lower=mu_lower,
        mu_upper=mu_upper,
    )
