"""Dual decomposition stage: price search and per subcarrier assignments.

For a price mu on total power, every subcarrier independently picks the
candidate maximizing its contribution to the Lagrangian, with a closed form
optimum power. Candidate ``pick = 2u + m`` is destination u relay aided
(m = 0) or direct (m = 1), entry (m, k, u) of the ``ModeSets`` tables; its
slot count c is 1 or 2, it asks for ``c [w / mu - 1 / g]+`` and carries
``c ln(1 + g p / c)``. Ties go to the first candidate in that order. The
assigned power P(mu) does not increase with the price, so the search keeps
a bracket ``(lo, hi)`` with ``P(lo) >= Ptot >= P(hi)`` inside two analytic
price bounds, and each evaluation shrinks it.

For a fixed assignment (one pick per subcarrier) the power is a water-filling
``sum_k c_k [a_k / lam - v_k]+ = Ptot``. ``water_level`` solves it exactly
by one sort of the thresholds ``v_k / a_k`` and two cumulative sums. The
price bounds, the collapse repair and every step of the search call it: the
next price is the one at which the last state's assignment spends exactly
``Ptot``. The search stops when the maximizer at that price is the same
assignment on every subcarrier that carries power: that assignment then
maximizes the Lagrangian at a price where it spends the whole budget, which
is the KKT certificate. Where the price is neither strictly inside the
bracket (whose edges include the last price, so a repeat is excluded too)
nor the still unmoved lower bound, the search bisects in log price,
``sqrt(lo * hi)``, instead. The gains and admissibility do not depend on
the price: every evaluation reads them from the ``ModeSets`` of
``rates.classify``. A candidate's value does not decrease in its weight or
its gain, so an evaluation scores only each subcarrier's (weight, gain)
Pareto front, ``ModeSets.front``, which the first price bracket of a solve
builds for its weights, in the same pass that gives the bracket's
per-subcarrier terms (Seong, Mohseni and Cioffi, IEEE ISIT 2006, for the
per-subcarrier dual of weighted OFDMA).

P(mu) is step discontinuous, so no price may certify an assignment. If the
bracket collapses, the total budget sits inside a power jump: no single
assignment matches it exactly. Only the subcarriers whose choice differs
between the two edge states of the bracket are then in question (Yu and
Lui, IEEE Trans. Commun. 54(7), 2006). Taking the first j of them from the
lower edge and the rest from the upper one, for every j, gives one mix
per count of switched subcarriers; these and the greedy max
weighted gain choice are refilled to the exact budget, and the best is
returned with ``status="bracket_collapse"``.

Every protocol ends with a (candidate, power) choice and its slot counts,
and ``Allocation.from_choice`` turns it into the result: per subcarrier
arrays of destination, mode, total power and unweighted rate, the WSR as
their weighted sum, and the unspent budget. The relay set and the source
and relay power split of each relay aided subcarrier serve only reports,
so ``Allocation.assignments`` assembles them as ``SubcarrierAssignment``
rows on first access, from one more batched closed form call and its
``split``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rates
from .channel import GainTable
from .rates import MODE_DIRECT, MODE_RELAY, ModeSets

__all__ = [
    "ConvergenceError",
    "SolverParams",
    "DualState",
    "SubcarrierAssignment",
    "Allocation",
    "solve_at_price",
    "price_bracket",
    "water_level",
    "max_gain_choice",
    "solve",
    "weighted_sum_rate",
    "user_rates",
]

STATUS_KKT = "kkt"
STATUS_GAP = "bracket_collapse"
STATUS_CLOSED_FORM = "closed_form"
STATUS_WATERFILL = "waterfill"


class ConvergenceError(RuntimeError):
    """The price search did not end within its evaluation cap."""


@dataclass(frozen=True, eq=False)
class SolverParams:
    """Total power budget and per destination priorities.

    ``weights`` are the per destination priorities; by convention they sum
    to one, but any positive values are accepted (the optimum assignments
    are invariant to a common positive scaling). Every number must be finite.
    """

    ptot: float
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        w = self.weights
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-D array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be positive and finite")
        if not (self.ptot > 0.0 and np.isfinite(self.ptot)):
            raise ValueError("ptot must be positive and finite")

    @property
    def num_destinations(self) -> int:
        return self.weights.size


# A choice is one candidate index ``pick = 2u + m`` per subcarrier; m
# indexes ``_MODES`` and the slot counts ``rates._SLOTS``.
_MODES = np.array([MODE_RELAY, MODE_DIRECT])


@dataclass(frozen=True, eq=False)
class DualState:
    """Per subcarrier maximizers and totals at one price."""

    mu: float
    pick: np.ndarray      # (K,) chosen candidate 2u + m
    power: np.ndarray     # (K,) total subcarrier power
    total_power: float
    lagrangian: float


@dataclass(frozen=True, eq=False)
class SubcarrierAssignment:
    """One subcarrier's destination, mode and power breakdown.

    ``broadcast_power`` is what the source spends in the broadcasting slot;
    ``relaying_power`` is what it spends in the relaying slot (zero in relay
    aided mode, where the relay set transmits instead).
    """

    k: int
    u: int
    mode: str
    sum_power: float
    broadcast_power: float
    relaying_power: float
    relay_indices: tuple = ()
    relay_powers: np.ndarray = field(default_factory=lambda: np.empty(0))


@dataclass(frozen=True, eq=False)
class Allocation:
    """Final allocation of any protocol plus diagnostics of its price.

    ``dest``, ``mode``, ``power`` and ``rate`` are the per subcarrier
    destination, mode, total power and unweighted rate; ``wsr`` is the
    weighted sum of ``rate``, added left to right, and ``residual`` is
    ``max(ptot - sum(power), 0)``. ``assignments`` holds the same choice as
    ``SubcarrierAssignment`` rows with the source and relay power split, as
    a view that assembles them on first access. Every protocol builds its
    result with ``from_choice``.
    """

    assignments: Sequence
    wsr: float
    mu_star: float
    residual: float
    iterations: int
    status: str
    mu_lower: float
    mu_upper: float
    dest: np.ndarray
    mode: np.ndarray
    power: np.ndarray
    rate: np.ndarray

    @property
    def converged(self) -> bool:
        return self.status in (STATUS_KKT, STATUS_CLOSED_FORM, STATUS_WATERFILL)

    @staticmethod
    def from_choice(pick, power, gain, c, params: SolverParams, gains: GainTable, status: str, mu: float,
                    bracket: tuple, iterations: int = 0) -> "Allocation":
        """The allocation of a (candidate, power) choice.

        ``pick`` is each subcarrier's candidate ``2u + m``, ``gain`` its gain
        (the effective gain relay aided, the direct gain otherwise) and ``c``
        its slot count, an array or one number for all: 1 relay aided, 2
        direct, and 1 for the reference protocol's direct mode, which spends
        its power in the broadcasting slot only. ``bracket`` is
        (mu_lower, mu_upper).
        """
        dest = pick // 2
        rate = _rates(gain, power, c)
        return Allocation(assignments=_LazyAssignments(pick, power, c, gains),
                          wsr=_weighted_total(params.weights[dest], rate), mu_star=mu,
                          residual=max(params.ptot - float(power.sum()), 0.0), iterations=iterations,
                          status=status, mu_lower=bracket[0], mu_upper=bracket[1], dest=dest,
                          mode=_MODES[pick % 2], power=power, rate=rate)


def water_level(a, v, budget: float, c=1.0):
    """Exact solution of the water-filling ``sum_k c_k [a_k / lam - v_k]+ = budget``.

    Term k carries power once the level ``1/lam`` passes its threshold
    ``v_k / a_k``; at a threshold t the terms below it spend
    ``t * sum c a - sum c v``. One sort and two cumulative sums give the
    active set (Palomar and Fonollosa, IEEE TSP 53(2), 2005). Needs a > 0,
    v >= 0 and c > 0; terms with ``v_k = inf`` never carry power.

    Returns ``(num, den)``, the active set's ``sum c a`` and
    ``budget + sum c v``, each added in index order, so ``lam = num / den``.
    When no term can carry power the active set is empty, and the level is
    price zero: ``(0.0, budget)``.
    """
    v = np.asarray(v, dtype=float)
    # a and c may be numbers: ca takes v's shape through its output array
    ca, cv, thr = np.multiply(c, a, out=np.empty(v.shape)), np.multiply(c, v), np.divide(v, a)
    order = thr.argsort(kind="stable")
    thr = thr[order]
    live = int(thr.searchsorted(np.inf))  # infinite thresholds sort last
    order = order[:live]
    spent = thr[:live] * np.cumsum(ca[order]) - np.cumsum(cv[order])
    active = np.zeros(v.shape, dtype=bool)
    active[order[:max(int(np.searchsorted(spent, budget)), 1)]] = True
    return float(ca[active].sum()), budget + float(cv[active].sum())


def _values(mu: float, w, c, gain, inv_gain, bound: float):
    """Lagrangian value and per slot power of candidates at price mu.

    A candidate of weight w, slot count c and gain g spends ``c q`` with
    the per slot power ``q = [w / mu - 1 / g]+`` and is worth
    ``c (w ln(1 + g q) - mu q)``, computed as ``(c w) rate - (c mu) q``.
    ``bound`` is an upper bound on every ``g q``. Returns (value, q).
    """
    q = np.maximum(w / mu - inv_gain, 0.0)
    rate = _log1p_product(gain, q, bound, np.log1p)
    return c * w * rate - c * mu * q, q


def _row_state(mu: float, params: SolverParams, mode_sets: ModeSets, rows: np.ndarray):
    """(pick, power, value) of the maximizers of whole rows of the (2, K, U) candidate table.

    The first maximum in candidate order; inadmissible candidates are worth
    -inf.
    """
    w = params.weights
    c = rates._SLOTS[:, None, None]
    gain = mode_sets.gain[:, rows]
    value, q = _values(mu, w, c, gain, rates._inverse(gain), mode_sets.peak * (float(w.max()) / mu))
    value = np.where(mode_sets.admissible[:, rows], value, -np.inf)
    dest = np.argmax(np.maximum(value[0], value[1]), axis=1)
    i = np.arange(rows.size)
    mode = (value[1, i, dest] > value[0, i, dest]).astype(np.intp)
    return 2 * dest + mode, rates._SLOTS[mode] * q[mode, i, dest], value[mode, i, dest]


def solve_at_price(mu: float, params: SolverParams, mode_sets: ModeSets) -> DualState:
    """Per subcarrier maximization of the Lagrangian at a fixed price.

    The maximizer is the first maximum in candidate order: the lowest
    destination, and relay aided before direct mode. Only each
    subcarrier's ``Front`` (``mode_sets.front(params.weights)``) is scored:
    a candidate off the front is beaten or tied by one on it. Where the
    front's best value is not positive, the front does not decide the tie
    order: where no front candidate carries power, no candidate does, and
    the maximizer is the first admissible candidate, worth 0; where one
    does, its value rounded to 0 or below near its threshold, and the whole
    row is scored.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    front = mode_sets.front(params.weights)
    value, q = _values(mu, front.weight, front.slots, front.gain, front.inv_gain,
                       mode_sets.peak * (float(params.weights.max()) / mu))
    at = front.row_start + value.argmax(axis=1)  # first maximum in candidate order
    v, pick, p = value.take(at), front.pick.take(at), (front.slots * q).take(at)
    scored = v > 0.0
    if not scored.all():
        # where no front candidate carries power, none does: the winner's
        # power and value are 0 already, and the first admissible candidate
        # wins; where one does, the whole row is scored
        unpowered = ~(scored | q.any(axis=1))
        np.copyto(pick, front.first, where=unpowered)
        k = np.flatnonzero(~(scored | unpowered))
        if k.size:
            pick[k], p[k], v[k] = _row_state(mu, params, mode_sets, k)
    return DualState(
        mu=float(mu),
        pick=pick,
        power=p,
        total_power=float(p.sum()),
        lagrangian=float(v.sum() + mu * params.ptot),
    )


# The search prices only the open bracket, and where the upper envelope is
# tight (one live direct destination, or high power with equal weights) its
# exact root is the optimum price: keep mu_upper this far above it.
_UPPER_MARGIN = 1e-10


def price_bracket(params: SolverParams, mode_sets: ModeSets) -> tuple:
    """Prices (mu_lower, mu_upper) enclosing the optimum.

    mu_upper solves ``sum_k [2 max_u w_u / mu - vmin_k]+ = Ptot`` and
    mu_lower solves ``sum_k [min_u w_u / mu - vmax_k]+ = Ptot``, where vmin
    and vmax are the extreme admissible inverse gain terms per subcarrier
    (``Front.v_lo`` and ``Front.v_hi``). These sums bound the assigned
    power from above and below, so the optimum price lies between the
    roots. Both roots are exact (``water_level``); mu_upper is raised by a
    relative ``1e-10``. A lower root that underflows to 0 (a tiny weight
    against a huge budget) is replaced by the smallest normal price. Both
    are 0 when no subcarrier has a live candidate.
    """
    front = mode_sets.front(params.weights)
    upper = water_level(2.0 * float(params.weights.max()), front.v_lo, params.ptot)
    lower = water_level(float(params.weights.min()), front.v_hi, params.ptot)
    mu_upper = upper[0] / upper[1] * (1.0 + _UPPER_MARGIN)
    mu_lower = lower[0] / lower[1]
    if mu_lower == 0.0 < mu_upper:
        mu_lower = sys.float_info.min
    return min(mu_lower, mu_upper), mu_upper


def initial_price(mu_lower: float, mu_upper: float) -> float:
    """Geometric mean of the bracket: the first price and the bisection step.

    Where the product of the edges is not a finite normal number (a huge
    budget, or a tiny one on strong gains) it underflows, loses digits or
    overflows, so the edges are rooted apart.
    """
    product = mu_lower * mu_upper
    if sys.float_info.min <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(mu_lower) * math.sqrt(mu_upper)


def _log1p(x: np.ndarray) -> np.ndarray:
    """``math.log1p`` of every entry, as numpy's SIMD ``log1p`` can differ in the last bit."""
    return np.fromiter(map(math.log1p, x.tolist()), float, x.size)


def _log1p_product(g: np.ndarray, q: np.ndarray, bound: float, log1p) -> np.ndarray:
    """``log1p(g * q)`` entrywise, ``ln g + ln q`` where the product overflows.

    ``bound`` is an upper bound on every product, so a finite one skips the
    test.
    """
    if bound < math.inf:
        return log1p(g * q)
    with np.errstate(over="ignore", divide="ignore"):
        x = g * q
        return np.where(np.isfinite(x), log1p(x), np.log(g) + np.log(q))


def _rates(gain: np.ndarray, power: np.ndarray, c) -> np.ndarray:
    """Per subcarrier rate ``c ln(1 + g (p / c))`` of power p spread over c slots (c >= 1).

    A zero or subnormal per slot rate is the rounded product ``g p / c``,
    and c times it would round ``g p`` twice: the rate there is ``g p``,
    rounded once, as the one slot rate of the same power is.
    """
    bound = float(gain.max(initial=0.0)) * float(power.max(initial=0.0))
    per_slot = _log1p_product(gain, power / c, bound, _log1p)
    rate = c * per_slot
    tiny = per_slot < sys.float_info.min
    rate[tiny] = gain[tiny] * power[tiny]
    return rate


def _weighted_total(weights: np.ndarray, rate: np.ndarray) -> float:
    """``sum(weights * rate)`` added left to right, in subcarrier order."""
    return float(np.cumsum(weights * rate)[-1]) if rate.size else 0.0


def _chosen(pick, table: np.ndarray) -> np.ndarray:
    """Per subcarrier entry of a choice in a (2, K, U) candidate table."""
    return table[pick % 2, np.arange(pick.size), pick // 2]


def _fill(w, inv_g, c, budget: float):
    """Exact water-filling powers ``c_k [w_k / lam - inv_g_k]+`` spending ``budget``.

    lam is ``water_level``'s exact root, and a final rescale puts the
    rounding of the powers on the budget. Below the rounding of every
    ``inv_g_k``, ``w_k / lam - inv_g_k`` cancels to zero on every term; the
    budget then goes to the terms of least threshold ``inv_g_k / w_k`` in
    proportion to ``c_k w_k``, the exact small budget limit. Returns
    (lam, power). When no term can carry power, lam is 0 and the budget is
    spread evenly over the terms: no split carries more than rounding
    small rates, and the KKT conditions hold at price zero.
    """
    num, den = water_level(w, inv_g, budget, c)
    if num == 0.0:
        return 0.0, np.full(np.shape(inv_g), budget / np.size(inv_g))
    lam = num / den
    power = c * np.maximum(w / lam - inv_g, 0.0)
    if not power.sum() > 0.0:
        thr = inv_g / w
        power = np.where(thr == thr.min(), c * w, 0.0)
        # a power of two, exact, puts the largest share in [0.5, 1), so that
        # the rescale below cannot underflow
        power = np.ldexp(power, -int(np.frexp(power.max())[1]))
    power *= budget / power.sum()
    return lam, power


def max_gain_choice(gain, weights: Optional[np.ndarray] = None):
    """Per subcarrier candidate of the largest (weighted) gain of (g1, g_su).

    ``gain`` is a (2, K, U) table or a pair of (K, U) tables. Picks the
    destination maximizing ``w_u * max(g1, g_su)``, or ``max(g1, g_su)``
    without weights (lowest index on ties); relay aided mode needs a strict
    gain advantage. Returns (pick, gain). The reference protocol selects
    with it, and the collapse repair refills its weighted choice: with
    direct mode on both slots, that reaches at least the reference
    protocol's rates.
    """
    g1, g_su = gain
    best = np.maximum(g1, g_su)
    dest = np.argmax(best if weights is None else weights * best, axis=1)
    rows = np.arange(dest.size)
    return 2 * dest + (g1[rows, dest] <= g_su[rows, dest]), best[rows, dest]


def _assemble(pick, power, c, gains: GainTable) -> list:
    """Assignment list of a (candidate, power) choice with slot counts c.

    A direct subcarrier spends ``p / c`` in each of its c slots: both with
    c = 2, the broadcasting slot only with c = 1 (the reference protocol).
    One ``RelayClosedForm.split`` gives every relay aided one its source
    power and its relays with their powers, in ascending relay index, and
    the rows are cut from those arrays.
    """
    dest, mode = pick // 2, pick % 2
    relay_k = np.flatnonzero(mode == 0)
    source, member, relay_power = rates.relay_aided_solution(gains, relay_k, dest[relay_k]).split(power[relay_k])
    c = np.broadcast_to(c, power.shape)
    broadcast = power / c
    relaying = (c - 1.0) * broadcast
    broadcast[relay_k], relaying[relay_k] = source, 0.0
    at = np.cumsum(member.sum(axis=1))[:-1]
    relays = zip(np.split(np.nonzero(member)[1], at), np.split(relay_power[member], at))
    rows = []
    for k, (u, m, p, b, r) in enumerate(zip(dest.tolist(), mode.tolist(), power.tolist(), broadcast.tolist(),
                                            relaying.tolist())):
        if m:
            rows.append(SubcarrierAssignment(k, u, MODE_DIRECT, p, b, r))
        else:
            indices, powers = next(relays)
            rows.append(SubcarrierAssignment(k, u, MODE_RELAY, p, b, r, tuple(indices.tolist()), powers))
    return rows


class _LazyAssignments(Sequence):
    """Read-only ``_assemble`` rows of a choice, assembled once on first access."""

    def __init__(self, pick, power, c, gains: GainTable) -> None:
        self._choice = (pick, power, c, gains)
        self._rows = None

    def _built(self) -> list:
        if self._rows is None:
            self._rows = _assemble(*self._choice)
        return self._rows

    def __len__(self) -> int:
        return len(self._choice[0])

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())


# Every price lies strictly inside the bracket, so each evaluation shrinks
# it until an assignment is certified or the 1e-14 collapse width is
# reached. The most measured is 59 evaluations, on a collapse, and 16 on a
# certified search (benchmark workloads, seeds 1..10); a search that runs
# past this cap is broken.
_MAX_EVALS = 100


def solve(
    params: SolverParams,
    gains: GainTable,
    mode_sets: Optional[ModeSets] = None,
    trace=None,
) -> Allocation:
    """Full dual search returning the optimum allocation.

    Steps to the exact price of the last state's assignment inside the
    analytic bounds, falling back to bisection in log price, stops once the
    maximizer at that price is the assignment itself, and repairs a
    collapsed bracket from its two edge states, as described in the module
    docstring. ``trace``, when given, is called with (iteration, mu,
    total_power, lagrangian) after every price evaluation. Raises
    ``ConvergenceError`` if the search runs past ``_MAX_EVALS`` evaluations.
    """
    if params.num_destinations != gains.num_destinations:
        raise ValueError("weights length must match the number of destinations")
    if mode_sets is None:
        mode_sets = rates.classify(gains, params.ptot)
    elif abs(mode_sets.ptot - params.ptot) > 1e-12 * params.ptot:
        raise ValueError("mode_sets was classified at a different total power")

    iterations = 0

    def finish(pick, power, mu: float, status: str) -> Allocation:
        return Allocation.from_choice(pick, power, _chosen(pick, mode_sets.gain), rates._SLOTS[pick % 2], params,
                                      gains, status, mu, (mu_lower, mu_upper), iterations)

    fills = {}

    def refill(pick):
        """``_fill`` of an assignment at the budget, with its candidates' slot counts.

        Memoized: a collapsing bracket meets a few assignments dozens of times.
        """
        key = pick.tobytes()
        if key not in fills:
            fills[key] = _fill(params.weights[pick // 2], rates._inverse(_chosen(pick, mode_sets.gain)),
                               rates._SLOTS[pick % 2], params.ptot)
        return fills[key]

    mu_lower, mu_upper = price_bracket(params, mode_sets)
    if mu_upper == 0.0:
        # no candidate is live: the greedy choice's fill is the budget
        # spread evenly at price zero, and reports the rates it does carry
        pick, _ = max_gain_choice(mode_sets.gain, params.weights)
        return finish(pick, refill(pick)[1], 0.0, STATUS_KKT)

    mu = initial_price(mu_lower, mu_upper)
    lo, hi = mu_lower, mu_upper  # power(lo) >= ptot >= power(hi)
    priced = None  # (pick, power) of the assignment that spends ptot at mu
    for iterations in range(1, _MAX_EVALS + 1):
        state = solve_at_price(mu, params, mode_sets)
        if trace is not None:
            trace(iterations, state.mu, state.total_power, state.lagrangian)
        if priced is not None:
            # compared only where power flows: an unpowered subcarrier may
            # switch between candidates of zero value
            pick, power = priced
            on = (state.power > 0.0) | (power > 0.0)
            if np.array_equal(state.pick[on], pick[on]):
                return finish(state.pick, power, mu, STATUS_KKT)
        if state.total_power > params.ptot:
            lo = max(lo, mu)
        else:
            hi = min(hi, mu)
        if hi - lo <= 1e-14 * max(hi, np.finfo(float).tiny):
            break
        # the last price is now an edge of the bracket, so a price strictly
        # inside it never repeats one. mu_lower has no margin: where the
        # lower envelope is tight it is the exact price itself, and pricing
        # it twice certifies the second time
        fill = refill(state.pick)
        if lo < fill[0] < hi or fill[0] == lo == mu_lower:
            mu, priced = fill[0], (state.pick, fill[1])
        else:
            mu, priced = initial_price(lo, hi), None
    else:
        raise ConvergenceError(f"price search did not end within {_MAX_EVALS} evaluations")

    # The budget falls inside a power jump at the critical price. Mix j
    # takes the first j tied subcarriers from the lower edge state and the
    # rest from the upper one; each mix and the greedy choice is refilled to
    # the exact budget, and the first strict maximum is kept.
    a = solve_at_price(lo, params, mode_sets)
    b = solve_at_price(hi, params, mode_sets)
    tied = np.nonzero(a.pick != b.pick)[0]
    mixes = []
    for j in range(tied.size + 1):
        pick = b.pick.copy()
        pick[tied[:j]] = a.pick[tied[:j]]
        mixes.append(pick)
    mixes.append(max_gain_choice(mode_sets.gain, params.weights)[0])
    scored = [finish(pick, refill(pick)[1], 0.5 * (lo + hi), STATUS_GAP) for pick in mixes]
    return max(scored, key=lambda alloc: alloc.wsr)  # first of equal maxima


def _assignment_rates(assignments, gains: GainTable):
    """(destination, rate) arrays of an assignment list, recomputed from gains.

    A relay aided row's rate is ``ln(1 + g1 P)`` on its sum power P. A
    direct row that spends power in its relaying slot splits P evenly over
    both slots, the only split a protocol makes, for ``2 ln(1 + g P / 2)``;
    one that does not scores ``ln(1 + g P)``. So rows of every protocol
    score as it does.
    """
    k = np.array([a.k for a in assignments], dtype=int)
    u = np.array([a.u for a in assignments], dtype=int)
    relay = np.array([a.mode == MODE_RELAY for a in assignments], dtype=bool)
    power = np.array([a.sum_power for a in assignments], dtype=float)
    c = np.array([2.0 if a.relaying_power > 0.0 else 1.0 for a in assignments])  # zero relay aided
    gain = gains.g_su[k, u]
    gain[relay] = rates.relay_aided_solution(gains, k[relay], u[relay]).gain[:, 0]
    return u, _rates(gain, power, c)


def weighted_sum_rate(assignments, params: SolverParams, gains: GainTable) -> float:
    """Recompute the weighted sum rate of an assignment list from gains."""
    u, rate = _assignment_rates(assignments, gains)
    return _weighted_total(params.weights[u], rate)


def user_rates(assignments, gains: GainTable) -> np.ndarray:
    """Unweighted per destination rates of an assignment list."""
    u, rate = _assignment_rates(assignments, gains)
    return np.bincount(u, weights=rate, minlength=gains.num_destinations)
