"""Dual decomposition stage: price search and per subcarrier assignments.

For a price mu on total power, every subcarrier independently picks the
destination and mode maximizing its contribution to the Lagrangian, with a
closed form optimum power. The assigned power P(mu) does not increase with
the price, so the price is driven to the complementary slackness window
``0 <= Ptot - P(mu) < eps`` inside two analytic price bounds: each
evaluation shrinks the bracket ``(lo, hi)`` with ``P(lo) >= Ptot >= P(hi)``.
The window ``eps`` defaults to ``1e-6 * Ptot``.

For a fixed assignment, P is linear in 1/mu on its active subcarriers, so
the next price is the one at which the last state's assignment spends
``Ptot - eps/2``, the middle of the window: a safeguarded Newton step in
1/mu (Yu and Lui, IEEE Trans. Commun. 54(7), 2006). Aiming at ``Ptot``
itself would land a rounding error over the budget. Where that price is
not strictly inside the bracket (whose edges include the last price, so a
repeat is excluded too), the search bisects in log price,
``sqrt(lo * hi)``, instead. The inverse gains and admissibility masks do
not depend on the price and are built once per solve.

The price bounds and every fixed assignment refill solve a water-filling
``sum_k c_k [a_k / lam - v_k]+ = Ptot``. ``water_level`` solves it exactly
by one sort of the thresholds ``v_k / a_k`` and two cumulative sums.

P(mu) is step discontinuous, so the window may not be reachable. If the
bracket collapses without reaching it, the total budget sits inside a power
jump: no single assignment matches it exactly. Only the subcarriers whose
choice differs between the two edge states of the bracket are then in
question (Yu and Lui, IEEE Trans. Commun. 54(7), 2006). Taking the first j
of them from the lower edge and the rest from the upper one, for every j,
gives one candidate per count of switched subcarriers; these and the
greedy max weighted gain choice are refilled to the exact budget, and the
best is returned with ``status="bracket_collapse"``.
"""

from __future__ import annotations

import math
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
    "assignment_metric",
    "solve_at_price",
    "price_bracket",
    "initial_price",
    "water_level",
    "solve",
    "weighted_sum_rate",
    "user_rates",
    "time_shared_relay_rate",
    "time_shared_direct_rate",
]

STATUS_KKT = "kkt"
STATUS_GAP = "bracket_collapse"
STATUS_CLOSED_FORM = "closed_form"


class ConvergenceError(RuntimeError):
    """The price search did not end within its evaluation cap."""


@dataclass(frozen=True, eq=False)
class SolverParams:
    """Budget, priorities and knobs of the dual search.

    ``weights`` are the per destination priorities; by convention they sum
    to one, but any positive values are accepted (the optimum assignments
    are invariant to a common positive scaling). ``epsilon`` is the width of
    the stopping window relative to ``ptot``, or in watts when
    ``epsilon_is_relative`` is unset. ``highpower_factor`` is the margin
    demanded by the high power closed form checks.
    """

    ptot: float
    weights: np.ndarray
    epsilon: float = 1e-6
    epsilon_is_relative: bool = True
    highpower_factor: float = 100.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        w = self.weights
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-D array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be positive and finite")
        if not (self.ptot > 0.0 and np.isfinite(self.ptot)):
            raise ValueError("ptot must be positive and finite")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.highpower_factor < 1.0:
            raise ValueError("highpower_factor must be at least 1")

    @property
    def num_destinations(self) -> int:
        return self.weights.size

    @property
    def epsilon_watts(self) -> float:
        return self.epsilon * self.ptot if self.epsilon_is_relative else self.epsilon


@dataclass(frozen=True, eq=False)
class DualState:
    """Per subcarrier maximizers and totals at one price."""

    mu: float
    dest: np.ndarray      # (K,) chosen destination
    mode: np.ndarray      # (K,) MODE_DIRECT or MODE_RELAY
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
    """Final allocation plus diagnostics of the price search."""

    assignments: list
    wsr: float
    mu_star: float
    residual: float
    iterations: int
    status: str
    mu_lower: float
    mu_upper: float

    @property
    def converged(self) -> bool:
        return self.status in (STATUS_KKT, STATUS_CLOSED_FORM)


def _inverse(arr: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(arr > 0.0, 1.0 / np.where(arr > 0.0, arr, 1.0), np.inf)


def water_level(a, v, budget: float, c=1.0):
    """Exact solution of the water-filling ``sum_k c_k [a_k / lam - v_k]+ = budget``.

    Term k carries power once the level ``1/lam`` passes its threshold
    ``v_k / a_k``; at a threshold t the terms below it spend
    ``t * sum c a - sum c v``. One sort and two cumulative sums give the
    active set (Palomar and Fonollosa, IEEE TSP 53(2), 2005). Needs a > 0,
    v >= 0 and c > 0; terms with ``v_k = inf`` never carry power.

    Returns ``(num, den)``, the active set's ``sum c a`` and
    ``budget + sum c v``, each added in index order, so ``lam = num / den``.
    Returns None when no term can carry power.
    """
    v = np.asarray(v, dtype=float)
    a, c = (np.broadcast_to(np.asarray(x, dtype=float), v.shape) for x in (a, c))
    ca, cv, thr = c * a, c * v, v / a
    live = int(np.isfinite(thr).sum())
    if live == 0:
        return None
    order = np.argsort(thr, kind="stable")[:live]  # infinite thresholds sort last
    spent = thr[order] * np.cumsum(ca[order]) - np.cumsum(cv[order])
    active = np.zeros(v.shape, dtype=bool)
    active[order[:max(int(np.searchsorted(spent, budget)), 1)]] = True
    return float(ca[active].sum()), budget + float(cv[active].sum())


@dataclass(frozen=True, eq=False)
class _GainTerms:
    """Price independent parts of the candidate tables, built once per solve."""

    g1: np.ndarray          # (K, U) relay aided effective gains
    g_su: np.ndarray        # (K, U) direct gains
    inv_g1: np.ndarray      # (K, U) ``_inverse(g1)``
    inv_g_su: np.ndarray    # (K, U) ``_inverse(g_su)``
    relay_ok: np.ndarray    # (K, U) relay aided mode admissible
    direct_ok: np.ndarray   # (K, U) direct mode admissible


def _gain_terms(gains: GainTable, mode_sets: ModeSets) -> _GainTerms:
    return _GainTerms(
        g1=mode_sets.g1, g_su=gains.g_su,
        inv_g1=_inverse(mode_sets.g1), inv_g_su=_inverse(gains.g_su),
        relay_ok=~mode_sets.in_direct_set, direct_ok=~mode_sets.in_relay_set,
    )


def _candidate_tables(mu: float, params: SolverParams, terms: _GainTerms):
    """Metric and power of every admissible (u, mode) candidate at price mu.

    Returns (value, power) arrays of shape (K, 2U) where candidate 2u is
    destination u in relay mode and 2u+1 is destination u in direct mode.
    Inadmissible candidates carry value -inf. The layout makes a plain
    argmax break ties toward the lowest destination and relay aided mode.
    """
    w = params.weights[None, :]
    p_relay = np.maximum(w / mu - terms.inv_g1, 0.0)
    val_relay = w * np.log1p(terms.g1 * p_relay) - mu * p_relay
    q = np.maximum(w / mu - terms.inv_g_su, 0.0)
    val_direct = 2.0 * w * np.log1p(terms.g_su * q) - 2.0 * mu * q

    k, u = terms.g_su.shape
    value = np.full((k, 2 * u), -np.inf)
    power = np.zeros((k, 2 * u))
    value[:, 0::2] = np.where(terms.relay_ok, val_relay, -np.inf)
    power[:, 0::2] = p_relay
    value[:, 1::2] = np.where(terms.direct_ok, val_direct, -np.inf)
    power[:, 1::2] = 2.0 * q
    return value, power


def assignment_metric(u: int, mode: str, k: int, mu: float, params: SolverParams, gains: GainTable,
                      mode_sets: ModeSets) -> float:
    """Best achievable ``w * rate - mu * power`` for one candidate.

    The maximizing total power is ``[w/mu - 1/g1]+`` in relay aided mode and
    ``2 [w/mu - 1/g_su]+`` in direct mode; the value is the candidate's
    entry of ``_candidate_tables``.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if mode not in (MODE_RELAY, MODE_DIRECT):
        raise ValueError(f"unknown mode {mode!r}")
    value, _ = _candidate_tables(mu, params, _gain_terms(gains, mode_sets))
    value = float(value[k, 2 * u + (mode == MODE_DIRECT)])
    if value == -math.inf:
        raise ValueError(f"{mode} mode is inadmissible for destination {u} on subcarrier {k}")
    return value


def solve_at_price(mu: float, params: SolverParams, gains: GainTable, mode_sets: ModeSets,
                   terms: Optional[_GainTerms] = None) -> DualState:
    """Per subcarrier maximization of the Lagrangian at a fixed price.

    ``terms`` are the price independent ``_gain_terms`` of (gains,
    mode_sets); ``solve`` builds them once for all its evaluations.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if terms is None:
        terms = _gain_terms(gains, mode_sets)
    value, power = _candidate_tables(mu, params, terms)
    pick = np.argmax(value, axis=1)  # first maximum: lowest u, relay before direct
    rows = np.arange(value.shape[0])
    p = power[rows, pick]
    return DualState(
        mu=float(mu),
        dest=pick // 2,
        mode=np.where(pick % 2 == 0, MODE_RELAY, MODE_DIRECT),
        power=p,
        total_power=float(p.sum()),
        lagrangian=float(value[rows, pick].sum() + mu * params.ptot),
    )


def _envelope_terms(terms: _GainTerms):
    """Per subcarrier extreme inverse gain terms over admissible candidates.

    The largest term is taken over live (nonzero gain) candidates only: a
    dead candidate never carries power, and a subcarrier without a live one
    gets ``inf`` so it adds nothing to the lower power bound.
    """
    inv_direct = 2.0 * terms.inv_g_su
    hi = np.maximum(
        np.where(terms.relay_ok & (terms.g1 > 0.0), terms.inv_g1, -np.inf).max(axis=1),
        np.where(terms.direct_ok & (terms.g_su > 0.0), inv_direct, -np.inf).max(axis=1),
    )
    hi[np.isneginf(hi)] = np.inf
    lo = np.minimum(
        np.where(terms.relay_ok, terms.inv_g1, np.inf).min(axis=1),
        np.where(terms.direct_ok, inv_direct, np.inf).min(axis=1),
    )
    return lo, hi


# The search prices only the open bracket, and where the upper envelope is
# tight (one live direct destination, or high power with equal weights) its
# exact root is the optimum price: keep mu_upper this far above it.
_UPPER_MARGIN = 1e-10


def price_bracket(params: SolverParams, gains: GainTable, mode_sets: ModeSets) -> tuple:
    """Prices (mu_lower, mu_upper) enclosing the optimum.

    mu_upper solves ``sum_k [2 max_u w_u / mu - vmin_k]+ = Ptot`` and
    mu_lower solves ``sum_k [min_u w_u / mu - vmax_k]+ = Ptot``, where vmin
    and vmax are the extreme admissible inverse gain terms per subcarrier.
    These sums bound the assigned power from above and below, so the
    optimum price lies between the roots. Both roots are exact
    (``water_level``); mu_upper is raised by a relative ``1e-10``. Returns
    (0, 0) when no subcarrier has a usable link.
    """
    v_lo, v_hi = _envelope_terms(_gain_terms(gains, mode_sets))
    upper = water_level(2.0 * float(params.weights.max()), v_lo, params.ptot)
    if upper is None:
        return 0.0, 0.0
    lower = water_level(float(params.weights.min()), v_hi, params.ptot)
    mu_upper = upper[0] / upper[1] * (1.0 + _UPPER_MARGIN)
    return min(lower[0] / lower[1], mu_upper), mu_upper


def initial_price(
    mu_lower: float,
    mu_upper: float,
    params: SolverParams,
    gains: GainTable,
    mode_sets: ModeSets,
) -> float:
    """First price of the search: the geometric mean of the bracket."""
    return math.sqrt(mu_lower * mu_upper)


def _rates(gain: np.ndarray, power: np.ndarray, relay: np.ndarray) -> np.ndarray:
    """Per subcarrier rate: ``ln(1 + g p)`` relay aided, ``2 ln(1 + g p / 2)`` direct.

    Uses ``math.log1p``, as numpy's SIMD ``log1p`` can differ in the last bit.
    """
    arg = np.where(relay, gain * power, gain * power / 2.0)
    return np.where(relay, 1.0, 2.0) * np.fromiter(map(math.log1p, arg.tolist()), float, arg.size)


def _weighted_total(weights: np.ndarray, rate: np.ndarray) -> float:
    """``sum(weights * rate)`` added left to right, in subcarrier order."""
    return float(np.cumsum(weights * rate)[-1]) if rate.size else 0.0


def _chosen_gain(dest, mode, gains: GainTable, g1: np.ndarray):
    """(gain, relay) per subcarrier of a (destination, mode) choice."""
    rows = np.arange(len(dest))
    relay = mode == MODE_RELAY
    return np.where(relay, g1[rows, dest], gains.g_su[rows, dest]), relay


def _state_wsr(dest, mode, power, params: SolverParams, gains: GainTable, g1: np.ndarray) -> float:
    gain, relay = _chosen_gain(dest, mode, gains, g1)
    return _weighted_total(params.weights[dest], _rates(gain, power, relay))


def _refill(dest, mode, params: SolverParams, gains: GainTable, g1: np.ndarray):
    """Exact budget water-filling for a fixed (destination, mode) choice.

    Power on subcarrier k is ``c_k [w_k/lam - 1/g_k]+`` with c_k = 1 in
    relay aided mode and 2 in direct mode; lam is ``water_level``'s exact
    root, and a final rescale puts the rounding of the powers on the budget.
    Returns (wsr, power) or None if no subcarrier can carry power.
    """
    w = params.weights[dest]
    g, relay = _chosen_gain(dest, mode, gains, g1)
    c = np.where(relay, 1.0, 2.0)
    inv_g = _inverse(g)
    level = water_level(w, inv_g, params.ptot, c)
    if level is None:
        return None
    power = c * np.maximum(w / (level[0] / level[1]) - inv_g, 0.0)
    if not power.sum() > 0.0:  # a budget below the rounding of every 1/g
        return None
    power *= params.ptot / power.sum()
    return _state_wsr(dest, mode, power, params, gains, g1), power


def _greedy_assignment(params: SolverParams, gains: GainTable, mode_sets: ModeSets):
    """Per subcarrier best weighted gain choice, a strong refill candidate.

    Picks the destination maximizing w_u * max(g1, g_su) with the better of
    the two gains deciding the mode. Refilling this choice always reaches at
    least the baseline protocol's rates, since the direct mode here uses
    both slots.
    """
    per_dest = params.weights[None, :] * np.maximum(mode_sets.g1, gains.g_su)
    dest = np.argmax(per_dest, axis=1)
    rows = np.arange(gains.num_subcarriers)
    relay = mode_sets.g1[rows, dest] > gains.g_su[rows, dest]
    return dest, np.where(relay, MODE_RELAY, MODE_DIRECT)


def _assemble(dest, mode, power, gains: GainTable, direct_both_slots: bool = True) -> list:
    """Assignment list of a (destination, mode, power) choice.

    Direct mode splits the power equally over both slots, or spends it all
    in the broadcasting slot when ``direct_both_slots`` is unset (the
    reference protocol). One closed form call splits every relay aided one.
    """
    relay_k = np.nonzero(mode == MODE_RELAY)[0]
    cf = rates.pair_closed_form(gains, relay_k, dest[relay_k])
    p_relay = power[relay_k]
    p_src = cf.source_fraction[:, 0] * p_relay
    splits = iter(zip(p_src.tolist(), cf.relay_splits(p_relay - p_src)))
    rows = []
    for k, (u, m, p) in enumerate(zip(dest.tolist(), mode.tolist(), power.tolist())):
        if m == MODE_DIRECT:
            b, r = (p / 2.0, p / 2.0) if direct_both_slots else (p, 0.0)
            rows.append(SubcarrierAssignment(
                k=k, u=u, mode=MODE_DIRECT, sum_power=p, broadcast_power=b, relaying_power=r,
            ))
        else:
            b, (relay_set, relay_powers) = next(splits)
            rows.append(SubcarrierAssignment(
                k=k, u=u, mode=MODE_RELAY, sum_power=p, broadcast_power=b, relaying_power=0.0,
                relay_indices=relay_set, relay_powers=relay_powers,
            ))
    return rows


def _newton_price(state: DualState, params: SolverParams, terms: _GainTerms, target: float) -> float:
    """Price at which the assignment of ``state`` spends ``target`` watts.

    On the active subcarriers of a fixed assignment the power is
    ``sum c_k (w_k / mu - 1/g_k)`` with c_k = 1 relay aided and 2 direct,
    linear in 1/mu, so one division gives ``sum c w / (target + sum c/g)``.
    Returns 0 when no subcarrier is active.
    """
    k = np.nonzero(state.power > 0.0)[0]
    dest = state.dest[k]
    relay = state.mode[k] == MODE_RELAY
    c = np.where(relay, 1.0, 2.0)
    inv_g = np.where(relay, terms.inv_g1[k, dest], terms.inv_g_su[k, dest])
    return float((c * params.weights[dest]).sum()) / (target + float((c * inv_g).sum()))


# Every price lies strictly inside the bracket, so each evaluation shrinks
# it until the window or the 1e-14 collapse width is reached. The most
# measured is 59 evaluations, on a collapse (benchmark workloads, seeds
# 1..10); a search that runs past this cap is broken.
_MAX_EVALS = 100


def solve(
    params: SolverParams,
    gains: GainTable,
    mode_sets: Optional[ModeSets] = None,
    trace=None,
) -> Allocation:
    """Full dual search returning the optimum allocation.

    Takes safeguarded Newton steps in 1/mu inside the analytic bounds,
    falling back to bisection in log price, and repairs a collapsed bracket
    from its two edge states, as described in the module docstring.
    ``trace``, when given, is called with (iteration, mu, total_power,
    lagrangian) after every price evaluation. Raises
    ``ConvergenceError`` if the search runs past ``_MAX_EVALS`` evaluations.
    """
    if params.num_destinations != gains.num_destinations:
        raise ValueError("weights length must match the number of destinations")
    if mode_sets is None:
        mode_sets = rates.classify(gains, params.ptot)
    elif abs(mode_sets.ptot - params.ptot) > 1e-12 * max(params.ptot, 1.0):
        raise ValueError("mode_sets was classified at a different total power")

    iterations = 0

    def finish(dest, mode, power, wsr: float, mu: float, residual: float, status: str) -> Allocation:
        return Allocation(assignments=_assemble(dest, mode, power, gains), wsr=wsr, mu_star=mu,
                          residual=residual, iterations=iterations, status=status,
                          mu_lower=mu_lower, mu_upper=mu_upper)

    mu_lower, mu_upper = price_bracket(params, gains, mode_sets)
    if mu_upper == 0.0:
        # no candidate carries any rate: every split of the budget is
        # optimal, and the KKT conditions hold at price zero
        kk = gains.num_subcarriers
        power = np.full(kk, params.ptot / kk)
        return finish(np.zeros(kk, dtype=int), np.full(kk, MODE_DIRECT), power, 0.0, 0.0, 0.0, STATUS_KKT)

    eps = params.epsilon_watts
    terms = _gain_terms(gains, mode_sets)
    mu = initial_price(mu_lower, mu_upper, params, gains, mode_sets)
    lo, hi = mu_lower, mu_upper  # power(lo) >= ptot >= power(hi)
    for iterations in range(1, _MAX_EVALS + 1):
        state = solve_at_price(mu, params, gains, mode_sets, terms)
        if trace is not None:
            trace(iterations, state.mu, state.total_power, state.lagrangian)
        slack = params.ptot - state.total_power
        if 0.0 <= slack < eps:
            # primal completion: the window may leave up to eps watts
            # unspent, so rebalance the assignment's powers to the exact
            # budget (never a worse WSR). residual keeps the dual stopping
            # slack Ptot - Px(mu) that the window certified.
            power = state.power
            wsr = _state_wsr(state.dest, state.mode, power, params, gains, mode_sets.g1)
            fill = _refill(state.dest, state.mode, params, gains, mode_sets.g1)
            if fill is not None and fill[0] >= wsr:
                wsr, power = fill
            return finish(state.dest, state.mode, power, wsr, state.mu, slack, STATUS_KKT)
        if slack < 0.0:
            lo = max(lo, mu)
        else:
            hi = min(hi, mu)
        if hi - lo <= 1e-14 * max(hi, np.finfo(float).tiny):
            break
        # the last price is now an edge of the bracket, so a Newton price
        # strictly inside it never repeats one
        newton = _newton_price(state, params, terms, params.ptot - 0.5 * eps)
        mu = newton if lo < newton < hi else math.sqrt(lo * hi)
    else:
        raise ConvergenceError(f"price search did not end within {_MAX_EVALS} evaluations")

    # The budget falls inside a power jump at the critical price. Mix j
    # takes the first j tied subcarriers from the lower edge state and the
    # rest from the upper one; each mix and the greedy choice is refilled to
    # the exact budget, and the first strict maximum is kept.
    a = solve_at_price(lo, params, gains, mode_sets, terms)
    b = solve_at_price(hi, params, gains, mode_sets, terms)
    tied = np.nonzero((a.dest != b.dest) | (a.mode != b.mode))[0]
    candidates = []
    for j in range(tied.size + 1):
        dest, mode = b.dest.copy(), b.mode.copy()
        dest[tied[:j]], mode[tied[:j]] = a.dest[tied[:j]], a.mode[tied[:j]]
        candidates.append((dest, mode))
    candidates.append(_greedy_assignment(params, gains, mode_sets))
    fills = [(fill, dest, mode) for dest, mode in candidates
             if (fill := _refill(dest, mode, params, gains, mode_sets.g1)) is not None]
    if not fills:  # no mix can carry power: the upper edge state stands
        wsr = _state_wsr(b.dest, b.mode, b.power, params, gains, mode_sets.g1)
        return finish(b.dest, b.mode, b.power, wsr, b.mu, params.ptot - b.total_power, STATUS_GAP)
    (wsr, power), dest, mode = max(fills, key=lambda f: f[0][0])  # first of equal maxima
    residual = max(params.ptot - float(power.sum()), 0.0)
    return finish(dest, mode, power, wsr, 0.5 * (lo + hi), residual, STATUS_GAP)


def _assignment_rates(assignments, gains: GainTable):
    """(destination, rate) arrays of an assignment list, recomputed from gains."""
    k = np.array([a.k for a in assignments], dtype=int)
    u = np.array([a.u for a in assignments], dtype=int)
    power = np.array([a.sum_power for a in assignments], dtype=float)
    relay = np.array([a.mode == MODE_RELAY for a in assignments], dtype=bool)
    gain = gains.g_su[k, u]
    gain[relay] = rates.pair_closed_form(gains, k[relay], u[relay]).gain[:, 0]
    return u, _rates(gain, power, relay)


def weighted_sum_rate(assignments, params: SolverParams, gains: GainTable) -> float:
    """Recompute the weighted sum rate of an assignment list from gains."""
    u, rate = _assignment_rates(assignments, gains)
    return _weighted_total(params.weights[u], rate)


def user_rates(assignments, gains: GainTable) -> np.ndarray:
    """Unweighted per destination rates of an assignment list."""
    u, rate = _assignment_rates(assignments, gains)
    return np.bincount(u, weights=rate, minlength=gains.num_destinations)


def time_shared_relay_rate(share: float, energy: float, g1: float) -> float:
    """Perspective form ``share * ln(1 + g1 * energy / share)``.

    Jointly concave in (share, energy) on share >= 0; continuous extension
    at share = 0.
    """
    if share < 0.0 or energy < 0.0 or g1 < 0.0:
        raise ValueError("share, energy and g1 must be nonnegative")
    if share == 0.0:
        return 0.0
    return share * math.log1p(g1 * energy / share)


def time_shared_direct_rate(share: float, energy: float, g_su: float) -> float:
    """Perspective form ``2 share * ln(1 + g_su * energy / (2 share))``."""
    if share < 0.0 or energy < 0.0 or g_su < 0.0:
        raise ValueError("share, energy and g_su must be nonnegative")
    if share == 0.0:
        return 0.0
    return 2.0 * share * math.log1p(g_su * energy / (2.0 * share))
