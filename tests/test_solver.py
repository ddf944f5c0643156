"""Dual price search: metrics, bracketing, exact prices of fixed assignments."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import oracle_candidate_tables, oracle_state_at_price
from scipy.optimize import brentq

from relayalloc import channel, cli, highpower, rates, reference, solver
from relayalloc.channel import GainTable
from relayalloc.cli import realization_seeds
from relayalloc.rates import water_level
from relayalloc.solver import (
    STATUS_KKT,
    SolverParams,
    initial_price,
    price_bracket,
    solve,
    solve_at_price,
    user_rates,
    weighted_sum_rate,
)


def _table(g_su, g_sr, g_ru):
    return GainTable(g_su=np.asarray(g_su, float), g_sr=np.asarray(g_sr, float),
                     g_ru=np.asarray(g_ru, float))


def _random_table(rng, k=None, u=None, n=None):
    k = k or int(rng.integers(1, 5))
    u = u or int(rng.integers(1, 4))
    n = n or int(rng.integers(1, 4))
    return _table(
        rng.lognormal(0.0, 1.0, (k, u)),
        rng.lognormal(0.0, 1.0, (k, n)),
        rng.lognormal(0.0, 1.0, (k, n, u)),
    )


# both-mode single pair: direct gain 1.5, relay aided gain 4*2.5/(2.5+4-1.5)=2
AMBI = _table([[1.5]], [[4.0]], [[[2.5]]])
# direct-only single pair with unit gain (relay links hopeless)
DIRECT1 = _table([[1.0]], [[0.01]], [[[0.01]]])
# direct-only single pair with gain 2
DIRECT2 = _table([[2.0]], [[0.1]], [[[0.1]]])
# relay-only at ptot <= 4: direct gain 1, relay aided gain 4*3/(3+4-1)=2
RELAY1 = _table([[1.0]], [[4.0]], [[[3.0]]])


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(ptot=0.0, weights=[1.0])
    with pytest.raises(ValueError):
        SolverParams(ptot=1.0, weights=[0.5, -0.5])
    with pytest.raises(ValueError):
        SolverParams(ptot=1.0, weights=[])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="ptot"):
            SolverParams(ptot=bad, weights=[1.0])
        with pytest.raises(ValueError, match="weights"):
            SolverParams(ptot=1.0, weights=[bad])


# ------------------------------------------------------------------- metrics

def _metric(u, mode, k, mu, params, gains):
    """Candidate (u, mode)'s entry of the Lagrangian table of subcarrier k at price mu."""
    ms = rates.classify(gains, params.ptot)
    value, _ = oracle_candidate_tables(mu, params.weights, ms.gain, ms.admissible)
    return float(value[int(mode == rates.MODE_DIRECT), k, u])


def _mode(state):
    """MODE_RELAY or MODE_DIRECT per subcarrier of a price state's candidate choice."""
    return np.where(state.pick % 2 == 0, rates.MODE_RELAY, rates.MODE_DIRECT)


def test_relay_metric_frozen_value():
    # effective gain 2, weight 0.25, price 0.1: power 2, value 0.25 ln5 - 0.2
    params = SolverParams(ptot=40.0, weights=[0.25])
    got = _metric(0, rates.MODE_RELAY, 0, 0.1, params, AMBI)
    assert math.isclose(got, 0.25 * math.log(5.0) - 0.2, rel_tol=1e-12)
    assert math.isclose(got, 0.2023594781085251, rel_tol=1e-12)


def test_direct_metric_frozen_value():
    # direct gain 2, weight 0.25, price 0.1: per-slot power 2, sum power 4
    params = SolverParams(ptot=40.0, weights=[0.25])
    got = _metric(0, rates.MODE_DIRECT, 0, 0.1, params, DIRECT2)
    assert math.isclose(got, 0.5 * math.log(5.0) - 0.4, rel_tol=1e-12)
    assert math.isclose(got, 0.4047189562170502, rel_tol=1e-12)


def test_metric_clamps_to_zero():
    params = SolverParams(ptot=40.0, weights=[0.25])
    # price so high that the water level sits below the inverse gain
    assert _metric(0, rates.MODE_RELAY, 0, 10.0, params, AMBI) == 0.0


def test_metric_rejects_inadmissible_mode():
    # an inadmissible candidate carries -inf, so no price picks it
    params = SolverParams(ptot=3.0, weights=[1.0])
    assert _metric(0, rates.MODE_DIRECT, 0, 0.1, params, RELAY1) == -math.inf
    assert _mode(solve_at_price(0.1, params, rates.classify(RELAY1, params.ptot)))[0] == rates.MODE_RELAY
    params2 = SolverParams(ptot=40.0, weights=[0.25])
    ms2 = rates.classify(DIRECT2, params2.ptot)
    assert _metric(0, rates.MODE_RELAY, 0, 0.1, params2, DIRECT2) == -math.inf
    assert _mode(solve_at_price(0.1, params2, ms2))[0] == rates.MODE_DIRECT
    with pytest.raises(ValueError):
        solve_at_price(0.0, params2, ms2)


def test_price_solve_prefers_direct_on_ambivalent_pair():
    # at price 0.1 the two-slot direct term wins despite the smaller gain
    params = SolverParams(ptot=40.0, weights=[1.0])
    ms = rates.classify(AMBI, params.ptot)
    state = solve_at_price(0.1, params, ms)
    assert _mode(state)[0] == rates.MODE_DIRECT
    assert math.isclose(state.power[0], 2.0 * (10.0 - 1.0 / 1.5), rel_tol=1e-12)
    assert math.isclose(state.total_power, 56.0 / 3.0, rel_tol=1e-12)


def test_price_solve_high_price_gives_zero_power():
    params = SolverParams(ptot=40.0, weights=[1.0])
    ms = rates.classify(AMBI, params.ptot)
    state = solve_at_price(1e9, params, ms)
    assert state.total_power == 0.0


def test_price_solve_tie_breaks_to_lowest_destination():
    # two identical users: the first one must win
    t = _table([[2.0, 2.0]], [[0.1]], [[[0.1, 0.1]]])
    params = SolverParams(ptot=10.0, weights=[0.5, 0.5])
    ms = rates.classify(t, params.ptot)
    state = solve_at_price(0.05, params, ms)
    assert state.pick[0] // 2 == 0


def test_per_price_state_matches_power_grid_search():
    """Closed-form per-subcarrier value vs 1e4-point brute force."""
    rng = np.random.default_rng(21)
    for _ in range(8):
        gains = _random_table(rng)
        w = rng.uniform(0.2, 1.0, gains.num_destinations)
        params = SolverParams(ptot=float(rng.uniform(1.0, 10.0)), weights=w)
        ms = rates.classify(gains, params.ptot)
        lo, hi = price_bracket(params, ms)
        mu = float(rng.uniform(lo, hi))
        state = solve_at_price(mu, params, ms)
        p_grid = np.linspace(0.0, 2.0 * w.max() / mu, 10_000)
        for k in range(gains.num_subcarriers):
            best_grid = 0.0
            for u in range(gains.num_destinations):
                if ms.admissible[0, k, u]:  # relay aided
                    v = w[u] * np.log1p(ms.g1[k, u] * p_grid) - mu * p_grid
                    best_grid = max(best_grid, float(v.max()))
                if ms.admissible[1, k, u]:  # direct
                    v = 2.0 * w[u] * np.log1p(gains.g_su[k, u] * p_grid / 2.0) - mu * p_grid
                    best_grid = max(best_grid, float(v.max()))
            got = _metric(int(state.pick[k] // 2), str(_mode(state)[k]), k, mu, params, gains)
            assert got >= best_grid - 1e-12
            assert math.isclose(got, best_grid, rel_tol=1e-4, abs_tol=1e-4)


# ------------------------------------------------------------ water-filling

_GAIN = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 1e3))
_FLOOR = st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.inf]), st.floats(0.0, 1e3))


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(st.tuples(_GAIN, _FLOOR, st.sampled_from([1.0, 2.0])), min_size=1, max_size=12),
    log_budget=st.floats(-9.0, 9.0),
)
@example(terms=[(1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (1.0, 0.0, 1.0)], log_budget=0.0)
@example(terms=[(1.0, math.inf, 1.0), (2.0, math.inf, 2.0)], log_budget=0.0)
def test_water_level_matches_brentq(terms, log_budget):
    # the sorted-breakpoint level against an independent root finder on
    # the piecewise linear power sum in the level t = 1/lam
    a, v, c = map(np.array, zip(*terms))
    live = np.isfinite(v)
    if not live.any():
        # an empty active set is price zero
        assert water_level(a, v, 1.0, c) == (0.0, 1.0)
        return
    scale = float((c * (a + v))[live].sum())
    budget = scale * 10.0 ** log_budget
    num, den = water_level(a, v, budget, c)
    lam = num / den

    def excess(t):
        return float((c * np.maximum(a * t - v, 0.0)).sum()) - budget

    thr = v[live] / a[live]
    t_hi = 2.0 * (thr.max() + budget / float((c * a)[live].sum()))  # excess(t_hi) > 0
    t_root = brentq(excess, thr.min(), t_hi, xtol=1e-300, rtol=1e-15, maxiter=1000)
    assert math.isclose(1.0 / lam, t_root, rel_tol=1e-12)
    # the level carries a relative rounding, so a budget far below the
    # filled floor sum(c v) is met to the rounding of den = budget + sum(c v)
    power = c * np.maximum(a / lam - v, 0.0)
    assert abs(float(power.sum()) - budget) <= 1e-12 * den
    assert np.all(power[~live] == 0.0)


# ---------------------------------------------------------------- bracketing

def test_bracket_single_direct_user():
    params = SolverParams(ptot=2.0, weights=[1.0])
    ms = rates.classify(DIRECT1, params.ptot)
    mu_l, mu_u = price_bracket(params, ms)
    assert math.isclose(mu_u, 0.5, rel_tol=1e-8)
    assert math.isclose(mu_l, 0.25, rel_tol=1e-8)


def test_bracket_bounds_monotone_in_budget():
    params_small = SolverParams(ptot=1.0, weights=[1.0])
    params_big = SolverParams(ptot=10.0, weights=[1.0])
    ms_small = rates.classify(DIRECT1, 1.0)
    ms_big = rates.classify(DIRECT1, 10.0)
    lo_s, hi_s = price_bracket(params_small, ms_small)
    lo_b, hi_b = price_bracket(params_big, ms_big)
    assert hi_b < hi_s and lo_b < lo_s


def test_bracket_ignores_zero_gain_destinations():
    # destination 1 has no usable link at all; its infinite inverse gain
    # once made the lower price bound unbracketable
    t = _table([[1.0, 0.0]], [[0.5]], np.zeros((1, 1, 2)))
    params = SolverParams(ptot=1.0, weights=[0.5, 0.5])
    ms = rates.classify(t, params.ptot)
    lo, hi = price_bracket(params, ms)
    assert 0.0 < lo <= 1.0 / 3.0 <= hi
    alloc = solve(params, t, ms)
    assert alloc.status == STATUS_KKT
    a = alloc.assignments[0]
    assert (a.u, a.mode) == (0, rates.MODE_DIRECT)
    assert math.isclose(a.sum_power, 1.0, rel_tol=1e-12)
    assert math.isclose(alloc.wsr, math.log(1.5), rel_tol=1e-9)


def test_gain_too_small_to_invert_is_dead_in_the_bracket_too():
    # destination 0's relay aided gain is subnormal: its inverse is
    # infinite, so the lower price bound must skip it as the solver does
    # (counting it live once made that bound unbracketable)
    t = _table([[0.0, 0.0]], [[4.0]], [[[1e-320, 1.0]]])
    params = SolverParams(ptot=1.0, weights=[1.0, 1.0])
    ms = rates.classify(t, params.ptot)
    assert 0.0 < ms.gain[0, 0, 0] and rates._inverse(ms.gain)[0, 0, 0] == math.inf
    lo, hi = price_bracket(params, ms)
    assert 0.0 < lo <= hi
    alloc = solve(params, t, ms)
    assert (alloc.status, alloc.iterations) == (STATUS_KKT, 2)
    assert alloc.dest.tolist() == [1] and alloc.power.tolist() == [1.0]
    assert alloc.wsr == math.log1p(0.8)


# a lone relay aided pair makes the lower envelope exact: the root of the
# lower price bound is the optimum price
LONE_RELAY = _table([[0.1]], [[4.0]], [[[4.0]]])


def test_optimum_on_the_lower_price_bound_is_certified():
    # mu_lower lies a relative margin below that root, so the pair's exact
    # price is strictly inside the bracket and certifies at the second
    # evaluation (not the 46-evaluation collapse of a search that could
    # not price the root)
    params = SolverParams(ptot=1.0, weights=[1.0])
    ms = rates.classify(LONE_RELAY, params.ptot)
    alloc = solve(params, LONE_RELAY, ms)
    assert (alloc.status, alloc.iterations) == (STATUS_KKT, 2)
    lo, hi = price_bracket(params, ms)
    assert lo < alloc.mu_star < hi
    num, den = water_level(1.0, rates._inverse(ms.g1[0]), params.ptot)
    assert alloc.mu_star == num / den
    _assert_certified(alloc, params, LONE_RELAY)


def test_solve_all_zero_gains_returns_zero_wsr():
    # no subcarrier has a usable link: the bracket is (0, 0), price zero,
    # and the budget may be spread anyhow for a WSR of zero
    t = _table(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2, 2)))
    params = SolverParams(ptot=5.0, weights=[0.5, 0.5])
    alloc = solve(params, t)
    assert alloc.wsr == 0.0
    assert alloc.status == STATUS_KKT
    powers = [a.sum_power for a in alloc.assignments]
    assert len(powers) == 3 and min(powers) >= 0.0
    assert math.isclose(sum(powers), params.ptot, rel_tol=1e-12)
    assert weighted_sum_rate(alloc.assignments, params, t) == 0.0


def test_bracket_without_usable_links_is_zero():
    t = _table(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2, 2)))
    params = SolverParams(ptot=5.0, weights=[0.5, 0.5])
    assert price_bracket(params, rates.classify(t, params.ptot)) == (0.0, 0.0)


def test_bracket_contains_power_root():
    rng = np.random.default_rng(22)
    for _ in range(10):
        gains = _random_table(rng)
        w = rng.uniform(0.2, 1.0, gains.num_destinations)
        params = SolverParams(ptot=float(rng.uniform(1.0, 10.0)), weights=w)
        ms = rates.classify(gains, params.ptot)
        lo, hi = price_bracket(params, ms)
        assert 0.0 < lo <= hi
        # assigned power at the edges brackets the budget
        assert solve_at_price(lo, params, ms).total_power >= params.ptot - 1e-6
        assert solve_at_price(hi, params, ms).total_power <= params.ptot + 1e-6


def test_initial_price_is_geometric_mean_of_bracket():
    params = SolverParams(ptot=2.0, weights=[1.0])
    ms = rates.classify(DIRECT1, params.ptot)
    mu_l, mu_u = price_bracket(params, ms)
    assert math.isclose(initial_price(mu_l, mu_u), math.sqrt(mu_l * mu_u), rel_tol=1e-15)
    assert initial_price(0.5, 0.5) == 0.5
    # the bracket of a 1e300 W budget: the product of its edges underflows
    assert math.isclose(initial_price(2e-300, 4e-300), math.sqrt(8.0) * 1e-300, rel_tol=1e-15)


def test_solve_spends_a_huge_budget():
    rng = np.random.default_rng(23)
    for _ in range(5):
        gains = _random_table(rng, k=6, u=3, n=2)
        params = SolverParams(ptot=1e300, weights=rng.uniform(0.2, 1.0, 3))
        alloc = solve(params, gains)
        assert alloc.status in (STATUS_KKT, solver.STATUS_GAP)
        lo, hi = price_bracket(params, rates.classify(gains, params.ptot))
        assert 0.0 < lo <= alloc.mu_star <= hi
        assert math.isclose(float(alloc.power.sum()), params.ptot, rel_tol=1e-9)
        assert math.isfinite(alloc.wsr) and alloc.wsr == weighted_sum_rate(alloc.assignments, params, gains)


def test_solve_spends_a_budget_below_the_rounding_of_every_inverse_gain():
    # at 1e-300 W, w / lam - 1/g cancels to zero on every subcarrier; the
    # budget goes to the least thresholds, where the WSR is about g * ptot
    rng = np.random.default_rng(24)
    for _ in range(5):
        gains = _random_table(rng, k=6, u=3, n=2)
        params = SolverParams(ptot=1e-300, weights=np.full(3, 1.0 / 3.0))
        alloc = solve(params, gains)
        assert math.isclose(float(alloc.power.sum()), params.ptot, rel_tol=1e-12)
        assert alloc.residual <= 1e-9 * params.ptot
        ref = reference.solve_reference(gains, params.ptot, weights=params.weights,
                                        g1_table=rates.classify(gains, params.ptot).g1)
        assert alloc.wsr >= ref.wsr > 0.0
        assert alloc.wsr == weighted_sum_rate(alloc.assignments, params, gains)


# six identical subcarriers: at 10 W and equal weights the bracket collapses
# with all six tied
SIX_TIED = _table(np.tile([1.0, 0.5], (6, 1)), np.tile([1.0, 2.0], (6, 1)),
                  np.tile([[4.0, 1.0], [0.5, 4.0]], (6, 1, 1)))
# two direct users with unequal weights: the power root sits strictly inside
# the bracket
TWO_DIRECT = _table([[1.0, 2.0]], [[0.001]], [[[0.001, 0.001]]])


def test_search_prices_stay_inside_a_shrinking_bracket(monkeypatch):
    # replaying the trace, every price lies strictly inside the bracket the
    # earlier evaluations left, and each evaluation shrinks it; a collapse
    # is repaired from the states the search priced at the edges, so every
    # evaluation is one the trace reports (46 on SIX_TIED, not 48)
    calls = []
    evaluate = solver.solve_at_price
    monkeypatch.setattr(solver, "solve_at_price", lambda *args: calls.append(args[0]) or evaluate(*args))
    rng = np.random.default_rng(28)
    cases = [(TWO_DIRECT, [1.0, 0.5], 2.0), (SIX_TIED, [1.0, 1.0], 10.0), (LONE_RELAY, [1.0], 1.0)]
    cases += [(_random_table(rng, k=6, u=3, n=2), rng.uniform(0.2, 1.0, 3), float(rng.uniform(0.5, 50.0)))
              for _ in range(8)]
    statuses = set()
    for gains, weights, ptot in cases:
        params = SolverParams(ptot=ptot, weights=weights)
        ms = rates.classify(gains, params.ptot)
        rows = []
        calls.clear()
        alloc = solve(params, gains, ms, trace=lambda *r: rows.append(r))
        assert calls == [mu for _, mu, _, _ in rows]
        statuses.add(alloc.status)
        lo, hi = price_bracket(params, ms)
        front = ms.front(params.weights)
        assert (front.mu_lower, front.mu_upper) == (lo, hi)
        for i, (_, mu, total_power, _) in enumerate(rows, start=1):
            assert lo < mu < hi
            if i == len(rows) and alloc.status == STATUS_KKT:
                break  # the window was reached: the bracket stays
            width = hi - lo
            lo, hi = (mu, hi) if total_power > params.ptot else (lo, mu)
            assert hi - lo < width
    assert statuses == {STATUS_KKT, solver.STATUS_GAP}


def _assert_certified(alloc, params, gains):
    """The KKT certificate of a ``kkt`` solve, rechecked at its price.

    The maximizer at ``mu_star`` is the returned assignment on every
    subcarrier that carries power there or in the result, the returned
    powers are the maximizer's up to one rescale, and they spend the budget.
    The maximizer itself spends it to the rounding of the water level
    ``1e-12 * (Ptot + sum c/g)`` over its powered subcarriers.
    """
    assert alloc.status == STATUS_KKT
    assert abs(float(alloc.power.sum()) - params.ptot) <= 1e-12 * params.ptot
    assert 0.0 <= alloc.residual <= 1e-12 * params.ptot
    if alloc.mu_star == 0.0:  # no usable link: the conditions hold at price zero
        assert price_bracket(params, rates.classify(gains, params.ptot))[1] == 0.0
        return
    ms = rates.classify(gains, params.ptot)
    state = solve_at_price(alloc.mu_star, params, ms)
    on = (state.power > 0.0) | (alloc.power > 0.0)
    np.testing.assert_array_equal(state.pick[on] // 2, alloc.dest[on])
    np.testing.assert_array_equal(_mode(state)[on], alloc.mode[on])
    np.testing.assert_allclose(alloc.power, state.power * (params.ptot / state.total_power), rtol=1e-12, atol=0.0)
    k = np.arange(gains.num_subcarriers)
    relay = alloc.mode == rates.MODE_RELAY
    inv_gain = rates._inverse(ms.gain)
    inv_g = np.where(relay, inv_gain[0, k, alloc.dest], inv_gain[1, k, alloc.dest])
    floor = float((np.where(relay, 1.0, 2.0) * inv_g)[state.power > 0.0].sum())
    assert abs(state.total_power - params.ptot) <= 1e-12 * (params.ptot + floor)


def test_search_steps_to_the_exact_price_of_the_first_state():
    # the second price is water_level's exact price of the first state's
    # assignment; the maximizer there is that assignment, so the search stops
    params = SolverParams(ptot=2.0, weights=[1.0, 0.5])
    ms = rates.classify(TWO_DIRECT, params.ptot)
    rows = []
    alloc = solve(params, TWO_DIRECT, ms, trace=lambda *r: rows.append(r))
    assert alloc.status == STATUS_KKT and alloc.iterations == len(rows) == 2
    first = solve_at_price(rows[0][1], params, ms)
    k = np.arange(TWO_DIRECT.num_subcarriers)
    relay, dest = _mode(first) == rates.MODE_RELAY, first.pick // 2
    inv_gain = rates._inverse(ms.gain)
    inv_g = np.where(relay, inv_gain[0, k, dest], inv_gain[1, k, dest])
    num, den = water_level(params.weights[dest], inv_g, params.ptot, np.where(relay, 1.0, 2.0))
    assert rows[1][1] == num / den == alloc.mu_star
    np.testing.assert_array_equal(alloc.dest, dest)
    _assert_certified(alloc, params, TWO_DIRECT)


# -------------------------------------------------------------------- solve

def test_solve_single_direct_user_exact():
    params = SolverParams(ptot=2.0, weights=[1.0])
    alloc = solve(params, DIRECT1)
    assert alloc.status == STATUS_KKT
    assert math.isclose(alloc.mu_star, 0.5, rel_tol=1e-8)
    assert math.isclose(alloc.wsr, 2.0 * math.log(2.0), rel_tol=1e-9)
    a = alloc.assignments[0]
    assert a.mode == rates.MODE_DIRECT and a.u == 0
    assert math.isclose(a.sum_power, 2.0, rel_tol=1e-9)
    assert math.isclose(a.broadcast_power, 1.0, rel_tol=1e-9)
    assert math.isclose(a.relaying_power, 1.0, rel_tol=1e-9)
    _assert_certified(alloc, params, DIRECT1)


def test_solve_requires_matching_shapes():
    params = SolverParams(ptot=2.0, weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        solve(params, DIRECT1)
    ms = rates.classify(DIRECT1, 3.0)
    with pytest.raises(ValueError):
        solve(SolverParams(ptot=2.0, weights=[1.0]), DIRECT1, ms)
    # the front behind the price bounds and every evaluation checks it too
    with pytest.raises(ValueError, match="weights length"):
        price_bracket(SolverParams(ptot=3.0, weights=[1.0, 1.0]), ms)


def test_solve_rejects_mode_sets_of_another_budget_below_one_watt():
    # the budget check is relative: sets classified at 1e-13 W are a hundred
    # times off a 1e-15 W budget, though within 1e-12 of it in watts
    params = SolverParams(ptot=1e-15, weights=[1.0])
    with pytest.raises(ValueError, match="different total power"):
        solve(params, DIRECT1, rates.classify(DIRECT1, 1e-13))
    assert solve(params, DIRECT1, rates.classify(DIRECT1, 1e-15)).status == STATUS_KKT


def test_price_bracket_rejects_mode_sets_one_ulp_off_the_budget():
    # the bracket is solved at the sets' own budget, so only that budget reads it
    params = SolverParams(ptot=2.0, weights=[1.0])
    off = rates.classify(DIRECT1, math.nextafter(2.0, math.inf))
    for call in (price_bracket, lambda p, ms: solve(p, DIRECT1, ms)):
        with pytest.raises(ValueError, match="different total power"):
            call(params, off)


def test_solve_exclusivity_and_detail_consistency():
    rng = np.random.default_rng(23)
    for _ in range(10):
        gains = _random_table(rng)
        w = rng.uniform(0.2, 1.0, gains.num_destinations)
        params = SolverParams(ptot=float(rng.uniform(1.0, 20.0)), weights=w)
        alloc = solve(params, gains)
        assert len(alloc.assignments) == gains.num_subcarriers
        assert sorted(a.k for a in alloc.assignments) == list(range(gains.num_subcarriers))
        for a in alloc.assignments:
            assert a.mode in (rates.MODE_DIRECT, rates.MODE_RELAY)
            assert 0 <= a.u < gains.num_destinations
            assert a.sum_power >= 0.0
            detail = a.broadcast_power + a.relaying_power + float(np.sum(a.relay_powers))
            assert math.isclose(detail, a.sum_power, rel_tol=1e-9, abs_tol=1e-12)
        # the reported wsr is reproducible from the assignment list
        assert math.isclose(
            weighted_sum_rate(alloc.assignments, params, gains), alloc.wsr,
            rel_tol=1e-9, abs_tol=1e-12,
        )


def test_solve_kkt_residual_window():
    rng = np.random.default_rng(24)
    seen_kkt = 0
    for _ in range(10):
        gains = _random_table(rng, k=4)
        w = np.full(gains.num_destinations, 1.0 / gains.num_destinations)
        params = SolverParams(ptot=float(rng.uniform(2.0, 30.0)), weights=w)
        alloc = solve(params, gains)
        if alloc.status != STATUS_KKT:
            continue
        seen_kkt += 1
        assert alloc.mu_star > 0.0
        lo, hi = price_bracket(params, rates.classify(gains, params.ptot))
        assert lo - 1e-12 <= alloc.mu_star <= hi + 1e-12
        _assert_certified(alloc, params, gains)
    assert seen_kkt >= 5


def test_weight_scaling_leaves_assignments_unchanged():
    rng = np.random.default_rng(25)
    gains = _random_table(rng, k=5, u=3, n=2)
    w = rng.uniform(0.2, 1.0, 3)
    base = solve(SolverParams(ptot=6.0, weights=w), gains)
    scaled = solve(SolverParams(ptot=6.0, weights=3.0 * w), gains)
    for a, b in zip(base.assignments, scaled.assignments):
        assert (a.u, a.mode) == (b.u, b.mode)
    assert math.isclose(scaled.wsr, 3.0 * base.wsr, rel_tol=1e-9)
    assert math.isclose(scaled.mu_star, 3.0 * base.mu_star, rel_tol=1e-6)


def test_raising_weight_never_lowers_that_users_rate():
    rng = np.random.default_rng(26)
    checked = 0
    for _ in range(6):
        gains = _random_table(rng, k=6, u=3, n=2)
        params = SolverParams(ptot=float(rng.uniform(3.0, 15.0)), weights=[1.0, 1.0, 1.0])
        before = user_rates(solve(params, gains).assignments, gains)
        bumped = SolverParams(ptot=params.ptot, weights=[1.0, 2.0, 1.0])
        after = user_rates(solve(bumped, gains).assignments, gains)
        assert after[1] >= before[1] - 1e-9
        checked += 1
    assert checked == 6


def test_solve_trace_is_called_every_iteration():
    rows = []
    params = SolverParams(ptot=2.0, weights=[1.0])
    alloc = solve(params, DIRECT1, trace=lambda *r: rows.append(r))
    assert len(rows) == alloc.iterations >= 1
    its, mus, powers, lags = zip(*rows)
    assert list(its) == list(range(1, alloc.iterations + 1))
    assert all(m > 0.0 for m in mus)


def test_search_past_the_evaluation_cap_raises(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "_MAX_EVALS", 1)
    gains = _random_table(np.random.default_rng(27), k=3, u=2, n=2)
    params = SolverParams(ptot=5.0, weights=[0.5, 0.5])
    first = []
    # the first price is no assignment's exact price, so it certifies nothing
    with pytest.raises(solver.ConvergenceError, match="1 evaluations"):
        solve(params, gains, trace=lambda *row: first.append(row))
    assert len(first) == 1
    config = tmp_path / "config.yaml"
    config.write_text("num_subcarriers: 8\nnum_destinations: 2\nptot_dbw: 20.0\nnoise_dbw: -30.0\n")
    assert cli.main([str(config), "-o", str(tmp_path / "out")]) == 1
    assert "price search did not end" in capsys.readouterr().err


# 1e-310 and 1e-320 are positive gains too small to invert
_TIE_GAINS = st.sampled_from([0.0, 1e-320, 1e-310, 0.5, 1.0, 2.0, 4.0])


@st.composite
def _tie_rich_instances(draw):
    """(gains, weights, ptot) from a few gain levels; a third have identical subcarriers."""
    k, u, n = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rows = 1 if draw(st.integers(0, 2)) == 0 else k

    def block(*shape):
        flat = draw(st.lists(_TIE_GAINS, min_size=rows * math.prod(shape), max_size=rows * math.prod(shape)))
        return np.broadcast_to(np.reshape(flat, (rows, *shape)), (k, *shape)).copy()

    weights = np.ones(u) if draw(st.booleans()) else np.array(draw(
        st.lists(st.sampled_from([1.0, 2.0]), min_size=u, max_size=u)))
    return _table(block(u), block(n), block(n, u)), weights, draw(st.sampled_from([0.1, 1.0, 10.0, 1000.0]))


@settings(max_examples=300, deadline=None)
@given(_tie_rich_instances())
@example(instance=(SIX_TIED, np.ones(2), 10.0))
# a dead table: both protocols spread the budget evenly, and the direct
# rate 2 ln(1 + g p / 2) of a subnormal g p / 2 once lost to ln(1 + g p)
@example(instance=(_table(np.full((3, 1), 1e-320), np.zeros((3, 1)), np.zeros((3, 1, 1))), np.ones(1), 1.0))
def test_solve_on_tie_rich_inputs(instance):
    gains, weights, ptot = instance
    params = SolverParams(ptot=ptot, weights=weights)
    alloc = solve(params, gains)
    assert alloc.status in (STATUS_KKT, solver.STATUS_GAP)
    powers = np.array([a.sum_power for a in alloc.assignments])
    assert powers.min() >= 0.0
    assert math.isclose(powers.sum(), ptot, rel_tol=1e-9)
    assert weighted_sum_rate(alloc.assignments, params, gains) == alloc.wsr
    if np.all(weights == weights[0]):
        ref = reference.solve_reference(gains, ptot, weights=weights, g1_table=rates.classify(gains, ptot).g1)
        assert alloc.wsr >= ref.wsr - 1e-12 * abs(ref.wsr)


@st.composite
def _any_scale_instances(draw):
    """(gains, weights, ptot): ``scale * lognormal(0, 2)`` gains, 30% of them zero."""
    k, u, n = draw(st.integers(1, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-8.0, 10.0))

    def block(*shape):
        return scale * rng.lognormal(0.0, 2.0, shape) * (rng.random(shape) >= 0.3)

    weights = rng.uniform(0.1, 1.0, u) if draw(st.booleans()) else np.ones(u)
    return _table(block(k, u), block(k, n), block(k, n, u)), weights, 10.0 ** draw(st.floats(-3.0, 8.0))


@st.composite
def _weight_level_instances(draw):
    """(gains, weights, ptot): unequal weights on up to three levels, with gains tied across them.

    Every destination's direct and second hop gains are one of two columns,
    so destinations of one weight level and of different levels tie in
    gain, and the front holds up to three entries per mode.
    """
    k, u, n = draw(st.integers(1, 6)), draw(st.integers(2, 5)), draw(st.integers(1, 2))
    weights = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=u, max_size=u)))
    column = np.array(draw(st.lists(st.integers(0, 1), min_size=u, max_size=u)))

    def block(*shape):
        flat = draw(st.lists(_TIE_GAINS, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.reshape(flat, shape)

    g_su, g_ru = block(k, 2)[:, column], block(k, n, 2)[:, :, column]
    return _table(g_su, block(k, n), g_ru), weights, draw(st.sampled_from([0.1, 1.0, 10.0, 1000.0]))


def _assert_state_matches_the_oracle(state, mu, params, ms):
    """Every field of a price state bit for bit equal to the full-table oracle's."""
    pick, power, total_power, lagrangian = oracle_state_at_price(mu, params, ms.gain, ms.admissible)
    assert state.mu == mu
    for got, want in ((state.pick, pick), (state.power, power), (state.total_power, total_power),
                      (state.lagrangian, lagrangian)):
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@settings(max_examples=300, deadline=None)
@given(st.one_of(_tie_rich_instances(), _any_scale_instances(), _weight_level_instances()))
@example(instance=(SIX_TIED, np.ones(2), 10.0))
@example(instance=(_table([[1.0, 1.0, 2.0, 2.0]], [[0.5]], [[[0.5, 0.5, 0.5, 0.5]]]),
                   np.array([1.0, 2.0, 1.0, 2.0]), 1.0))
def test_choices_break_ties_in_candidate_order(instance):
    # solve_at_price scores only each subcarrier's (weight, gain) front; at
    # both bracket edges and their geometric mean every field of its state
    # equals that of scoring every candidate, and its choice is the first
    # maximum of the Lagrangian table in candidate order 2u + m (lowest
    # destination, relay aided before direct); max_gain_choice keeps the
    # lowest destination and goes direct on a tie, given the (2, K, U)
    # table or the pair of mode tables
    gains, weights, ptot = instance
    params = SolverParams(ptot=ptot, weights=weights)
    ms = rates.classify(gains, ptot)
    lo, hi = price_bracket(params, ms)
    kk, uu = gains.g_su.shape
    if hi > 0.0:
        for mu in (lo, hi, initial_price(lo, hi)):
            state = solve_at_price(mu, params, ms)
            _assert_state_matches_the_oracle(state, mu, params, ms)
            value, _ = oracle_candidate_tables(mu, weights, ms.gain, ms.admissible)
            interleaved = value.transpose(1, 2, 0).reshape(kk, 2 * uu)  # column 2u + m
            np.testing.assert_array_equal(state.pick, np.argmax(interleaved, axis=1))
    for table in (ms.gain, (ms.g1, gains.g_su)):
        pick, gain = solver.max_gain_choice(table, weights)
        for k in range(kk):
            best = [weights[u] * max(ms.g1[k, u], gains.g_su[k, u]) for u in range(uu)]
            u = best.index(max(best))
            m = 0 if ms.g1[k, u] > gains.g_su[k, u] else 1
            assert (pick[k], gain[k]) == (2 * u + m, ms.gain[m, k, u])


def test_price_states_near_a_threshold_match_the_full_table_oracle():
    # just below a candidate's threshold its value rounds to 0 or below
    # although it carries power; the front then does not decide the tie
    # order. Alone, it is the maximizer at value 0 with its power; beside
    # an unpowered candidate worth 0, that one wins.
    alone = DIRECT1
    params = SolverParams(ptot=1.0, weights=[1.0])
    mu = math.nextafter(1.0, 0.0)
    ms = rates.classify(alone, params.ptot)
    state = solve_at_price(mu, params, ms)
    assert state.power[0] > 0.0 and state.lagrangian == mu
    _assert_state_matches_the_oracle(state, mu, params, ms)

    beside = _table([[0.46181848625247157, 0.005]], [[0.01]], [[[0.01, 0.01]]])
    params = SolverParams(ptot=1.0, weights=[1.8823189875937536] * 2)
    mu = 0.8692897054948321
    ms = rates.classify(beside, params.ptot)
    value, power = oracle_candidate_tables(mu, params.weights, ms.gain, ms.admissible)
    assert value[1, 0, 0] < 0.0 < power[1, 0, 0]
    state = solve_at_price(mu, params, ms)
    assert state.pick[0] // 2 == 1 and state.power[0] == 0.0
    _assert_state_matches_the_oracle(state, mu, params, ms)


def test_price_state_tie_across_modes_goes_to_the_first_candidate():
    # destination 0 direct (pick 1) and destination 1 relay aided (pick 2)
    # are worth exactly the same at this price: the front lists them in
    # candidate order, so the direct one wins, as on the full table
    gains = _table([[1.0, 0.1]], [[4.0]], [[[0.01, 4.0]]])
    params = SolverParams(ptot=1.0, weights=[1.0, 1.0])
    mu = 0.2747546453878038
    ms = rates.classify(gains, params.ptot)
    value, _ = oracle_candidate_tables(mu, params.weights, ms.gain, ms.admissible)
    assert value[1, 0, 0] == value[0, 0, 1] > 0.0
    state = solve_at_price(mu, params, ms)
    assert state.pick.tolist() == [1]
    _assert_state_matches_the_oracle(state, mu, params, ms)


@settings(max_examples=300, deadline=None)
@given(_any_scale_instances())
def test_solve_raises_nothing_on_gains_of_any_scale(instance):
    gains, weights, ptot = instance
    alloc = solve(SolverParams(ptot=ptot, weights=weights), gains)
    assert alloc.status in (STATUS_KKT, solver.STATUS_GAP)
    powers = np.array([a.sum_power for a in alloc.assignments])
    assert powers.min() >= 0.0
    assert math.isclose(powers.sum(), ptot, rel_tol=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_tie_rich_instances(), _any_scale_instances()))
@example(instance=(TWO_DIRECT, np.array([1.0, 0.5]), 2.0))
def test_kkt_solves_certify_their_assignment(instance):
    gains, weights, ptot = instance
    params = SolverParams(ptot=ptot, weights=weights)
    alloc = solve(params, gains)
    if alloc.status == STATUS_KKT:
        _assert_certified(alloc, params, gains)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_tie_rich_instances(), _any_scale_instances()), st.sampled_from([2.0, 4.0]))
def test_weight_scaling_by_a_power_of_two_is_exact(instance, factor):
    # a power of two scales the prices, the metrics and the WSR without
    # rounding, so the whole search repeats step for step
    gains, weights, ptot = instance
    base = solve(SolverParams(ptot=ptot, weights=weights), gains)
    scaled = solve(SolverParams(ptot=ptot, weights=factor * weights), gains)
    assert (scaled.status, scaled.iterations) == (base.status, base.iterations)
    assert [(a.u, a.mode) for a in scaled.assignments] == [(a.u, a.mode) for a in base.assignments]
    assert scaled.wsr == factor * base.wsr


@settings(max_examples=200, deadline=None)
@given(st.one_of(_tie_rich_instances(), _any_scale_instances()), st.floats(1.0, 1e3))
def test_wsr_never_falls_as_the_budget_grows(instance, growth):
    gains, weights, ptot = instance
    base = solve(SolverParams(ptot=ptot, weights=weights), gains)
    grown = solve(SolverParams(ptot=growth * ptot, weights=weights), gains)
    assert grown.wsr >= base.wsr


def _assert_arrays_match_rows(alloc, params, gains):
    rows = alloc.assignments
    # both protocols spread a direct subcarrier over both slots
    direct = alloc.mode == rates.MODE_DIRECT
    expected = solver._assemble(2 * alloc.dest + direct, alloc.power, np.where(direct, 2.0, 1.0), gains)
    assert len(rows) == len(expected) == gains.num_subcarriers
    for row, want in zip(rows, expected):
        for f in dataclasses.fields(want):
            np.testing.assert_array_equal(getattr(row, f.name), getattr(want, f.name))
    per_dest = np.bincount(alloc.dest, weights=alloc.rate, minlength=gains.num_destinations)
    np.testing.assert_array_equal(per_dest, user_rates(rows, gains))
    assert alloc.wsr == weighted_sum_rate(rows, params, gains)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_tie_rich_instances(), _any_scale_instances()))
@example(instance=(SIX_TIED, np.ones(2), 10.0))
def test_allocation_arrays_match_the_assignment_rows(instance):
    # the arrays are the result; the rows, their per destination rates and
    # their weighted sum are recomputations that must agree bit for bit
    gains, weights, ptot = instance
    params = SolverParams(ptot=ptot, weights=weights)
    _assert_arrays_match_rows(solve(params, gains), params, gains)
    # the closed form's bookkeeping does not depend on its regime, so it is
    # forced on every drawn table
    report = dataclasses.replace(highpower.check_conditions(params, gains), conditions_met=True)
    _assert_arrays_match_rows(highpower.solve_high_power(params, gains, report=report), params, gains)


def test_solve_assembles_rows_only_when_they_are_read(monkeypatch):
    calls = []
    assemble, closed_form = solver._assemble, rates.relay_aided_solution
    monkeypatch.setattr(solver, "_assemble", lambda *a, **kw: calls.append("_assemble") or assemble(*a, **kw))
    monkeypatch.setattr(rates, "relay_aided_solution",
                        lambda *a: calls.append("relay_aided_solution") or closed_form(*a))
    gains = _synthesized(64, 8, 0)  # at 0 dBW most subcarriers go relay aided
    alloc = solve(SolverParams(ptot=1.0, weights=np.full(8, 0.125)), gains)
    assert len(alloc.assignments) == 64
    assert calls == []
    relayed = [a for a in alloc.assignments if a.mode == rates.MODE_RELAY]
    assert len(relayed) > 32 and alloc.assignments[-1].k == 63
    assert calls == ["_assemble", "relay_aided_solution"]  # once, then cached


def _synthesized(num_subcarriers, num_destinations, index):
    placement_seed, channel_seed = realization_seeds(20260818, index)
    region = channel.Region(x_min=-10.0, x_max=10.0, y_min=-30.0, y_max=-10.0)
    dest = channel.place_destinations(region, num_destinations, placement_seed)
    topo = channel.Topology(source_xy=(0.0, 0.0),
                            relay_xy=((-15.0, -5.0), (-5.0, -5.0), (5.0, -5.0), (15.0, -5.0)),
                            dest_xy=dest)
    real = channel.synthesize_realization(topo, channel.TapProfile(), num_subcarriers, channel_seed)
    return channel.to_gains(real, 1e-3)


@pytest.mark.parametrize("dbw", [0.0, 35.0, 80.0])
def test_search_evaluations_stay_bounded(dbw):
    for i in range(5):
        gains = _synthesized(64, 8, i)
        alloc = solve(SolverParams(ptot=10.0 ** (dbw / 10.0), weights=np.full(8, 0.125)), gains)
        assert alloc.status in (STATUS_KKT, solver.STATUS_GAP)
        assert alloc.iterations <= 60


def test_unpowered_subcarriers_do_not_block_the_certificate():
    # at 0 dBW some subcarriers carry no power, and between two prices they
    # may switch between candidates of zero value; comparing them too made
    # each of these searches collapse after 48 or 49 evaluations
    for i in range(5):
        gains = _synthesized(64, 8, i)
        params = SolverParams(ptot=1.0, weights=np.full(8, 0.125))
        alloc = solve(params, gains)
        assert (alloc.status, alloc.iterations) == (STATUS_KKT, 2)
        assert np.any(alloc.power == 0.0)
        _assert_certified(alloc, params, gains)


def test_low_power_wsr_never_below_reference():
    # at 0 dBW a 0.1 W stop window once let the joint optimum end below the
    # per-subcarrier baseline
    weights = np.full(8, 0.125)
    for i in range(3):
        gains = _synthesized(128, 8, i)
        ms = rates.classify(gains, 1.0)
        alloc = solve(SolverParams(ptot=1.0, weights=weights), gains, ms)
        ref = reference.solve_reference(gains, 1.0, weights=weights, g1_table=ms.g1)
        assert alloc.wsr >= ref.wsr * (1.0 - 1e-12)


# --------------------------------------------------------- rate bookkeeping

def _solve_protocol(protocol, params, gains):
    if protocol == "proposed":
        return solve(params, gains)
    if protocol == "reference":
        return reference.solve_reference(gains, params.ptot, weights=params.weights,
                                         g1_table=rates.classify(gains, params.ptot).g1)
    report = highpower.check_conditions(params, gains)
    if params.ptot < 1e10:
        # the closed form's bookkeeping does not depend on its regime
        report = dataclasses.replace(report, conditions_met=True)
    assert report.conditions_met
    return highpower.solve_high_power(params, gains, report=report)


@pytest.mark.parametrize("protocol", ["proposed", "reference", "highpower"])
def test_every_protocol_scores_its_choice_one_way(protocol):
    # synthesized tables at 0, 35 and 100 dBW (where the high power
    # conditions hold), a lognormal one with dead links and a dead one;
    # every protocol's Allocation comes from the same constructor
    rng = np.random.default_rng(30)
    tables = [(_synthesized(64, 8, i), 10.0 ** (dbw / 10.0)) for i, dbw in enumerate((0.0, 35.0, 100.0))]
    g = _random_table(rng, k=12, u=3, n=3)
    tables.append((_table(g.g_su * (rng.random((12, 3)) >= 0.2), g.g_sr, g.g_ru), 1.0))
    tables.append((_table(np.zeros((4, 2)), np.zeros((4, 1)), np.zeros((4, 1, 2))), 1.0))
    # past the 2**500 scaling, where proposed ends kkt in relay mode on a
    # gain that the table's shift makes subnormal: its rows read the same one
    tables.append((_table([[1.555185702835999e-163, 2.2868027957322535e-181]], [[1.717236985696959e-163]],
                          [[[5.78321864346092e+300, 3.2042655352172743e+305]]]), 1.0))
    for gains, ptot in tables:
        kk, uu = gains.g_su.shape
        params = SolverParams(ptot=ptot, weights=np.full(uu, 1.0 / uu))
        alloc = _solve_protocol(protocol, params, gains)
        # wsr: the weighted rates added left to right
        total = 0.0
        for u, r in zip(alloc.dest.tolist(), alloc.rate.tolist()):
            total += params.weights[u] * r
        assert alloc.wsr == total
        # rate: the mode's slot formula on the choice's gains
        g1 = rates.effective_gain_table(gains.g_su, gains.g_sr, gains.g_ru)
        for k, (u, m, p, r) in enumerate(zip(alloc.dest, alloc.mode, alloc.power, alloc.rate)):
            if m == rates.MODE_RELAY:
                assert r == math.log1p(g1[k, u] * p)
            elif protocol == "reference":
                assert r == math.log1p(gains.g_su[k, u] * p)
            else:
                assert r == 2.0 * math.log1p(gains.g_su[k, u] * (p / 2.0))
        assert alloc.residual == max(ptot - float(alloc.power.sum()), 0.0) <= 1e-9 * ptot
        # the rows score as the arrays do, bit for bit
        assert weighted_sum_rate(alloc.assignments, params, gains) == alloc.wsr
        np.testing.assert_array_equal(user_rates(alloc.assignments, gains),
                                      np.bincount(alloc.dest, alloc.rate, minlength=uu))


def test_wsr_of_empty_and_single():
    params = SolverParams(ptot=2.0, weights=[1.0])
    assert weighted_sum_rate([], params, DIRECT1) == 0.0
    alloc = solve(params, DIRECT1)
    assert math.isclose(
        weighted_sum_rate(alloc.assignments, params, DIRECT1),
        2.0 * math.log(2.0), rel_tol=1e-9,
    )


def test_assignments_carry_the_per_pair_relay_split():
    # the batched split behind the assignment list gives exactly the source
    # power, relay set and relay powers of the split of each pair on its own,
    # in ascending relay index
    gains = _synthesized(64, 8, 0)
    alloc = solve(SolverParams(ptot=1.0, weights=np.full(8, 0.125)), gains)
    relayed = [a for a in alloc.assignments if a.mode == rates.MODE_RELAY]
    assert len(relayed) > 32
    assert any(len(a.relay_indices) > 1 for a in relayed)
    for a in relayed:
        (source,), (member,), (relay,) = rates.relay_aided_solution(gains, [a.k], [a.u]).split([a.sum_power])
        assert a.relay_indices == tuple(np.flatnonzero(member).tolist())
        assert list(a.relay_indices) == sorted(set(a.relay_indices))
        assert a.broadcast_power == source
        np.testing.assert_array_equal(a.relay_powers, relay[member])
    # rates added one subcarrier at a time with math.log1p, as the loops
    # the vectorized bookkeeping replaced did
    g1 = rates.effective_gain_table(gains.g_su, gains.g_sr, gains.g_ru)
    per_user, wsr = np.zeros(8), 0.0
    for a in alloc.assignments:
        if a.mode == rates.MODE_RELAY:
            rate = math.log1p(float(g1[a.k, a.u]) * a.sum_power)
        else:
            rate = 2.0 * math.log1p(float(gains.g_su[a.k, a.u]) * a.sum_power / 2.0)
        per_user[a.u] += rate
        wsr += 0.125 * rate
    np.testing.assert_array_equal(user_rates(alloc.assignments, gains), per_user)
    assert weighted_sum_rate(alloc.assignments, SolverParams(ptot=1.0, weights=np.full(8, 0.125)), gains) == wsr
    assert alloc.wsr == wsr


def test_wsr_additivity_across_subcarriers():
    rng = np.random.default_rng(28)
    gains = _random_table(rng, k=4, u=2, n=2)
    params = SolverParams(ptot=8.0, weights=[0.5, 0.5])
    alloc = solve(params, gains)
    total = weighted_sum_rate(alloc.assignments, params, gains)
    parts = sum(weighted_sum_rate([a], params, gains) for a in alloc.assignments)
    assert math.isclose(total, parts, rel_tol=1e-12)


def test_user_rates_sum_matches_equal_weight_wsr():
    rng = np.random.default_rng(29)
    gains = _random_table(rng, k=4, u=2, n=2)
    params = SolverParams(ptot=8.0, weights=[0.5, 0.5])
    alloc = solve(params, gains)
    per_user = user_rates(alloc.assignments, gains)
    assert math.isclose(0.5 * per_user.sum(), alloc.wsr, rel_tol=1e-9)
