"""Dual price search: metrics, bracketing, the safeguarded Newton step in 1/mu."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from relayalloc import channel, cli, rates, reference, solver
from relayalloc.channel import GainTable
from relayalloc.cli import realization_seeds
from relayalloc.solver import (
    STATUS_KKT,
    SolverParams,
    assignment_metric,
    initial_price,
    price_bracket,
    solve,
    solve_at_price,
    time_shared_direct_rate,
    time_shared_relay_rate,
    user_rates,
    water_level,
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
    with pytest.raises(ValueError):
        SolverParams(ptot=1.0, weights=[1.0], epsilon=0.0)
    with pytest.raises(ValueError):
        SolverParams(ptot=1.0, weights=[1.0], highpower_factor=0.5)


def test_epsilon_watts_modes():
    # the default window is relative: 1e-6 of the budget
    assert math.isclose(SolverParams(ptot=100.0, weights=[1.0]).epsilon_watts, 1e-4, rel_tol=1e-12)
    p = SolverParams(ptot=100.0, weights=[1.0], epsilon=0.01)
    assert math.isclose(p.epsilon_watts, 1.0, rel_tol=1e-12)
    absolute = SolverParams(ptot=100.0, weights=[1.0], epsilon=0.1, epsilon_is_relative=False)
    assert absolute.epsilon_watts == 0.1


# ------------------------------------------------------------------- metrics

def test_relay_metric_frozen_value():
    # effective gain 2, weight 0.25, price 0.1: power 2, value 0.25 ln5 - 0.2
    params = SolverParams(ptot=40.0, weights=[0.25])
    ms = rates.classify(AMBI, params.ptot)
    got = assignment_metric(0, rates.MODE_RELAY, 0, 0.1, params, AMBI, ms)
    assert math.isclose(got, 0.25 * math.log(5.0) - 0.2, rel_tol=1e-12)
    assert math.isclose(got, 0.2023594781085251, rel_tol=1e-12)


def test_direct_metric_frozen_value():
    # direct gain 2, weight 0.25, price 0.1: per-slot power 2, sum power 4
    params = SolverParams(ptot=40.0, weights=[0.25])
    ms = rates.classify(DIRECT2, params.ptot)
    got = assignment_metric(0, rates.MODE_DIRECT, 0, 0.1, params, DIRECT2, ms)
    assert math.isclose(got, 0.5 * math.log(5.0) - 0.4, rel_tol=1e-12)
    assert math.isclose(got, 0.4047189562170502, rel_tol=1e-12)


def test_metric_clamps_to_zero():
    params = SolverParams(ptot=40.0, weights=[0.25])
    ms = rates.classify(AMBI, params.ptot)
    # price so high that the water level sits below the inverse gain
    assert assignment_metric(0, rates.MODE_RELAY, 0, 10.0, params, AMBI, ms) == 0.0


def test_metric_rejects_inadmissible_mode():
    params = SolverParams(ptot=3.0, weights=[1.0])
    ms = rates.classify(RELAY1, params.ptot)
    with pytest.raises(ValueError):
        assignment_metric(0, rates.MODE_DIRECT, 0, 0.1, params, RELAY1, ms)
    params2 = SolverParams(ptot=40.0, weights=[0.25])
    ms2 = rates.classify(DIRECT2, params2.ptot)
    with pytest.raises(ValueError):
        assignment_metric(0, rates.MODE_RELAY, 0, 0.1, params2, DIRECT2, ms2)
    with pytest.raises(ValueError):
        assignment_metric(0, rates.MODE_DIRECT, 0, 0.0, params2, DIRECT2, ms2)


def test_price_solve_prefers_direct_on_ambivalent_pair():
    # at price 0.1 the two-slot direct term wins despite the smaller gain
    params = SolverParams(ptot=40.0, weights=[1.0])
    ms = rates.classify(AMBI, params.ptot)
    state = solve_at_price(0.1, params, AMBI, ms)
    assert state.mode[0] == rates.MODE_DIRECT
    assert math.isclose(state.power[0], 2.0 * (10.0 - 1.0 / 1.5), rel_tol=1e-12)
    assert math.isclose(state.total_power, 56.0 / 3.0, rel_tol=1e-12)


def test_price_solve_high_price_gives_zero_power():
    params = SolverParams(ptot=40.0, weights=[1.0])
    ms = rates.classify(AMBI, params.ptot)
    state = solve_at_price(1e9, params, AMBI, ms)
    assert state.total_power == 0.0


def test_price_solve_tie_breaks_to_lowest_destination():
    # two identical users: the first one must win
    t = _table([[2.0, 2.0]], [[0.1]], [[[0.1, 0.1]]])
    params = SolverParams(ptot=10.0, weights=[0.5, 0.5])
    ms = rates.classify(t, params.ptot)
    state = solve_at_price(0.05, params, t, ms)
    assert state.dest[0] == 0


def test_per_price_state_matches_power_grid_search():
    """Closed-form per-subcarrier value vs 1e4-point brute force."""
    rng = np.random.default_rng(21)
    for _ in range(8):
        gains = _random_table(rng)
        w = rng.uniform(0.2, 1.0, gains.num_destinations)
        params = SolverParams(ptot=float(rng.uniform(1.0, 10.0)), weights=w)
        ms = rates.classify(gains, params.ptot)
        lo, hi = price_bracket(params, gains, ms)
        mu = float(rng.uniform(lo, hi))
        state = solve_at_price(mu, params, gains, ms)
        p_grid = np.linspace(0.0, 2.0 * w.max() / mu, 10_000)
        for k in range(gains.num_subcarriers):
            best_grid = 0.0
            for u in range(gains.num_destinations):
                if not ms.in_direct_set[k, u]:
                    v = w[u] * np.log1p(ms.g1[k, u] * p_grid) - mu * p_grid
                    best_grid = max(best_grid, float(v.max()))
                if not ms.in_relay_set[k, u]:
                    v = 2.0 * w[u] * np.log1p(gains.g_su[k, u] * p_grid / 2.0) - mu * p_grid
                    best_grid = max(best_grid, float(v.max()))
            got = assignment_metric(int(state.dest[k]), str(state.mode[k]), k, mu, params, gains, ms)
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
    fill = water_level(a, v, 1.0, c)
    if not live.any():
        assert fill is None
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
    mu_l, mu_u = price_bracket(params, DIRECT1, ms)
    assert math.isclose(mu_u, 0.5, rel_tol=1e-8)
    assert math.isclose(mu_l, 0.25, rel_tol=1e-8)


def test_bracket_bounds_monotone_in_budget():
    params_small = SolverParams(ptot=1.0, weights=[1.0])
    params_big = SolverParams(ptot=10.0, weights=[1.0])
    ms_small = rates.classify(DIRECT1, 1.0)
    ms_big = rates.classify(DIRECT1, 10.0)
    lo_s, hi_s = price_bracket(params_small, DIRECT1, ms_small)
    lo_b, hi_b = price_bracket(params_big, DIRECT1, ms_big)
    assert hi_b < hi_s and lo_b < lo_s


def test_bracket_ignores_zero_gain_destinations():
    # destination 1 has no usable link at all; its infinite inverse gain
    # once made the lower price bound unbracketable
    t = _table([[1.0, 0.0]], [[0.5]], np.zeros((1, 1, 2)))
    params = SolverParams(ptot=1.0, weights=[0.5, 0.5])
    ms = rates.classify(t, params.ptot)
    lo, hi = price_bracket(params, t, ms)
    assert 0.0 < lo <= 1.0 / 3.0 <= hi
    alloc = solve(params, t, ms)
    assert alloc.status == STATUS_KKT
    a = alloc.assignments[0]
    assert (a.u, a.mode) == (0, rates.MODE_DIRECT)
    assert math.isclose(a.sum_power, 1.0, rel_tol=1e-12)
    assert math.isclose(alloc.wsr, math.log(1.5), rel_tol=1e-9)


def test_solve_all_zero_gains_returns_zero_wsr():
    # no subcarrier has a usable link: the bracket cannot be built, and the
    # budget may be spread anyhow for a WSR of zero
    t = _table(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2, 2)))
    params = SolverParams(ptot=5.0, weights=[0.5, 0.5])
    alloc = solve(params, t)
    assert alloc.wsr == 0.0
    assert alloc.converged and alloc.status == STATUS_KKT
    powers = [a.sum_power for a in alloc.assignments]
    assert len(powers) == 3 and min(powers) >= 0.0
    assert math.isclose(sum(powers), params.ptot, rel_tol=1e-12)
    assert weighted_sum_rate(alloc.assignments, params, t) == 0.0


def test_bracket_without_usable_links_is_zero():
    t = _table(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2, 2)))
    params = SolverParams(ptot=5.0, weights=[0.5, 0.5])
    assert price_bracket(params, t, rates.classify(t, params.ptot)) == (0.0, 0.0)


def test_bracket_contains_power_root():
    rng = np.random.default_rng(22)
    for _ in range(10):
        gains = _random_table(rng)
        w = rng.uniform(0.2, 1.0, gains.num_destinations)
        params = SolverParams(ptot=float(rng.uniform(1.0, 10.0)), weights=w)
        ms = rates.classify(gains, params.ptot)
        lo, hi = price_bracket(params, gains, ms)
        assert 0.0 < lo <= hi
        # assigned power at the edges brackets the budget
        assert solve_at_price(lo, params, gains, ms).total_power >= params.ptot - 1e-6
        assert solve_at_price(hi, params, gains, ms).total_power <= params.ptot + 1e-6


def test_initial_price_is_geometric_mean_of_bracket():
    params = SolverParams(ptot=2.0, weights=[1.0])
    ms = rates.classify(DIRECT1, params.ptot)
    mu_l, mu_u = price_bracket(params, DIRECT1, ms)
    assert math.isclose(initial_price(mu_l, mu_u, params, DIRECT1, ms), math.sqrt(mu_l * mu_u), rel_tol=1e-15)
    assert initial_price(0.5, 0.5, params, DIRECT1, ms) == 0.5


# six identical subcarriers: at 10 W and equal weights the bracket collapses
# with all six tied
SIX_TIED = _table(np.tile([1.0, 0.5], (6, 1)), np.tile([1.0, 2.0], (6, 1)),
                  np.tile([[4.0, 1.0], [0.5, 4.0]], (6, 1, 1)))
# two direct users with unequal weights: the power root sits strictly inside
# the bracket
TWO_DIRECT = _table([[1.0, 2.0]], [[0.001]], [[[0.001, 0.001]]])


def test_search_prices_stay_inside_a_shrinking_bracket():
    # replaying the trace, every price lies strictly inside the bracket the
    # earlier evaluations left, and each evaluation shrinks it
    rng = np.random.default_rng(28)
    cases = [(TWO_DIRECT, [1.0, 0.5], 2.0), (SIX_TIED, [1.0, 1.0], 10.0)]
    cases += [(_random_table(rng, k=6, u=3, n=2), rng.uniform(0.2, 1.0, 3), float(rng.uniform(0.5, 50.0)))
              for _ in range(8)]
    statuses = set()
    for gains, weights, ptot in cases:
        params = SolverParams(ptot=ptot, weights=weights)
        ms = rates.classify(gains, params.ptot)
        rows = []
        alloc = solve(params, gains, ms, trace=lambda *r: rows.append(r))
        statuses.add(alloc.status)
        lo, hi = price_bracket(params, gains, ms)
        assert (alloc.mu_lower, alloc.mu_upper) == (lo, hi)
        for i, (_, mu, total_power, _) in enumerate(rows, start=1):
            assert lo < mu < hi
            if i == len(rows) and alloc.status == STATUS_KKT:
                break  # the window was reached: the bracket stays
            width = hi - lo
            lo, hi = (mu, hi) if total_power > params.ptot else (lo, mu)
            assert hi - lo < width
    assert statuses == {STATUS_KKT, solver.STATUS_GAP}


def test_search_steps_to_the_newton_price_of_the_last_state():
    # with the first state's assignment fixed, the power is linear in 1/mu:
    # the second price spends ptot - eps/2 on it, inside the KKT window
    params = SolverParams(ptot=2.0, weights=[1.0, 0.5])
    ms = rates.classify(TWO_DIRECT, params.ptot)
    rows = []
    alloc = solve(params, TWO_DIRECT, ms, trace=lambda *r: rows.append(r))
    assert alloc.status == STATUS_KKT and alloc.iterations == len(rows) == 2
    first = solve_at_price(rows[0][1], params, TWO_DIRECT, ms)
    active = first.power > 0.0
    relay = first.mode[active] == rates.MODE_RELAY
    c = np.where(relay, 1.0, 2.0)
    g = np.where(relay, ms.g1[0, first.dest[active]], TWO_DIRECT.g_su[0, first.dest[active]])
    w = params.weights[first.dest[active]]
    newton = float((c * w).sum()) / (params.ptot - params.epsilon_watts / 2.0 + float((c / g).sum()))
    assert rows[1][1] == newton
    assert 0.0 <= alloc.residual < params.epsilon_watts


# -------------------------------------------------------------------- solve

def test_solve_single_direct_user_exact():
    params = SolverParams(ptot=2.0, weights=[1.0])
    alloc = solve(params, DIRECT1)
    assert alloc.status == STATUS_KKT and alloc.converged
    assert math.isclose(alloc.mu_star, 0.5, rel_tol=1e-8)
    assert math.isclose(alloc.wsr, 2.0 * math.log(2.0), rel_tol=1e-9)
    a = alloc.assignments[0]
    assert a.mode == rates.MODE_DIRECT and a.u == 0
    assert math.isclose(a.sum_power, 2.0, rel_tol=1e-9)
    assert math.isclose(a.broadcast_power, 1.0, rel_tol=1e-9)
    assert math.isclose(a.relaying_power, 1.0, rel_tol=1e-9)
    assert abs(alloc.residual) < params.epsilon


def test_solve_requires_matching_shapes():
    params = SolverParams(ptot=2.0, weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        solve(params, DIRECT1)
    ms = rates.classify(DIRECT1, 3.0)
    with pytest.raises(ValueError):
        solve(SolverParams(ptot=2.0, weights=[1.0]), DIRECT1, ms)


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
        assert alloc.mu_lower - 1e-12 <= alloc.mu_star <= alloc.mu_upper + 1e-12
        assert 0.0 <= alloc.residual < params.epsilon_watts
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
    with pytest.raises(solver.ConvergenceError, match="1 evaluations"):
        solve(params, gains, trace=lambda *row: first.append(row))
    [(_, _, power, _)] = first
    assert not 0.0 <= params.ptot - power < params.epsilon_watts  # the first price misses the window
    config = tmp_path / "config.yaml"
    config.write_text("num_subcarriers: 8\nnum_destinations: 2\nptot_dbw: 20.0\nnoise_dbw: -30.0\n")
    assert cli.main([str(config), "-o", str(tmp_path / "out")]) == 1
    assert "price search did not end" in capsys.readouterr().err


_TIE_GAINS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0])


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
        ref = reference.solve_reference(gains, ptot, weights=weights)
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


@settings(max_examples=300, deadline=None)
@given(_any_scale_instances())
def test_solve_raises_nothing_on_gains_of_any_scale(instance):
    gains, weights, ptot = instance
    alloc = solve(SolverParams(ptot=ptot, weights=weights), gains)
    assert alloc.status in (STATUS_KKT, solver.STATUS_GAP)
    powers = np.array([a.sum_power for a in alloc.assignments])
    assert powers.min() >= 0.0
    assert math.isclose(powers.sum(), ptot, rel_tol=1e-9)


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


def _synthesized(num_subcarriers, num_destinations, index):
    placement_seed, channel_seed = realization_seeds(20260818, index)
    region = channel.Region(x_min=-10.0, x_max=10.0, y_min=-30.0, y_max=-10.0)
    dest = channel.place_destinations(region, num_destinations, placement_seed)
    topo = channel.Topology(source_xy=(0.0, 0.0),
                            relay_xy=((-15.0, -5.0), (-5.0, -5.0), (5.0, -5.0), (15.0, -5.0)),
                            dest_xy=dest)
    real = channel.synthesize_realization(topo, channel.TapProfile.exponential(), num_subcarriers, channel_seed)
    return channel.to_gains(real, 1e-3)


@pytest.mark.parametrize("dbw", [0.0, 35.0, 80.0])
def test_search_evaluations_stay_bounded(dbw):
    for i in range(5):
        gains = _synthesized(64, 8, i)
        alloc = solve(SolverParams(ptot=10.0 ** (dbw / 10.0), weights=np.full(8, 0.125)), gains)
        assert alloc.status in (STATUS_KKT, solver.STATUS_GAP)
        assert alloc.iterations <= 60


def test_low_power_wsr_never_below_reference():
    # at 0 dBW the window is 1e-6 of the budget; the old 0.1 W window let
    # the joint optimum end below the per-subcarrier baseline
    weights = np.full(8, 0.125)
    for i in range(3):
        gains = _synthesized(128, 8, i)
        ms = rates.classify(gains, 1.0)
        alloc = solve(SolverParams(ptot=1.0, weights=weights), gains, ms)
        ref = reference.solve_reference(gains, 1.0, weights=weights, g1_table=ms.g1)
        assert alloc.wsr >= ref.wsr * (1.0 - 1e-12)


# --------------------------------------------------------- rate bookkeeping

def test_wsr_of_empty_and_single():
    params = SolverParams(ptot=2.0, weights=[1.0])
    assert weighted_sum_rate([], params, DIRECT1) == 0.0
    alloc = solve(params, DIRECT1)
    assert math.isclose(
        weighted_sum_rate(alloc.assignments, params, DIRECT1),
        2.0 * math.log(2.0), rel_tol=1e-9,
    )


def test_assignments_carry_the_per_pair_relay_split():
    # the batched closed form behind the assignment list gives exactly the
    # relay set and powers of relay_aided_solution on each subcarrier
    gains = _synthesized(64, 8, 0)
    alloc = solve(SolverParams(ptot=1.0, weights=np.full(8, 0.125)), gains)
    relayed = [a for a in alloc.assignments if a.mode == rates.MODE_RELAY]
    assert len(relayed) > 32
    for a in relayed:
        sol = rates.relay_aided_solution(rates.PerPairGains.from_table(gains, a.k, a.u), a.sum_power)
        assert a.relay_indices == sol.relay_set
        assert a.broadcast_power == sol.source_fraction * a.sum_power
        np.testing.assert_array_equal(a.relay_powers, (a.sum_power - a.broadcast_power) * sol.relay_fractions)
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


def test_time_shared_forms():
    assert time_shared_relay_rate(0.0, 1.0, 2.0) == 0.0
    assert time_shared_direct_rate(0.0, 1.0, 2.0) == 0.0
    # share one recovers the plain rate functions
    assert math.isclose(time_shared_relay_rate(1.0, 3.0, 2.0), math.log1p(6.0), rel_tol=1e-12)
    assert math.isclose(
        time_shared_direct_rate(1.0, 3.0, 2.0), 2.0 * math.log1p(3.0), rel_tol=1e-12
    )
    with pytest.raises(ValueError):
        time_shared_relay_rate(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        time_shared_direct_rate(0.5, -1.0, 1.0)
