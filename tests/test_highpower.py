"""Closed-form allocation for the regime where the budget dwarfs every gain."""

import math

import numpy as np
import pytest

from relayalloc import rates, solver
from relayalloc.channel import GainTable
from relayalloc.highpower import check_conditions, solve_high_power


def _table(g_su, g_sr=None, g_ru=None):
    g_su = np.asarray(g_su, float)
    k, u = g_su.shape
    if g_sr is None:
        g_sr = np.ones((k, 1))
    if g_ru is None:
        g_ru = np.ones((k, np.asarray(g_sr).shape[1], u))
    return GainTable(g_su=g_su, g_sr=np.asarray(g_sr, float), g_ru=np.asarray(g_ru, float))


def test_tiny_budget_fails_conditions():
    gains = _table([[1.0, 2.0], [2.0, 1.0]])
    params = solver.SolverParams(ptot=0.1, weights=[0.5, 0.5])
    report = check_conditions(params, gains)
    assert not report.conditions_met
    assert report.margin < report.factor
    with pytest.raises(ValueError):
        solve_high_power(params, gains)


def test_margin_monotone_in_budget():
    gains = _table([[1.0, 2.0], [2.0, 1.0]])
    margins = [
        check_conditions(solver.SolverParams(ptot=p, weights=[0.5, 0.5]), gains).margin
        for p in (1.0, 10.0, 100.0, 1000.0, 10000.0)
    ]
    assert all(b >= a for a, b in zip(margins, margins[1:]))


def test_report_consistency():
    gains = _table([[1.0, 3.0], [2.0, 1.0]])
    params = solver.SolverParams(ptot=2000.0, weights=[0.5, 0.5])
    report = check_conditions(params, gains)
    assert report.conditions_met == (report.margin >= report.factor)
    assert report.threshold > 0.0
    assert math.isclose(
        report.margin, report.threshold / max(report.max_inverse_gain, report.max_gain),
        rel_tol=1e-12,
    )


def test_equal_weights_pick_best_direct_gain_per_subcarrier():
    gains = _table([[1.0, 3.0], [2.0, 1.0]])
    params = solver.SolverParams(ptot=2000.0, weights=[0.5, 0.5])
    report = check_conditions(params, gains)
    assert report.conditions_met
    alloc = solve_high_power(params, gains, report=report)
    assert [a.u for a in alloc.assignments] == [1, 0]
    assert all(a.mode == rates.MODE_DIRECT for a in alloc.assignments)
    for a in alloc.assignments:
        assert math.isclose(a.sum_power, 1000.0, rel_tol=1e-12)
        assert math.isclose(a.broadcast_power, 500.0, rel_tol=1e-12)
        assert math.isclose(a.relaying_power, 500.0, rel_tol=1e-12)
    want = 0.5 * rates.direct_rate(3.0, 1000.0) + 0.5 * rates.direct_rate(2.0, 1000.0)
    assert math.isclose(alloc.wsr, want, rel_tol=1e-12)
    assert alloc.status == "closed_form" and alloc.converged
    assert alloc.residual == 0.0


def test_unequal_weights_send_everything_to_the_heaviest_user():
    gains = _table([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0], [2.0, 2.0, 2.0, 2.0]])
    params = solver.SolverParams(ptot=10_000.0, weights=[0.4, 0.2, 0.2, 0.2])
    report = check_conditions(params, gains)
    assert report.conditions_met
    alloc = solve_high_power(params, gains, report=report)
    assert all(a.u == 0 for a in alloc.assignments)
    assert all(a.mode == rates.MODE_DIRECT for a in alloc.assignments)
    for a in alloc.assignments:
        assert math.isclose(a.sum_power, 10_000.0 / 3.0, rel_tol=1e-12)


def test_weight_tie_goes_to_lowest_index():
    gains = _table([[1.0, 2.0], [2.0, 1.0]])
    params = solver.SolverParams(ptot=5000.0, weights=[0.3, 0.3])
    # equal weights: per-subcarrier argmax applies, not the heaviest-user rule
    alloc = solve_high_power(params, gains)
    assert [a.u for a in alloc.assignments] == [1, 0]
    # genuinely unequal with a tie at the top after a tiny bump elsewhere
    params2 = solver.SolverParams(ptot=5000.0, weights=[0.35, 0.3])
    alloc2 = solve_high_power(params2, gains)
    assert all(a.u == 0 for a in alloc2.assignments)


def test_matches_dual_solver_when_conditions_hold():
    rng = np.random.default_rng(31)
    gains = _table(rng.uniform(0.5, 3.0, (4, 3)))
    params = solver.SolverParams(ptot=50_000.0, weights=[1 / 3] * 3)
    report = check_conditions(params, gains)
    assert report.conditions_met
    fast = solve_high_power(params, gains, report=report)
    full = solver.solve(params, gains)
    assert abs(fast.wsr - full.wsr) <= 0.01 * full.wsr
    # same modes and destinations, powers within 5%
    for a, b in zip(fast.assignments, full.assignments):
        assert a.mode == b.mode == rates.MODE_DIRECT
        assert a.u == b.u
        assert abs(b.sum_power - a.sum_power) <= 0.05 * a.sum_power


def test_custom_factor_changes_the_verdict():
    gains = _table([[1.0, 2.0], [2.0, 1.0]])
    params = solver.SolverParams(ptot=500.0, weights=[0.5, 0.5])
    strict = check_conditions(params, gains, factor=1000.0)
    lax = check_conditions(params, gains, factor=10.0)
    assert not strict.conditions_met and lax.conditions_met
    assert math.isclose(strict.margin, lax.margin, rel_tol=1e-12)


@pytest.mark.parametrize("mu_upper", [None, 0.0])
def test_no_usable_link_fails_conditions(mu_upper):
    # an all-zero table has the bracket (0, 0); the check must not divide by it
    gains = _table(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2, 2)))
    params = solver.SolverParams(ptot=5.0, weights=[0.5, 0.5])
    report = check_conditions(params, gains, mu_upper=mu_upper)
    assert not report.conditions_met
    assert report.threshold == 0.0 and report.margin == 0.0
