"""Closed-form allocation for the regime where the budget dwarfs every gain."""

import math

import numpy as np
import pytest

from relayalloc import highpower, rates, solver
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
    want = 0.5 * 2.0 * math.log1p(3.0 * 500.0) + 0.5 * 2.0 * math.log1p(2.0 * 500.0)
    assert math.isclose(alloc.wsr, want, rel_tol=1e-12)
    assert alloc.status == "closed_form" and alloc.converged
    assert alloc.residual == 0.0
    # the allocation reports the bracket its report was checked at
    bracket = solver.price_bracket(params, rates.classify(gains, params.ptot))
    assert (alloc.mu_lower, alloc.mu_upper) == (report.mu_lower, report.mu_upper) == bracket
    assert alloc.mu_star == report.mu_upper


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


def test_custom_factor_changes_the_verdict(monkeypatch):
    # at 500 W the margin lies between 10 and 1000, so the factor decides
    gains = _table([[1.0, 2.0], [2.0, 1.0]])
    params = solver.SolverParams(ptot=500.0, weights=[0.5, 0.5])
    margin = check_conditions(params, gains).margin
    assert 10.0 < margin < 1000.0
    monkeypatch.setattr(highpower, "FACTOR", 1000.0)
    strict = check_conditions(params, gains)
    monkeypatch.setattr(highpower, "FACTOR", 10.0)
    lax = check_conditions(params, gains)
    assert not strict.conditions_met and lax.conditions_met
    assert (strict.factor, lax.factor) == (1000.0, 10.0)
    assert strict.margin == lax.margin == margin


def test_conditions_hold_from_a_margin_of_100():
    # the margin grows with the budget; the verdict flips where it reaches
    # the fixed factor of 100, on a sweep that sees both sides
    gains = _table([[1.0, 3.0], [2.0, 1.0]])
    reports = [check_conditions(solver.SolverParams(ptot=10.0 ** e, weights=[0.5, 0.5]), gains)
               for e in np.arange(0.0, 6.0, 0.25)]
    assert highpower.FACTOR == 100.0
    assert all(r.factor == 100.0 and r.conditions_met == (r.margin >= 100.0) for r in reports)
    verdicts = [r.conditions_met for r in reports]
    assert verdicts == sorted(verdicts) and verdicts[0] is False and verdicts[-1] is True


@pytest.mark.parametrize("bracket", [None, (0.0, 0.0)], ids=["None", "0.0"])
def test_no_usable_link_fails_conditions(bracket):
    # an all-zero table has the bracket (0, 0); the check must not divide by it
    gains = _table(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2, 2)))
    params = solver.SolverParams(ptot=5.0, weights=[0.5, 0.5])
    report = check_conditions(params, gains, bracket=bracket)
    assert not report.conditions_met
    assert report.threshold == 0.0 and report.margin == 0.0
    assert (report.mu_lower, report.mu_upper) == (0.0, 0.0)


def test_wsr_is_bit_identical_to_the_recomputed_weighted_sum_rate():
    # the closed form adds its rates by the solver's own path, so its WSR is
    # exactly what weighted_sum_rate recomputes from the assignments
    rng = np.random.default_rng(17)
    met = 0
    for _ in range(300):
        k, u = int(rng.integers(8, 65)), int(rng.integers(1, 5))
        gains = _table(rng.lognormal(0.0, 1.0, (k, u)), rng.lognormal(0.0, 1.0, (k, 2)),
                       rng.lognormal(0.0, 1.0, (k, 2, u)))
        w = np.full(u, 1.0 / u) if rng.random() < 0.5 else rng.uniform(0.1, 1.0, u)
        params = solver.SolverParams(ptot=10.0 ** rng.uniform(5.0, 8.0), weights=w)
        report = check_conditions(params, gains)
        if report.conditions_met:
            met += 1
            alloc = solve_high_power(params, gains, report=report)
            assert alloc.wsr == solver.weighted_sum_rate(alloc.assignments, params, gains)
    assert met >= 250


def test_report_takes_its_maxima_from_the_mode_sets():
    # the maxima read from ModeSets equal those of the stacked g1 and g_su
    # tables and of their inverses, bit for bit, whether or not the caller
    # passes the mode sets
    rng = np.random.default_rng(23)
    for _ in range(200):
        k, u, n = int(rng.integers(1, 17)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        g_su = rng.lognormal(0.0, 2.0, (k, u)) * (rng.random((k, u)) > 0.2)
        gains = _table(g_su, rng.lognormal(0.0, 2.0, (k, n)), rng.lognormal(0.0, 2.0, (k, n, u)))
        params = solver.SolverParams(ptot=10.0 ** rng.uniform(-2.0, 8.0), weights=np.full(u, 1.0 / u))
        mode_sets = rates.classify(gains, params.ptot)
        both = np.stack([mode_sets.g1, gains.g_su])
        want = (float(rates._inverse(both).max()), float(both.max()))
        bracket = solver.price_bracket(params, mode_sets)
        default = check_conditions(params, gains)
        given = check_conditions(params, gains, mode_sets=mode_sets, bracket=bracket)
        for report in (default, given):
            assert (report.max_inverse_gain, report.max_gain) == want
            assert (report.mu_lower, report.mu_upper) == bracket
        assert (default.threshold, default.margin) == (given.threshold, given.margin)
