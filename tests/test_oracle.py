"""Brute-force verifier behaviour, checked against closed forms."""

import math

import numpy as np
import pytest

from oracle import oracle_global_wsr, oracle_relay_gain, oracle_split_optimality, oracle_step2_optimum
from test_solver import SIX_TIED

from relayalloc import rates, solver
from relayalloc.channel import GainTable


def test_zero_power_is_zero():
    g = (1.0, [2.0], [3.0])
    assert oracle_relay_gain(g, 0.0) == 0.0


def test_input_validation():
    g = (1.0, [2.0], [3.0])
    with pytest.raises(ValueError):
        oracle_relay_gain(g, 1.0, grid=50)
    with pytest.raises(ValueError):
        oracle_relay_gain(g, -1.0)
    with pytest.raises(ValueError):
        oracle_split_optimality(g, 1.0, ())


def test_single_relay_balance_point():
    # no direct link: the best broadcast fraction sits where decoding and
    # forwarding constraints cross, g_ru / (g_sr + g_ru)
    g = (0.0, [4.0], [4.0])
    got = oracle_relay_gain(g, 1.0, grid=10_000)
    frac = 4.0 / (4.0 + 4.0)
    assert math.isclose(got, min(4.0 * frac, 4.0 * (1.0 - frac)), rel_tol=1e-3)
    assert math.isclose(got, 2.0, rel_tol=1e-3)


def test_matches_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        g = (float(rng.lognormal(0.0, 1.0)), rng.lognormal(0.0, 1.0, n), rng.lognormal(0.0, 1.0, n))
        p = float(rng.uniform(0.1, 10.0))
        table = GainTable(g_su=[[g[0]]], g_sr=[g[1]], g_ru=g[2].reshape(1, n, 1))
        want = rates.relay_aided_solution(table, [0], [0]).gain[0, 0] * p
        got = oracle_relay_gain(g, p, grid=10_000)
        assert math.isclose(got, want, rel_tol=1e-3)


def test_split_optimality_symmetry_and_singleton():
    g = (1.0, [2.0, 2.0], [3.0, 3.0])
    assert oracle_split_optimality(g, 5.0, (0, 1))
    assert oracle_split_optimality(g, 5.0, (1,))


def test_split_optimality_random_sets():
    rng = np.random.default_rng(12)
    for trial in range(3):
        n = int(rng.integers(2, 5))
        g = (float(rng.lognormal(0.0, 1.0)), rng.lognormal(0.0, 1.0, n), rng.lognormal(0.0, 1.0, n))
        subset = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()))
        assert oracle_split_optimality(g, float(rng.uniform(0.5, 8.0)), subset, seed=trial)


def _tiny_table(rng, k, u, n):
    return GainTable(
        g_su=rng.lognormal(0.0, 1.0, (k, u)),
        g_sr=rng.lognormal(0.0, 1.0, (k, n)),
        g_ru=rng.lognormal(0.0, 1.0, (k, n, u)),
    )


def test_global_single_cell_matches_direct_closed_form():
    # one subcarrier, one user, hopeless relays: best is direct at full power
    gains = GainTable(g_su=[[1.5]], g_sr=[[1e-9]], g_ru=[[[1e-9]]])
    params = solver.SolverParams(ptot=2.0, weights=[1.0])
    got = oracle_global_wsr(params, gains, power_grid=200)
    assert math.isclose(got, 2.0 * math.log1p(1.5 * 2.0 / 2.0), rel_tol=1e-9)


def test_global_monotone_in_budget():
    rng = np.random.default_rng(13)
    gains = _tiny_table(rng, 2, 2, 2)
    w = np.array([0.6, 0.4])
    lo = oracle_global_wsr(solver.SolverParams(ptot=2.0, weights=w), gains, power_grid=120)
    hi = oracle_global_wsr(solver.SolverParams(ptot=3.0, weights=w), gains, power_grid=120)
    assert hi >= lo


def test_global_rejects_large_instances():
    rng = np.random.default_rng(14)
    params = solver.SolverParams(ptot=1.0, weights=[0.5, 0.5])
    with pytest.raises(ValueError):
        oracle_global_wsr(params, _tiny_table(rng, 4, 2, 1))
    with pytest.raises(ValueError):
        oracle_global_wsr(
            solver.SolverParams(ptot=1.0, weights=[1 / 3] * 3), _tiny_table(rng, 2, 3, 1)
        )
    with pytest.raises(ValueError):
        oracle_global_wsr(params, _tiny_table(rng, 2, 1, 1))  # weights mismatch
    with pytest.raises(ValueError):
        oracle_global_wsr(params, _tiny_table(rng, 2, 2, 1), power_grid=1)


def test_global_close_to_solver_on_random_instance():
    rng = np.random.default_rng(15)
    gains = _tiny_table(rng, 2, 2, 2)
    params = solver.SolverParams(ptot=4.0, weights=[0.5, 0.5])
    alloc = solver.solve(params, gains)
    orc = oracle_global_wsr(params, gains, power_grid=200)
    assert alloc.wsr >= orc - 1e-3 * orc


def test_step2_optimum_of_one_subcarrier_is_its_better_mode():
    # one subcarrier and one destination: the whole budget goes to the
    # better of relay aided, w ln(1 + g1 P), and direct, 2 w ln(1 + g_su P / 2)
    gains = GainTable(g_su=[[1.5]], g_sr=[[4.0]], g_ru=[[[3.0]]])
    g1 = rates.effective_gain_table(gains.g_su, gains.g_sr, gains.g_ru)[0, 0]
    for ptot in (0.1, 1.0, 100.0):
        want = 0.7 * max(math.log1p(g1 * ptot), 2.0 * math.log1p(1.5 * ptot / 2.0))
        got = oracle_step2_optimum(solver.SolverParams(ptot=ptot, weights=[0.7]), gains)
        assert math.isclose(got, want, rel_tol=1e-14)
    with pytest.raises(ValueError):
        oracle_step2_optimum(solver.SolverParams(ptot=1.0, weights=[1.0, 1.0]), _tiny_table(np.random.default_rng(0), 7, 2, 1))


def _flat_table(rng, k, u, n):
    """One tap: every subcarrier has the same gains, so every price gives them one choice."""
    row = _tiny_table(rng, 1, u, n)
    return GainTable(g_su=np.tile(row.g_su, (k, 1)), g_sr=np.tile(row.g_sr, (k, 1)), g_ru=np.tile(row.g_ru, (k, 1, 1)))


def _shortfall(params, gains, alloc) -> float:
    """Relative shortfall of ``alloc``'s WSR below the enumerated optimum, which it never exceeds."""
    best = oracle_step2_optimum(params, gains)
    assert alloc.wsr <= best * (1.0 + 1e-12)
    return (best - alloc.wsr) / best


def test_solve_reaches_the_enumerated_optimum():
    # a certified solve is the optimum of step 2, and no solve beats it;
    # SIX_TIED collapses at 10 W
    rng = np.random.default_rng(41)
    cases = [(SIX_TIED, np.ones(2), 10.0)]
    for k, u in [(5, 3), (6, 2), (4, 2), (3, 3), (9, 1)] * 3:
        cases.append((_tiny_table(rng, k, u, 2), rng.uniform(0.2, 1.0, u), float(np.exp(rng.uniform(-2.3, 4.6)))))
    for gains, weights, ptot in cases:
        params = solver.SolverParams(ptot=ptot, weights=weights)
        alloc = solver.solve(params, gains)
        shortfall = _shortfall(params, gains, alloc)
        if alloc.status == solver.STATUS_KKT:
            assert abs(shortfall) <= 1e-12


def test_flat_collapses_stay_at_most_the_enumerated_optimum():
    # a one-tap table that collapses has every subcarrier tied (t = K, 2 to
    # 4 here): the repair mixes the two edge choices over all of them. On
    # these 11 collapses it reaches the optimum up to rounding.
    rng = np.random.default_rng(5)
    collapses = 0
    for _ in range(30):
        k = int(rng.integers(2, 6))
        gains = _flat_table(rng, k, int(rng.integers(1, 4 if k <= 4 else 3)), 2)
        for ptot in np.geomspace(0.01, 100.0, 13):
            params = solver.SolverParams(ptot=float(ptot), weights=np.ones(gains.num_destinations))
            alloc = solver.solve(params, gains)
            if alloc.status == solver.STATUS_GAP:
                collapses += 1
                assert _shortfall(params, gains, alloc) <= 1e-12
    assert collapses >= 5
