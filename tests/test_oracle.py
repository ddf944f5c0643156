"""Brute-force verifier behaviour, checked against closed forms."""

import math

import numpy as np
import pytest

from oracle import oracle_global_wsr, oracle_relay_gain, oracle_split_optimality
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
