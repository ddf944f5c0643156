"""Baseline protocol: per-subcarrier gain selection plus water-filling."""

import math

import numpy as np
import pytest

from relayalloc import rates, solver
from relayalloc.channel import GainTable
from relayalloc.reference import select_per_subcarrier, solve_reference, waterfill


def _table(g_su, g_sr, g_ru):
    return GainTable(g_su=np.asarray(g_su, float), g_sr=np.asarray(g_sr, float),
                     g_ru=np.asarray(g_ru, float))


def _random_table(rng, k=4, u=3, n=2):
    return _table(
        rng.lognormal(0.0, 1.0, (k, u)),
        rng.lognormal(0.0, 1.0, (k, n)),
        rng.lognormal(0.0, 1.0, (k, n, u)),
    )


# ------------------------------------------------------------------ selection

def test_selection_takes_best_gain_user():
    t = _table([[1.0, 2.5]], [[0.01]], [[[0.01, 0.01]]])
    dest, mode, gain = select_per_subcarrier(t)
    assert dest[0] == 1 and mode[0] == rates.MODE_DIRECT
    assert math.isclose(gain[0], 2.5, rel_tol=1e-12)


def test_selection_relay_mode_needs_strict_advantage():
    # effective gain 2 vs direct 1: relay mode
    t = _table([[1.0]], [[4.0]], [[[3.0]]])
    _, mode, gain = select_per_subcarrier(t)
    assert mode[0] == rates.MODE_RELAY and math.isclose(gain[0], 2.0, rel_tol=1e-12)
    # hopeless relays: effective gain collapses to the direct gain, tie
    # means direct wins
    t2 = _table([[1.0]], [[2.0, 3.0]], [[[0.4], [0.5]]])
    _, mode2, gain2 = select_per_subcarrier(t2)
    assert mode2[0] == rates.MODE_DIRECT
    assert math.isclose(gain2[0], 1.0, rel_tol=1e-12)


def test_selection_rejects_unequal_weights():
    t = _table([[1.0, 2.0]], [[1.0]], [[[1.0, 1.0]]])
    with pytest.raises(ValueError):
        select_per_subcarrier(t, weights=np.array([0.7, 0.3]))
    # uniform weights pass through
    select_per_subcarrier(t, weights=np.array([0.5, 0.5]))


# --------------------------------------------------------------- water-filling

def test_waterfill_two_channel_example():
    power, level = waterfill(np.array([1.0, 4.0]), 1.0)
    assert math.isclose(level, 1.125, rel_tol=1e-9)
    np.testing.assert_allclose(power, [0.125, 0.875], rtol=1e-9)
    assert math.isclose(power.sum(), 1.0, rel_tol=1e-12)


def test_waterfill_symmetry():
    power, _ = waterfill(np.array([1.0, 1.0]), 2.0)
    np.testing.assert_allclose(power, [1.0, 1.0], rtol=1e-9)


def test_waterfill_starves_a_weak_channel():
    power, _ = waterfill(np.array([1e-6, 1.0]), 0.01)
    assert power[0] == 0.0
    assert math.isclose(power[1], 0.01, rel_tol=1e-12)


def test_waterfill_zero_gain_gets_nothing():
    power, _ = waterfill(np.array([0.0, 2.0, 1.0]), 3.0)
    assert power[0] == 0.0
    assert math.isclose(power.sum(), 3.0, rel_tol=1e-12)


def test_waterfill_input_validation():
    with pytest.raises(ValueError):
        waterfill(np.array([0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        waterfill(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        waterfill(np.array([-1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        waterfill(np.empty(0), 1.0)


def test_waterfill_kkt_on_random_vectors():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        g = rng.lognormal(0.0, 1.5, n)
        g[rng.uniform(size=n) < 0.1] = 0.0
        if not np.any(g > 0.0):
            g[0] = 1.0
        ptot = float(rng.uniform(0.01, 50.0))
        power, level = waterfill(g, ptot)
        assert math.isclose(power.sum(), ptot, rel_tol=1e-10)
        for gi, pi in zip(g, power):
            if pi > 0.0:
                assert abs(level - 1.0 / gi - pi) <= 1e-10 * max(1.0, level)
            else:
                assert gi == 0.0 or level <= 1.0 / gi + 1e-10 * max(1.0, 1.0 / gi)


# ------------------------------------------------------------------- protocol

def test_reference_dominated_instance():
    # one user has the best gain everywhere: it gets every subcarrier
    t = _table([[1.0, 5.0], [2.0, 6.0]], [[0.01], [0.01]],
               [[[0.01, 0.01]], [[0.01, 0.01]]])
    ref = solve_reference(t, 4.0)
    assert list(ref.dest) == [1, 1]


def test_reference_equal_gains_spread_uniformly():
    t = _table([[2.0], [2.0], [2.0]], np.full((3, 1), 0.01), np.full((3, 1, 1), 0.01))
    ref = solve_reference(t, 6.0)
    np.testing.assert_allclose(ref.power, [2.0, 2.0, 2.0], rtol=1e-9)


def test_reference_without_usable_links_spreads_the_budget():
    t = _table(np.zeros((4, 2)), np.zeros((4, 1)), np.zeros((4, 1, 2)))
    ref = solve_reference(t, 6.0, weights=np.array([0.5, 0.5]))
    assert ref.wsr == 0.0 and ref.water_level == math.inf
    np.testing.assert_array_equal(ref.power, np.full(4, 1.5))
    np.testing.assert_array_equal(ref.rates_per_subcarrier, np.zeros(4))


def test_reference_single_slot_direct_rate():
    # the baseline's direct mode only uses the broadcasting slot
    t = _table([[3.0]], [[0.01]], [[[0.01]]])
    ref = solve_reference(t, 2.0)
    assert math.isclose(ref.wsr, math.log1p(3.0 * 2.0), rel_tol=1e-9)
    assert ref.wsr < rates.direct_rate(3.0, 2.0)


def test_reference_weight_scaling():
    t = _table([[1.0, 2.0]], [[0.5]], [[[0.5, 0.5]]])
    plain = solve_reference(t, 3.0)
    halved = solve_reference(t, 3.0, weights=np.array([0.5, 0.5]))
    assert math.isclose(halved.wsr, 0.5 * plain.wsr, rel_tol=1e-12)


def test_reference_never_beats_the_joint_optimum():
    rng = np.random.default_rng(42)
    for _ in range(10):
        gains = _random_table(rng)
        ptot = float(rng.uniform(1.0, 30.0))
        w = np.full(gains.num_destinations, 1.0 / gains.num_destinations)
        params = solver.SolverParams(ptot=ptot, weights=w)
        alloc = solver.solve(params, gains)
        ref = solve_reference(gains, ptot, weights=w)
        assert alloc.wsr >= ref.wsr - 1e-9
