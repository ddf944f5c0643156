"""Baseline protocol: per-subcarrier gain selection plus water-filling."""

import math
from itertools import accumulate

import numpy as np
import pytest

from relayalloc import rates, solver
from relayalloc.channel import GainTable
from relayalloc.reference import solve_reference, waterfill


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
# one subcarrier spends the whole budget, so its single slot rate
# ln(1 + g ptot) at ptot = 1 W names the gain the selection kept

def test_selection_takes_best_gain_user():
    t = _table([[1.0, 2.5]], [[0.01]], [[[0.01, 0.01]]])
    ref = solve_reference(t, 1.0, weights=np.ones(2), g1_table=rates.classify(t, 1.0).g1)
    assert ref.dest[0] == 1 and ref.mode[0] == rates.MODE_DIRECT
    assert math.isclose(ref.rate[0], math.log1p(2.5), rel_tol=1e-12)


def test_selection_relay_mode_needs_strict_advantage():
    # effective gain 2 vs direct 1: relay mode
    t = _table([[1.0]], [[4.0]], [[[3.0]]])
    ref = solve_reference(t, 1.0, weights=np.ones(1), g1_table=rates.classify(t, 1.0).g1)
    assert ref.mode[0] == rates.MODE_RELAY and math.isclose(ref.rate[0], math.log1p(2.0), rel_tol=1e-12)
    # hopeless relays: effective gain collapses to the direct gain, tie
    # means direct wins
    t2 = _table([[1.0]], [[2.0, 3.0]], [[[0.4], [0.5]]])
    ref2 = solve_reference(t2, 1.0, weights=np.ones(1), g1_table=rates.classify(t2, 1.0).g1)
    assert ref2.mode[0] == rates.MODE_DIRECT
    assert math.isclose(ref2.rate[0], math.log1p(1.0), rel_tol=1e-12)


def test_selection_rejects_unequal_weights():
    t = _table([[1.0, 2.0]], [[1.0]], [[[1.0, 1.0]]])
    g1 = rates.classify(t, 1.0).g1
    with pytest.raises(ValueError, match="equal weights"):
        solve_reference(t, 1.0, weights=np.array([0.7, 0.3]), g1_table=g1)
    # uniform weights pass through
    solve_reference(t, 1.0, weights=np.array([0.5, 0.5]), g1_table=g1)


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


def test_waterfill_spends_a_budget_below_the_rounding_of_every_inverse_gain():
    # level - 1/g cancels to zero on every channel; the budget goes to the
    # strongest ones in equal parts, the exact small budget limit
    power, level = waterfill(np.array([1.0, 4.0, 0.0, 4.0]), 1e-300)
    np.testing.assert_array_equal(power, [0.0, 5e-301, 0.0, 5e-301])
    assert level == 0.25


def test_reference_spends_a_budget_below_the_rounding_of_every_inverse_gain():
    rng = np.random.default_rng(43)
    gains = _random_table(rng, k=8, u=3, n=2)
    w = np.full(3, 1.0 / 3.0)
    ref = solve_reference(gains, 1e-300, weights=w, g1_table=rates.classify(gains, 1e-300).g1)
    assert math.isclose(float(ref.power.sum()), 1e-300, rel_tol=1e-12)
    assert ref.residual <= 1e-9 * 1e-300
    assert ref.wsr > 0.0
    # the joint optimum spends it too, and no worse
    assert solver.solve(solver.SolverParams(ptot=1e-300, weights=w), gains).wsr >= ref.wsr


def test_waterfill_input_validation():
    # nothing to invert is no error: the budget is spread evenly at an
    # infinite level, the reference's price zero
    power, level = waterfill(np.array([0.0, 0.0]), 1.0)
    np.testing.assert_array_equal(power, [0.5, 0.5])
    assert level == math.inf
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
    ref = solve_reference(t, 4.0, weights=np.ones(2), g1_table=rates.classify(t, 4.0).g1)
    assert list(ref.dest) == [1, 1]


def test_reference_equal_gains_spread_uniformly():
    t = _table([[2.0], [2.0], [2.0]], np.full((3, 1), 0.01), np.full((3, 1, 1), 0.01))
    ref = solve_reference(t, 6.0, weights=np.ones(1), g1_table=rates.classify(t, 6.0).g1)
    np.testing.assert_allclose(ref.power, [2.0, 2.0, 2.0], rtol=1e-9)


def test_reference_without_usable_links_spreads_the_budget():
    t = _table(np.zeros((4, 2)), np.zeros((4, 1)), np.zeros((4, 1, 2)))
    ref = solve_reference(t, 6.0, weights=np.array([0.5, 0.5]), g1_table=rates.classify(t, 6.0).g1)
    # an infinite water level is price zero
    assert ref.wsr == 0.0 and ref.mu_star == 0.0
    np.testing.assert_array_equal(ref.power, np.full(4, 1.5))
    np.testing.assert_array_equal(ref.rate, np.zeros(4))


def test_reference_single_slot_direct_rate():
    # the baseline's direct mode only uses the broadcasting slot
    t = _table([[3.0]], [[0.01]], [[[0.01]]])
    ref = solve_reference(t, 2.0, weights=np.ones(1), g1_table=rates.classify(t, 2.0).g1)
    assert math.isclose(ref.wsr, math.log1p(3.0 * 2.0), rel_tol=1e-9)
    assert ref.wsr < 2.0 * math.log1p(3.0 * 2.0 / 2.0)  # the two slot direct rate


def test_reference_weight_scaling():
    t = _table([[1.0, 2.0]], [[0.5]], [[[0.5, 0.5]]])
    g1 = rates.classify(t, 3.0).g1
    plain = solve_reference(t, 3.0, weights=np.ones(2), g1_table=g1)
    halved = solve_reference(t, 3.0, weights=np.array([0.5, 0.5]), g1_table=g1)
    assert math.isclose(halved.wsr, 0.5 * plain.wsr, rel_tol=1e-12)


def test_reference_never_beats_the_joint_optimum():
    rng = np.random.default_rng(42)
    for _ in range(10):
        gains = _random_table(rng)
        ptot = float(rng.uniform(1.0, 30.0))
        w = np.full(gains.num_destinations, 1.0 / gains.num_destinations)
        params = solver.SolverParams(ptot=ptot, weights=w)
        alloc = solver.solve(params, gains)
        ref = solve_reference(gains, ptot, weights=w, g1_table=rates.classify(gains, ptot).g1)
        assert alloc.wsr >= ref.wsr - 1e-9


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
def test_reference_returns_an_allocation_record(seed):
    # seeded lognormal tables with 20% dead links, and the all-zero table
    # (seed None), at 0.1 W and 10 W
    if seed is None:
        gains = _table(np.zeros((5, 3)), np.zeros((5, 2)), np.zeros((5, 2, 3)))
    else:
        rng = np.random.default_rng(seed)
        gains = _random_table(rng, k=12, u=3, n=3)
        gains = _table(gains.g_su * (rng.random((12, 3)) >= 0.2), gains.g_sr, gains.g_ru)
    kk, uu = gains.g_su.shape
    w = np.full(uu, 1.0 / uu)
    g1 = rates.classify(gains, 1.0).g1
    for ptot in (0.1, 10.0):
        ref = solve_reference(gains, ptot, weights=w, g1_table=g1)
        assert isinstance(ref, solver.Allocation)
        assert ref.status == "waterfill"
        assert ref.iterations == 0
        assert ref.residual == max(ptot - float(ref.power.sum()), 0.0) <= 1e-9 * ptot
        # the price is the protocol's own: the common weight over its water level
        pick, gain = solver.max_gain_choice(np.stack((g1, gains.g_su)))
        dest, mode = pick // 2, np.where(pick % 2 == 0, rates.MODE_RELAY, rates.MODE_DIRECT)
        if np.any(gain > 0.0):
            power, level = waterfill(gain, ptot)
            assert ref.mu_star == w[0] / level > 0.0
        else:
            power = np.full(kk, ptot / kk)
            assert ref.mu_star == 0.0
        np.testing.assert_array_equal(ref.dest, dest)
        np.testing.assert_array_equal(ref.mode, mode)
        np.testing.assert_array_equal(ref.power, power)
        # the solver's own scoring: math.log1p per subcarrier, added left to right
        np.testing.assert_array_equal(ref.rate, [math.log1p(x) for x in (gain * power).tolist()])
        assert ref.wsr == list(accumulate(w[0] * ref.rate))[-1]
        # the rows repeat the arrays, and a direct row spends all its power
        # in the broadcasting slot
        assert len(ref.assignments) == kk
        for k, row in enumerate(ref.assignments):
            assert (row.k, row.u, row.mode, row.sum_power) == (k, ref.dest[k], ref.mode[k], ref.power[k])
            if row.mode == rates.MODE_DIRECT:
                assert (row.broadcast_power, row.relaying_power) == (row.sum_power, 0.0)
                assert row.relay_indices == ()
            else:
                parts = row.broadcast_power + float(np.sum(row.relay_powers))
                assert row.relaying_power == 0.0
                assert math.isclose(parts, row.sum_power, rel_tol=1e-12, abs_tol=1e-300)
