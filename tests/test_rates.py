"""Closed-form rate machinery: mode rates, effective gains, classification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relayalloc import rates
from relayalloc.channel import GainTable
from relayalloc.rates import (
    CASES,
    CASE_BEAMFORM,
    CASE_RELAY_SUM_WEAK,
    CASE_SOURCE_DOMINATES,
    MODE_DIRECT,
    MODE_RELAY,
    PerPairGains,
    classify,
    crossover_power,
    direct_rate,
    effective_gain_table,
    relay_aided_solution,
    relay_closed_form,
    relay_rate,
)


def random_pair(rng, n=None):
    n = int(rng.integers(1, 5)) if n is None else n
    return PerPairGains(
        g_su=float(rng.lognormal(0.0, 1.0)),
        g_sr=rng.lognormal(0.0, 1.0, n),
        g_ru=rng.lognormal(0.0, 1.0, n),
    )


# ---------------------------------------------------------------- direct mode

def test_direct_rate_zero_power():
    assert direct_rate(3.7, 0.0) == 0.0


def test_direct_rate_value():
    assert math.isclose(direct_rate(2.0, 2.0), 2.0 * math.log(3.0), rel_tol=1e-12)


def test_direct_equal_split_is_best():
    # equal per-slot split beats any unequal one for the same sum power
    g, p = 1.0, 4.0
    best = direct_rate(g, p)
    for frac in np.linspace(0.0, 1.0, 101):
        if abs(frac - 0.5) < 1e-9:
            continue
        split = math.log1p(g * p * frac) + math.log1p(g * p * (1.0 - frac))
        assert best >= split - 1e-12
    assert best > math.log(2.0) + math.log(4.0)


def test_direct_rate_rejects_negatives():
    with pytest.raises(ValueError):
        direct_rate(-1.0, 1.0)
    with pytest.raises(ValueError):
        direct_rate(1.0, -1.0)


# ----------------------------------------------------------- relay aided mode

def test_source_dominates_case():
    sol = relay_aided_solution(PerPairGains(10.0, [5.0], [1.0]), 2.0)
    assert sol.case_id == CASE_SOURCE_DOMINATES
    assert sol.effective_gain == 5.0
    assert sol.relay_set == (0,)
    assert sol.source_fraction == 1.0


def test_beamform_case_single_relay():
    # zero direct link: the bottleneck balance gives half the gain
    sol = relay_aided_solution(PerPairGains(0.0, [4.0], [4.0]), 1.0)
    assert sol.case_id == CASE_BEAMFORM
    assert math.isclose(sol.effective_gain, 2.0, rel_tol=1e-12)
    assert math.isclose(sol.source_fraction, 0.5, rel_tol=1e-12)
    assert sol.relay_set == (0,)
    assert sol.x_idx == sol.y_idx == sol.z_idx == 0
    np.testing.assert_allclose(sol.relay_fractions, [1.0])


def test_relay_sum_weak_case():
    # decodable relays exist but their second hop sum is below the direct link
    sol = relay_aided_solution(PerPairGains(1.0, [2.0, 3.0], [0.4, 0.5]), 1.0)
    assert sol.case_id == CASE_RELAY_SUM_WEAK
    assert sol.effective_gain == 1.0
    assert sol.source_fraction == 1.0
    assert len(sol.relay_set) == 1


def test_effective_gain_independent_of_power():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_pair(rng)
        a = relay_aided_solution(g, 0.5)
        b = relay_aided_solution(g, 50.0)
        assert a.effective_gain == b.effective_gain
        assert a.relay_set == b.relay_set


def test_beamform_invariants():
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(300):
        g = random_pair(rng)
        sol = relay_aided_solution(g, 1.0)
        order = [int(i) for i in sol.sorted_order]
        if sol.case_id != CASE_BEAMFORM:
            continue
        hits += 1
        assert sol.effective_gain > g.g_su
        assert sol.x_idx <= sol.z_idx <= sol.y_idx
        # the chosen set is a suffix of the sorted order
        assert list(sol.relay_set) == order[sol.z_idx:]
        assert math.isclose(float(sol.relay_fractions.sum()), 1.0, rel_tol=1e-12)
        np.testing.assert_allclose(
            sol.relay_fractions * g.g_ru[list(sol.relay_set)].sum(),
            g.g_ru[list(sol.relay_set)],
            rtol=1e-12,
        )
        assert 0.0 < sol.source_fraction <= 1.0
    assert hits > 20


def test_multiple_relays_never_hurt():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = random_pair(rng)
        full = relay_aided_solution(g, 1.0).effective_gain
        singles = [
            relay_aided_solution(
                PerPairGains(g.g_su, g.g_sr[i : i + 1], g.g_ru[i : i + 1]), 1.0
            ).effective_gain
            for i in range(g.num_relays)
        ]
        assert full >= max(singles) - 1e-12


def test_zero_gains_degenerate():
    sol = relay_aided_solution(PerPairGains(0.0, [0.0, 0.0], [0.0, 0.0]), 1.0)
    assert sol.effective_gain == 0.0
    assert relay_rate(PerPairGains(0.0, [0.0], [0.0]), 3.0) == 0.0


def test_relay_rate_composition():
    g = PerPairGains(0.0, [4.0], [4.0])
    assert math.isclose(relay_rate(g, 1.0), math.log(3.0), rel_tol=1e-12)
    assert relay_rate(g, 0.0) == 0.0
    assert relay_rate(g, 2.0) > relay_rate(g, 1.0)


def test_pair_validation():
    with pytest.raises(ValueError):
        PerPairGains(1.0, [], [])
    with pytest.raises(ValueError):
        PerPairGains(1.0, [1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        PerPairGains(-1.0, [1.0], [1.0])
    with pytest.raises(ValueError):
        PerPairGains(1.0, [np.inf], [1.0])
    with pytest.raises(ValueError):
        relay_aided_solution(PerPairGains(1.0, [1.0], [1.0]), -0.5)


# -------------------------------------------------------------- mode switching

def test_crossover_value():
    assert math.isclose(crossover_power(2.0, 1.0), 4.0, rel_tol=1e-12)


def test_crossover_none_cases():
    assert crossover_power(1.0, 1.0) is None
    assert crossover_power(0.5, 1.0) is None
    assert crossover_power(2.0, 0.0) is None
    with pytest.raises(ValueError):
        crossover_power(-1.0, 1.0)


def test_rates_tie_at_crossover():
    # ln(1 + 2*4) == 2 ln(1 + 4/2) exactly
    assert math.isclose(math.log(9.0), 2.0 * math.log(3.0), rel_tol=1e-15)
    g = PerPairGains(0.0, [4.0], [4.0])  # effective gain 2
    assert math.isclose(relay_rate(g, 4.0), direct_rate(1.0, 4.0), rel_tol=1e-12)


def _table(g_su, g_sr, g_ru):
    return GainTable(g_su=np.asarray(g_su, float), g_sr=np.asarray(g_sr, float),
                     g_ru=np.asarray(g_ru, float))


def test_classify_direct_only():
    # relay links hopeless everywhere: every pair is direct-only
    t = _table([[1.0, 2.0]], [[0.01]], [[[0.01, 0.01]]])
    ms = classify(t, 5.0)
    assert ms.direct_set(0) == (0, 1)
    assert ms.relay_set(0) == ()
    assert np.all(np.isnan(ms.crossover))


def test_classify_threshold_sides():
    # effective gain 2 vs direct gain 1: crossover at 4 watts
    t = _table([[1.0]], [[4.0]], [[[3.0]]])
    low = classify(t, 3.0)
    assert math.isclose(low.g1[0, 0], 2.0, rel_tol=1e-12)
    assert low.relay_set(0) == (0,)
    at = classify(t, 4.0)  # boundary equality stays relay
    assert at.relay_set(0) == (0,)
    high = classify(t, 5.0)
    assert high.relay_set(0) == ()
    assert high.direct_set(0) == ()


def test_classify_sets_disjoint():
    rng = np.random.default_rng(6)
    for _ in range(20):
        k, u, n = (int(rng.integers(1, 5)) for _ in range(3))
        t = _table(
            rng.lognormal(0.0, 1.0, (k, u)),
            rng.lognormal(0.0, 1.0, (k, n)),
            rng.lognormal(0.0, 1.0, (k, n, u)),
        )
        ms = classify(t, float(rng.uniform(0.5, 20.0)))
        assert not np.any(ms.in_direct_set & ms.in_relay_set)
    with pytest.raises(ValueError):
        classify(t, 0.0)


def test_effective_gain_table_matches_per_pair():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k, u, n = (int(rng.integers(1, 6)) for _ in range(3))
        g_su = rng.lognormal(0.0, 1.0, (k, u))
        g_sr = rng.lognormal(0.0, 1.0, (k, n))
        g_ru = rng.lognormal(0.0, 1.0, (k, n, u))
        table = effective_gain_table(g_su, g_sr, g_ru)
        for kk in range(k):
            for uu in range(u):
                sol = relay_aided_solution(
                    PerPairGains(float(g_su[kk, uu]), g_sr[kk], g_ru[kk, :, uu]), 1.0
                )
                assert math.isclose(table[kk, uu], sol.effective_gain, rel_tol=1e-12)


def _scalar_closed_form(g_su, g_sr, g_ru):
    """The relay aided closed form of one pair, written out case by case.

    Returns (gain, case, (x, y, z) or None, relay_set, source_fraction,
    relay_fractions).
    """
    order = np.argsort(g_sr, kind="stable")
    gs, gr = g_sr[order], g_ru[order]
    t = np.cumsum(gr[::-1])[::-1]
    best = (int(np.argmax(g_sr)),)
    if g_su >= gs[-1]:
        return float(gs[-1]), CASE_SOURCE_DOMINATES, None, best, 1.0, np.array([1.0])
    x = int(np.searchsorted(gs, g_su, side="right"))
    if t[x] <= g_su:
        return g_su, CASE_RELAY_SUM_WEAK, None, best, 1.0, np.array([1.0])
    y = int(np.max(np.nonzero(t > g_su)[0]))
    cand = gs[x:y + 1] * t[x:y + 1] / (t[x:y + 1] + gs[x:y + 1] - g_su)
    z = x + int(np.argmax(cand))
    psi = float(t[z] / (t[z] + gs[z] - g_su))
    return float(cand[z - x]), CASE_BEAMFORM, (x, y, z), tuple(int(i) for i in order[z:]), psi, gr[z:] / t[z]


# small values tie and hit zero often; wide ones reach every case
_GAIN = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
                  st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def _batches(draw):
    m, n, u = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def gains(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(_GAIN, min_size=size, max_size=size)), dtype=float).reshape(shape)

    return gains(m, u), gains(m, n), gains(m, n, u)


def _one(g_su, g_sr, g_ru):
    return np.array([[g_su]], float), np.array([g_sr], float), np.array(g_ru, float).reshape(1, -1, 1)


@settings(max_examples=300, deadline=None)
@given(_batches())
@example(_one(10.0, [5.0, 5.0], [1.0, 1.0]))             # source dominates, tied relays
@example(_one(1.0, [2.0, 3.0], [0.4, 0.5]))              # relay sum weak
@example(_one(0.0, [4.0, 4.0, 1.0], [4.0, 0.0, 2.0]))    # beamform with ties and zeros
@example((np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 3, 2))))
def test_batched_closed_form_matches_per_pair(batch):
    g_su, g_sr, g_ru = batch
    m, n, u = g_ru.shape
    cf = relay_closed_form(g_su, g_sr, g_ru)
    splits = cf.relay_splits(np.ones(m * u))
    np.testing.assert_array_equal(effective_gain_table(g_su, g_sr, g_ru), cf.gain)
    for i in range(m):
        for j in range(u):
            sol = relay_aided_solution(PerPairGains(float(g_su[i, j]), g_sr[i], g_ru[i, :, j]), 1.0)
            gain, case, xyz, relay_set, psi, fractions = _scalar_closed_form(g_su[i, j], g_sr[i], g_ru[i, :, j])
            assert cf.gain[i, j] == sol.effective_gain == gain
            assert CASES[cf.case[i, j]] == sol.case_id == case
            got_xyz = (int(cf.x[i, j]), int(cf.y[i, j]), int(cf.z[i, j]))
            assert got_xyz == (xyz or (-1, -1, -1))
            assert (sol.x_idx, sol.y_idx, sol.z_idx) == (xyz or (None, None, None))
            assert cf.source_fraction[i, j] == sol.source_fraction == psi
            assert splits[i * u + j][0] == sol.relay_set == relay_set
            np.testing.assert_array_equal(splits[i * u + j][1], fractions)
            np.testing.assert_array_equal(sol.relay_fractions, fractions)


def test_rate_concavity_in_power():
    rng = np.random.default_rng(8)
    for _ in range(50):
        g = random_pair(rng)
        p1, p2 = rng.uniform(0.0, 20.0, 2)
        lam = float(rng.uniform(0.0, 1.0))
        mix = lam * p1 + (1.0 - lam) * p2
        assert relay_rate(g, mix) >= lam * relay_rate(g, p1) + (1 - lam) * relay_rate(g, p2) - 1e-12
        gd = float(rng.lognormal(0.0, 1.0))
        assert direct_rate(gd, mix) >= lam * direct_rate(gd, p1) + (1 - lam) * direct_rate(gd, p2) - 1e-12
