"""Closed-form rate machinery: mode rates, effective gains, classification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relayalloc import rates
from relayalloc.channel import GainTable
from relayalloc.rates import (
    MODE_DIRECT,
    MODE_RELAY,
    classify,
    effective_gain_table,
    relay_aided_solution,
    relay_closed_form,
)
from relayalloc.solver import _rates


def pair_solution(g_su, g_sr, g_ru):
    """The closed form of one (subcarrier, destination) pair: row 0 of
    ``relay_aided_solution`` on its gain table, and its relay set and relay
    power fractions."""
    table = GainTable(g_su=[[g_su]], g_sr=[g_sr], g_ru=np.reshape(g_ru, (1, -1, 1)))
    cf = relay_aided_solution(table, [0], [0])
    [(relay_set, fractions)] = cf.relay_splits([1.0])
    return cf, relay_set, fractions


def effective_gain(g_su, g_sr, g_ru) -> float:
    return float(pair_solution(g_su, g_sr, g_ru)[0].gain[0, 0])


def direct_rate(g_su: float, power: float) -> float:
    """The solver's two slot rate of a direct subcarrier: its power spread over c = 2 slots."""
    return float(_rates(np.array([g_su]), np.array([power]), 2.0)[0])


def relay_rate(gain: float, power: float) -> float:
    """The solver's two slot rate of a relay aided subcarrier of effective gain ``gain`` (c = 1)."""
    return float(_rates(np.array([gain]), np.array([power]), 1.0)[0])


def in_direct_set(ms):
    """Pairs where only direct mode is admissible: relay aided mode can never win."""
    return ~ms.admissible[0]


def in_relay_set(ms):
    """Pairs where only relay aided mode is admissible: it wins for every feasible power."""
    return ~ms.admissible[1]


def random_pair(rng, n=None):
    n = int(rng.integers(1, 5)) if n is None else n
    return float(rng.lognormal(0.0, 1.0)), rng.lognormal(0.0, 1.0, n), rng.lognormal(0.0, 1.0, n)


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


# ----------------------------------------------------------- relay aided mode

def test_source_dominates_case():
    cf, relay_set, _ = pair_solution(10.0, [5.0], [1.0])
    assert _scalar_closed_form(10.0, np.array([5.0]), np.array([1.0]))[1] == SOURCE_DOMINATES
    assert cf.z[0, 0] == -1
    assert cf.gain[0, 0] == 5.0
    assert relay_set == (0,)
    assert cf.source_fraction[0, 0] == 1.0


def test_beamform_case_single_relay():
    # zero direct link: the bottleneck balance gives half the gain
    cf, relay_set, fractions = pair_solution(0.0, [4.0], [4.0])
    assert _scalar_closed_form(0.0, np.array([4.0]), np.array([4.0]))[1] == BEAMFORM
    assert math.isclose(cf.gain[0, 0], 2.0, rel_tol=1e-12)
    assert math.isclose(cf.source_fraction[0, 0], 0.5, rel_tol=1e-12)
    assert relay_set == (0,)
    assert cf.z[0, 0] == 0
    np.testing.assert_allclose(fractions, [1.0])


def test_relay_sum_weak_case():
    # decodable relays exist but their second hop sum is below the direct link
    cf, relay_set, _ = pair_solution(1.0, [2.0, 3.0], [0.4, 0.5])
    assert _scalar_closed_form(1.0, np.array([2.0, 3.0]), np.array([0.4, 0.5]))[1] == RELAY_SUM_WEAK
    assert cf.z[0, 0] == -1
    assert cf.gain[0, 0] == 1.0
    assert cf.source_fraction[0, 0] == 1.0
    assert len(relay_set) == 1


def test_effective_gain_independent_of_power():
    # the gain table is the same at every budget, and the relay split of a
    # pair only scales with the power it shares
    rng = np.random.default_rng(3)
    for _ in range(20):
        g_su, g_sr, g_ru = random_pair(rng)
        t = _table([[g_su]], [g_sr], g_ru.reshape(1, -1, 1))
        np.testing.assert_array_equal(classify(t, 0.5).g1, classify(t, 50.0).g1)
        (set_a, powers_a), (set_b, powers_b) = relay_aided_solution(t, [0, 0], [0, 0]).relay_splits([0.5, 50.0])
        assert set_a == set_b
        np.testing.assert_allclose(powers_b, 100.0 * powers_a, rtol=1e-12)


def test_beamform_invariants():
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(300):
        g_su, g_sr, g_ru = random_pair(rng)
        cf, relay_set, fractions = pair_solution(g_su, g_sr, g_ru)
        order = cf.order[0].tolist()
        _, case, xyz, *_ = _scalar_closed_form(g_su, g_sr, g_ru)
        z = int(cf.z[0, 0])
        assert (z >= 0) == (case == BEAMFORM)
        if case != BEAMFORM:
            continue
        hits += 1
        x, y, _ = xyz
        assert cf.gain[0, 0] > g_su
        assert x <= z <= y
        # the chosen set is a suffix of the sorted order
        assert list(relay_set) == order[z:]
        assert math.isclose(float(fractions.sum()), 1.0, rel_tol=1e-12)
        np.testing.assert_allclose(
            fractions * g_ru[list(relay_set)].sum(),
            g_ru[list(relay_set)],
            rtol=1e-12,
        )
        assert 0.0 < cf.source_fraction[0, 0] <= 1.0
    assert hits > 20


def test_multiple_relays_never_hurt():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g_su, g_sr, g_ru = random_pair(rng)
        full = effective_gain(g_su, g_sr, g_ru)
        singles = [effective_gain(g_su, g_sr[i : i + 1], g_ru[i : i + 1]) for i in range(g_sr.size)]
        assert full >= max(singles) - 1e-12


def test_zero_gains_degenerate():
    assert effective_gain(0.0, [0.0, 0.0], [0.0, 0.0]) == 0.0
    assert relay_rate(effective_gain(0.0, [0.0], [0.0]), 3.0) == 0.0


def test_relay_rate_composition():
    g1 = effective_gain(0.0, [4.0], [4.0])
    assert math.isclose(relay_rate(g1, 1.0), math.log(3.0), rel_tol=1e-12)
    assert relay_rate(g1, 0.0) == 0.0
    assert relay_rate(g1, 2.0) > relay_rate(g1, 1.0)


# -------------------------------------------------------------- mode switching

def _table(g_su, g_sr, g_ru):
    return GainTable(g_su=np.asarray(g_su, float), g_sr=np.asarray(g_sr, float),
                     g_ru=np.asarray(g_ru, float))


def test_crossover_value():
    # effective gain 4*3/(3+4-1) = 2 against direct gain 1: 4 (2 - 1) / 1 = 4 W
    ms = classify(_table([[1.0]], [[4.0]], [[[3.0]]]), 1.0)
    assert ms.g1[0, 0] == 2.0
    assert math.isclose(ms.crossover[0, 0], 4.0, rel_tol=1e-12)


def test_crossover_none_cases():
    # NaN where relay aided mode never wins (g1 == g_su, g1 < g_su), +inf
    # where it always wins (g_su == 0)
    ms = classify(_table([[2.0, 5.0, 0.0]], [[4.0]], [[[2.0, 1.0, 1.0]]]), 1.0)
    assert ms.g1[0].tolist() == [2.0, 4.0, 0.8]
    assert np.isnan(ms.crossover[0, :2]).all()
    assert ms.crossover[0, 2] == math.inf


def test_rates_tie_at_crossover():
    # ln(1 + 2*4) == 2 ln(1 + 4/2) exactly
    assert math.isclose(math.log(9.0), 2.0 * math.log(3.0), rel_tol=1e-15)
    g1 = effective_gain(0.0, [4.0], [4.0])  # effective gain 2
    assert math.isclose(relay_rate(g1, 4.0), direct_rate(1.0, 4.0), rel_tol=1e-12)


def test_classify_direct_only():
    # relay links hopeless everywhere: every pair is direct-only
    t = _table([[1.0, 2.0]], [[0.01]], [[[0.01, 0.01]]])
    ms = classify(t, 5.0)
    assert in_direct_set(ms)[0].tolist() == [True, True]
    assert not in_relay_set(ms).any()
    assert np.all(np.isnan(ms.crossover))


def test_classify_threshold_sides():
    # effective gain 2 vs direct gain 1: crossover at 4 watts
    t = _table([[1.0]], [[4.0]], [[[3.0]]])
    low = classify(t, 3.0)
    assert math.isclose(low.g1[0, 0], 2.0, rel_tol=1e-12)
    assert in_relay_set(low)[0, 0]
    at = classify(t, 4.0)  # boundary equality stays relay
    assert in_relay_set(at)[0, 0]
    high = classify(t, 5.0)
    assert not in_relay_set(high)[0, 0]
    assert not in_direct_set(high)[0, 0]


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
        assert not np.any(in_direct_set(ms) & in_relay_set(ms))
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
                want = effective_gain(float(g_su[kk, uu]), g_sr[kk], g_ru[kk, :, uu])
                assert math.isclose(table[kk, uu], want, rel_tol=1e-12)


# which branch of the closed form gives a pair's effective gain
SOURCE_DOMINATES = "source_dominates"  # direct link beats every relay's source link
RELAY_SUM_WEAK = "relay_sum_weak"      # decodable relays too weak on the second hop
BEAMFORM = "beamform"                  # a suffix of relays beamforms with the source


def _scalar_closed_form(g_su, g_sr, g_ru):
    """The relay aided closed form of one pair, written out case by case.

    Returns (gain, case, (x, y, z) or None, relay_set, source_fraction,
    relay_fractions): x is the first sorted relay whose source link beats the
    direct link, y the last suffix whose second hop sum still beats it, and z
    the maximizing suffix start between them.
    """
    order = np.argsort(g_sr, kind="stable")
    gs, gr = g_sr[order], g_ru[order]
    t = np.cumsum(gr[::-1])[::-1]
    best = (int(np.argmax(g_sr)),)
    if g_su >= gs[-1]:
        return float(gs[-1]), SOURCE_DOMINATES, None, best, 1.0, np.array([1.0])
    x = int(np.searchsorted(gs, g_su, side="right"))
    if t[x] <= g_su:
        return g_su, RELAY_SUM_WEAK, None, best, 1.0, np.array([1.0])
    y = int(np.max(np.nonzero(t > g_su)[0]))
    cand = gs[x:y + 1] * t[x:y + 1] / (t[x:y + 1] + gs[x:y + 1] - g_su)
    z = x + int(np.argmax(cand))
    psi = float(t[z] / (t[z] + gs[z] - g_su))
    return float(cand[z - x]), BEAMFORM, (x, y, z), tuple(int(i) for i in order[z:]), psi, gr[z:] / t[z]


def _assert_case(case, xyz, gain, z, g_su, g_sr):
    """The oracle's case, read from the batched fields: z >= 0 exactly in the
    beamform case, between the oracle's own x and y; otherwise the gain is
    the best source link gain or the direct link's."""
    if case == BEAMFORM:
        x, y, want = xyz
        assert x <= z == want <= y
    else:
        assert z == -1
        assert gain == (np.max(g_sr) if case == SOURCE_DOMINATES else g_su)


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
@example(_one(1e-320, [1e-321, 2.0], [1e3, 5e-320]))  # subnormal suffix sum at z
@example(_one(0.0, [2.0, 2.0], [0.0, 2.0]))           # both suffix starts score 1.0: z = 0
@pytest.mark.filterwarnings("error")
def test_batched_closed_form_matches_per_pair(batch):
    g_su, g_sr, g_ru = batch
    m, n, u = g_ru.shape
    cf = relay_closed_form(g_su, g_sr, g_ru)
    splits = cf.relay_splits(np.ones(m * u))
    np.testing.assert_array_equal(effective_gain_table(g_su, g_sr, g_ru), cf.gain)
    # the same pairs picked out of a gain table, one row each
    k, d = np.divmod(np.arange(m * u), u)
    picked = relay_aided_solution(_table(g_su, g_sr, g_ru), k, d)
    picked_splits = picked.relay_splits(np.ones(m * u))
    for i in range(m):
        for j in range(u):
            row = i * u + j
            gain, case, xyz, relay_set, psi, fractions = _scalar_closed_form(g_su[i, j], g_sr[i], g_ru[i, :, j])
            assert cf.gain[i, j] == picked.gain[row, 0] == gain
            for got, z in (cf.gain[i, j], cf.z[i, j]), (picked.gain[row, 0], picked.z[row, 0]):
                _assert_case(case, xyz, got, int(z), g_su[i, j], g_sr[i])
            assert cf.source_fraction[i, j] == picked.source_fraction[row, 0] == psi
            assert splits[row][0] == picked_splits[row][0] == relay_set
            np.testing.assert_array_equal(splits[row][1], fractions)
            np.testing.assert_array_equal(picked_splits[row][1], fractions)


@pytest.mark.parametrize("draw", ["lognormal", "tie_rich"])
@pytest.mark.filterwarnings("error")
def test_closed_form_matches_per_pair_with_eight_relays(draw):
    # _batches draws at most four relays; eight take the loop over sorted
    # positions past that, on (K=64, U=8) slices
    rng = np.random.default_rng(16)
    shapes = (64, 8), (64, 8), (64, 8, 8)
    if draw == "lognormal":
        g_su, g_sr, g_ru = (rng.lognormal(0.0, 1.5, s) for s in shapes)
    else:
        g_su, g_sr, g_ru = (rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], s) for s in shapes)
    cf = relay_closed_form(g_su, g_sr, g_ru)
    splits = cf.relay_splits(np.ones(cf.gain.size))
    cases = set()
    assert cf.z.max() >= 4
    np.testing.assert_array_equal(cf.order, np.argsort(g_sr, axis=1, kind="stable"))
    np.testing.assert_array_equal(cf.best, np.argmax(g_sr, axis=1))
    for i in range(64):
        for j in range(8):
            gain, case, xyz, relay_set, psi, fractions = _scalar_closed_form(g_su[i, j], g_sr[i], g_ru[i, :, j])
            assert cf.gain[i, j] == gain
            _assert_case(case, xyz, cf.gain[i, j], int(cf.z[i, j]), g_su[i, j], g_sr[i])
            cases.add(case)
            assert cf.source_fraction[i, j] == psi
            assert splits[i * 8 + j][0] == relay_set
            np.testing.assert_array_equal(splits[i * 8 + j][1], fractions)
    assert cases == {SOURCE_DOMINATES, RELAY_SUM_WEAK, BEAMFORM}


def test_rate_concavity_in_power():
    rng = np.random.default_rng(8)
    for _ in range(50):
        g1 = effective_gain(*random_pair(rng))
        p1, p2 = rng.uniform(0.0, 20.0, 2)
        lam = float(rng.uniform(0.0, 1.0))
        mix = lam * p1 + (1.0 - lam) * p2
        assert relay_rate(g1, mix) >= lam * relay_rate(g1, p1) + (1 - lam) * relay_rate(g1, p2) - 1e-12
        gd = float(rng.lognormal(0.0, 1.0))
        assert direct_rate(gd, mix) >= lam * direct_rate(gd, p1) + (1 - lam) * direct_rate(gd, p2) - 1e-12


@pytest.mark.parametrize("k", [-200, 0, 200, 600, 1000])
@pytest.mark.filterwarnings("error")
def test_closed_form_scales_exactly(k):
    # scaling every gain by 2**k scales the effective gain by exactly 2**k
    # and leaves the relay choice and the power split as they are, also past
    # 2**500, where a product of two gains could overflow
    rng = np.random.default_rng(17)
    g_su, g_sr, g_ru = (rng.lognormal(0.0, 1.0, s) for s in ((64, 8), (64, 4), (64, 4, 8)))
    base = relay_closed_form(g_su, g_sr, g_ru)
    scaled = relay_closed_form(*(np.ldexp(a, k) for a in (g_su, g_sr, g_ru)))
    np.testing.assert_array_equal(scaled.gain, np.ldexp(base.gain, k))
    for name in ("z", "source_fraction", "order", "best"):
        np.testing.assert_array_equal(getattr(scaled, name), getattr(base, name))
    for (set_a, powers_a), (set_b, powers_b) in zip(base.relay_splits(np.ones(512)), scaled.relay_splits(np.ones(512))):
        assert set_a == set_b
        np.testing.assert_array_equal(powers_a, powers_b)
