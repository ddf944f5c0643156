"""Acceptance suite: ten go/no-go checks with pinned tolerances.

Every test prints one PASS/FAIL line (visible under ``pytest -s`` and in the
captured output of failures). Monte-Carlo populations are module-scoped
fixtures shared across criteria so the whole suite stays under a minute.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from oracle import oracle_global_wsr, oracle_relay_gain, oracle_split_optimality
from relayalloc import channel, rates, solver, reference
from relayalloc.cli import realization_seeds
from relayalloc.reference import waterfill
from relayalloc.solver import STATUS_KKT, SolverParams, solve, solve_at_price

MASTER_SEED = 20260818
NOISE_WATTS = 1e-3  # -30 dBW
BENCH_RELAYS = ((-15.0, -5.0), (-5.0, -5.0), (5.0, -5.0), (15.0, -5.0))
BENCH_REGION = channel.Region(x_min=-10.0, x_max=10.0, y_min=-30.0, y_max=-10.0)
# destinations far enough out that uniform power allocation leaves the mean
# subcarrier SNR a few dB below zero: the low power operating regime
LOW_SNR_REGION = channel.Region(x_min=-10.0, x_max=10.0, y_min=-50.0, y_max=-30.0)


def time_shared_relay_rate(share: float, energy: float, g1: float) -> float:
    """Perspective form ``share * ln(1 + g1 * energy / share)``.

    Jointly concave in (share, energy) on share >= 0; continuous extension
    at share = 0. It is the rate of a relay aided candidate that holds a
    ``share`` of the frame in the time-sharing relaxation.
    """
    if share < 0.0 or energy < 0.0 or g1 < 0.0:
        raise ValueError("share, energy and g1 must be nonnegative")
    if share == 0.0:
        return 0.0
    return share * math.log1p(g1 * energy / share)


def time_shared_direct_rate(share: float, energy: float, g_su: float) -> float:
    """Perspective form ``2 share * ln(1 + g_su * energy / (2 share))``."""
    if share < 0.0 or energy < 0.0 or g_su < 0.0:
        raise ValueError("share, energy and g_su must be nonnegative")
    if share == 0.0:
        return 0.0
    return 2.0 * share * math.log1p(g_su * energy / (2.0 * share))


def _pair_table(g_su, g_sr, g_ru) -> channel.GainTable:
    """The gain table of one subcarrier, one destination and N relays."""
    return channel.GainTable(g_su=[[g_su]], g_sr=[g_sr], g_ru=np.reshape(g_ru, (1, -1, 1)))


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL")
        raise
    print(f"[{label}] PASS")


def _synthesize(region, relays, num_subcarriers, num_destinations, master, index):
    placement_seed, channel_seed = realization_seeds(master, index)
    dest = channel.place_destinations(region, num_destinations, placement_seed)
    topo = channel.Topology(source_xy=(0.0, 0.0), relay_xy=relays, dest_xy=dest)
    real = channel.synthesize_realization(
        topo, channel.TapProfile.exponential(), num_subcarriers, channel_seed
    )
    return channel.to_gains(real, NOISE_WATTS)


def _population(region, realizations=100):
    """Joint and baseline solves at 35 and 60 dBW on synthesized channels."""
    out = {}
    for dbw in (35.0, 60.0):
        ptot = 10.0 ** (dbw / 10.0)
        rows = []
        for i in range(realizations):
            gains = _synthesize(region, BENCH_RELAYS, 64, 8, MASTER_SEED, i)
            params = SolverParams(ptot=ptot, weights=np.full(8, 0.125))
            mode_sets = rates.classify(gains, ptot)
            alloc = solve(params, gains, mode_sets)
            ref = reference.solve_reference(gains, ptot, weights=params.weights,
                                            g1_table=mode_sets.g1)
            rows.append({"gains": gains, "params": params, "alloc": alloc, "ref_wsr": ref.wsr})
        out[dbw] = rows
    return out


@pytest.fixture(scope="module")
def bench_population():
    return _population(BENCH_REGION)


@pytest.fixture(scope="module")
def low_snr_population():
    return _population(LOW_SNR_REGION)


@pytest.fixture(scope="module")
def desk_instances():
    """Small random instances solved both exactly and by exhaustive search."""
    rng = np.random.default_rng(1001)
    rows = []
    for _ in range(50):
        kk = int(rng.integers(1, 4))
        uu = int(rng.integers(1, 3))
        nn = int(rng.integers(1, 3))
        gains = channel.GainTable(
            g_su=rng.lognormal(0.0, 1.0, (kk, uu)),
            g_sr=rng.lognormal(0.0, 1.0, (kk, nn)),
            g_ru=rng.lognormal(0.0, 1.0, (kk, nn, uu)),
        )
        w = rng.uniform(0.2, 1.0, uu)
        params = SolverParams(ptot=float(rng.uniform(0.5, 8.0)), weights=w / w.sum())
        alloc = solve(params, gains)
        orc = oracle_global_wsr(params, gains, power_grid=200)
        rows.append({"gains": gains, "params": params, "alloc": alloc, "oracle": orc})
    return rows


def _assert_integral(alloc, gains):
    """Exactly one destination/mode pair carries each subcarrier."""
    assert sorted(a.k for a in alloc.assignments) == list(range(gains.num_subcarriers))
    for a in alloc.assignments:
        assert a.mode in (rates.MODE_DIRECT, rates.MODE_RELAY)
        assert 0 <= a.u < gains.num_destinations


def test_criterion_01_relay_gain_oracle_equivalence():
    with verdict("criterion 01: closed-form relay gain matches brute force"):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            g = (float(rng.lognormal(0.0, 1.0)), rng.lognormal(0.0, 1.0, n), rng.lognormal(0.0, 1.0, n))
            p = float(rng.uniform(0.1, 10.0))
            cf = rates.relay_aided_solution(_pair_table(*g), [0], [0])
            relay_set = np.flatnonzero(cf.split([p])[1][0]).tolist()
            want = oracle_relay_gain(g, p, grid=10_000)
            assert math.isclose(cf.gain[0, 0] * p, want, rel_tol=1e-3)
            # a suffix of the source link order, or the best relay alone
            order = cf.order[0].tolist()
            start = min(map(order.index, relay_set))
            assert set(relay_set) == set(order[start:]) or len(relay_set) == 1


def test_criterion_02_relay_split_optimality():
    with verdict("criterion 02: proportional relay power split is unbeaten"):
        rng = np.random.default_rng(102)
        for trial in range(1000):
            n = int(rng.integers(1, 5))
            g = (float(rng.lognormal(0.0, 1.0)), rng.lognormal(0.0, 1.0, n), rng.lognormal(0.0, 1.0, n))
            p = float(rng.uniform(0.1, 10.0))
            if trial % 2 == 0:
                subset = tuple(np.flatnonzero(rates.relay_aided_solution(_pair_table(*g), [0], [0]).split([p])[1][0]))
            else:
                size = int(rng.integers(1, n + 1))
                subset = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            assert oracle_split_optimality(g, p, subset, trials=40, seed=trial)


def test_criterion_03_mode_crossover_power():
    from scipy.optimize import brentq

    with verdict("criterion 03: crossover power matches the numeric root"):
        rng = np.random.default_rng(103)
        # 100 single-relay pairs whose relay links both beat the direct one,
        # so the relay aided gain g1 = g_sr g_ru / (g_sr + g_ru - g_su) wins
        su = rng.lognormal(0.0, 0.7, (100, 1))
        sr = su * (1.0 + rng.uniform(0.05, 8.0, (100, 1)))
        ru = su * (1.0 + rng.uniform(0.05, 8.0, (100, 1)))
        ms = rates.classify(channel.GainTable(g_su=su, g_sr=sr, g_ru=ru[:, :, None]), 1.0)
        assert np.all(ms.g1 > su)
        crossover_power = rates._crossover(ms.g1, su)
        for g_su, g1, crossover in zip(su[:, 0].tolist(), ms.g1[:, 0].tolist(), crossover_power[:, 0].tolist()):

            def gap(p):
                return math.log1p(g1 * p) - 2.0 * math.log1p(g_su * p / 2.0)

            a = 1e-12 / g_su
            b = 1.0 / g_su
            for _ in range(200):
                if gap(b) < 0.0:
                    break
                b *= 2.0
            root = brentq(gap, a, b, xtol=1e-300, rtol=1e-13)
            assert math.isclose(root, crossover, rel_tol=1e-6)


def test_criterion_04_global_optimality_small_instances(desk_instances):
    with verdict("criterion 04: dual solver reaches the exhaustive optimum"):
        for row in desk_instances:
            assert row["alloc"].wsr >= row["oracle"] - 1e-3 * row["oracle"]


def test_criterion_05_kkt_residual_window(desk_instances, bench_population):
    # the maximizer at mu_star is the returned assignment wherever power
    # flows, and that price spends the budget to within rounding
    with verdict("criterion 05: exact budget certificate on every converged solve"):
        checked = 0
        pools = [desk_instances]
        pools += [bench_population[dbw] for dbw in (35.0, 60.0)]
        for pool in pools:
            for row in pool:
                alloc, params, gains = row["alloc"], row["params"], row["gains"]
                if alloc.status != STATUS_KKT:
                    continue
                checked += 1
                assert alloc.mu_star > 0.0
                assert alloc.mu_lower - 1e-12 <= alloc.mu_star <= alloc.mu_upper + 1e-12
                state = solve_at_price(alloc.mu_star, params, rates.classify(gains, params.ptot))
                on = (state.power > 0.0) | (alloc.power > 0.0)
                assert np.array_equal(state.pick[on] // 2, alloc.dest[on])
                assert np.array_equal(state.pick[on] % 2 == 1, alloc.mode[on] == rates.MODE_DIRECT)
                assert abs(params.ptot - state.total_power) <= 1e-12 * params.ptot
        assert checked >= 100


def test_criterion_06_dominance_over_baseline(bench_population):
    with verdict("criterion 06: joint optimum never loses to the baseline"):
        for dbw in (35.0, 60.0):
            rows = bench_population[dbw]
            assert len(rows) == 100
            for row in rows:
                assert row["alloc"].wsr >= row["ref_wsr"] - 1e-9


def test_criterion_07_high_power_agreement():
    from relayalloc.highpower import check_conditions, solve_high_power

    # near destinations, distant relays: at 60 dBW the closed-form regime
    # conditions clear on most realizations with margin factor 100
    region = channel.Region(x_min=-5.0, x_max=5.0, y_min=-12.0, y_max=-8.0)
    relays = ((-20.0, -20.0), (-10.0, -25.0), (10.0, -25.0), (20.0, -20.0))
    ptot = 1e6  # 60 dBW
    with verdict("criterion 07: dual solver reproduces the high power closed form"):
        for weights in (np.full(4, 0.25), np.array([0.4, 0.2, 0.2, 0.2])):
            kept = 0
            for i in range(30):
                gains = _synthesize(region, relays, 16, 4, 424242, i)
                params = SolverParams(ptot=ptot, weights=weights)
                report = check_conditions(params, gains)
                if not report.conditions_met:
                    continue
                kept += 1
                fast = solve_high_power(params, gains, report=report)
                full = solve(params, gains)
                if np.all(weights == weights[0]):
                    want = np.argmax(gains.g_su, axis=1)
                else:
                    want = np.full(16, int(np.argmax(weights)))
                for a, b in zip(full.assignments, fast.assignments):
                    assert a.mode == rates.MODE_DIRECT == b.mode
                    assert a.u == want[a.k] == b.u
                    assert abs(a.sum_power - ptot / 16) <= 0.05 * (ptot / 16)
            assert kept >= 20


def test_criterion_08_regime_gap_trend(low_snr_population):
    with verdict("criterion 08: baseline gap small at low power, wide at high"):
        gap = {}
        wsr = {}
        for dbw in (35.0, 60.0):
            rows = low_snr_population[dbw]
            gap[dbw] = float(np.mean([r["alloc"].wsr - r["ref_wsr"] for r in rows]))
            wsr[dbw] = float(np.mean([r["alloc"].wsr for r in rows]))
        assert gap[60.0] > gap[35.0]
        assert gap[35.0] < 0.05 * wsr[35.0]


def test_criterion_09_concavity_and_integrality(desk_instances, bench_population):
    with verdict("criterion 09: rate concavity, perspective concavity, integrality"):
        rng = np.random.default_rng(109)
        # plain rate functions, concave in the sum power
        for _ in range(400):
            lam = float(rng.uniform(0.0, 1.0))
            p1, p2 = rng.uniform(0.0, 30.0, 2)
            mix = lam * p1 + (1.0 - lam) * p2
            g = float(rng.lognormal(0.0, 1.0))
            assert 2.0 * math.log1p(g * mix / 2.0) >= (
                lam * 2.0 * math.log1p(g * p1 / 2.0) + (1 - lam) * 2.0 * math.log1p(g * p2 / 2.0) - 1e-12
            )
            pair = (float(rng.lognormal(0.0, 1.0)), rng.lognormal(0.0, 1.0, 2), rng.lognormal(0.0, 1.0, 2))
            g1 = float(rates.relay_aided_solution(_pair_table(*pair), [0], [0]).gain[0, 0])
            assert math.log1p(g1 * mix) >= (
                lam * math.log1p(g1 * p1) + (1 - lam) * math.log1p(g1 * p2) - 1e-12
            )
        # perspective forms, jointly concave in (share, energy)
        for fn in (time_shared_relay_rate, time_shared_direct_rate):
            for _ in range(400):
                g = float(rng.lognormal(0.0, 1.0))
                t1, t2 = rng.uniform(0.0, 1.0, 2)
                e1, e2 = rng.uniform(0.0, 10.0, 2)
                lam = float(rng.uniform(0.0, 1.0))
                tm = lam * t1 + (1 - lam) * t2
                em = lam * e1 + (1 - lam) * e2
                assert fn(tm, em, g) >= lam * fn(t1, e1, g) + (1 - lam) * fn(t2, e2, g) - 1e-12
        # every solve in the shared pools returns one binary choice per subcarrier
        for row in desk_instances:
            _assert_integral(row["alloc"], row["gains"])
        for dbw in (35.0, 60.0):
            for row in bench_population[dbw]:
                _assert_integral(row["alloc"], row["gains"])


def test_criterion_10_waterfill_kkt():
    with verdict("criterion 10: water-filling satisfies its optimality conditions"):
        power, level = waterfill(np.array([1.0, 4.0]), 1.0)
        assert math.isclose(level, 1.125, rel_tol=1e-9)
        np.testing.assert_allclose(power, [0.125, 0.875], rtol=1e-9)
        rng = np.random.default_rng(110)
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            g = rng.lognormal(0.0, 1.5, n)
            g[rng.uniform(size=n) < 0.05] = 0.0
            if not np.any(g > 0.0):
                g[0] = 1.0
            ptot = float(rng.uniform(0.01, 100.0))
            power, level = waterfill(g, ptot)
            assert abs(power.sum() - ptot) <= 1e-10 * max(1.0, ptot)
            for gi, pi in zip(g, power):
                if pi > 0.0:
                    assert abs(level - 1.0 / gi - pi) <= 1e-10 * max(1.0, level)
                else:
                    assert gi == 0.0 or level <= 1.0 / gi + 1e-10 * max(1.0, 1.0 / gi)


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
