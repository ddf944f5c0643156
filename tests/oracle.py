"""Brute force verifiers for the test suite, independent of the solver code paths.

Everything here recomputes results from first principles: relay subsets and
broadcast fractions are enumerated on grids, power is swept over a simplex
grid, and nothing is shared with the package beyond its plain data
containers, ``GainTable`` and ``SolverParams``. A (subcarrier, destination)
pair is the tuple ``(g_su, g_sr, g_ru)``: its direct gain and its N source to
relay and relay to destination gains. Orders of magnitude slower than the
solvers by design; only meant for tiny instances.

The one exception is the full-table price scorer. It takes the (2, K, U)
candidate gains and admissibility that ``rates.classify`` computes and
scores every candidate with the solver's own formula, so the solver, which
scores only each subcarrier's front, must match it bit for bit.

The exact step 2 optimum takes its step 1 gains from the benchmark's
independent checker, ``perfbench/checks.py``, which enumerates relay
subsets, and water-fills every assignment by its own bisection.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np

from relayalloc.channel import GainTable
from relayalloc.solver import SolverParams

__all__ = [
    "oracle_relay_gain",
    "oracle_split_optimality",
    "oracle_global_wsr",
    "oracle_step2_optimum",
    "oracle_candidate_tables",
    "oracle_state_at_price",
]


def _gains(pair: tuple) -> tuple:
    """(g_su, g_sr, g_ru) of a pair as a float and two 1-D float arrays."""
    g_su, g_sr, g_ru = pair
    return float(g_su), np.asarray(g_sr, dtype=float), np.asarray(g_ru, dtype=float)


def oracle_relay_gain(pair: tuple, power: float, grid: int = 10_000) -> float:
    """Max-min received SNR of the relay aided slot pair by enumeration.

    Sweeps every nonempty relay subset and broadcast fraction
    psi in {0, 1/grid, ..., 1}; for each pair the achieved SNR is
    ``min(psi P min_sr, psi P g_su + (1-psi) P sum_ru)`` with the relaying
    slot power split proportionally to the relay-destination gains (the
    best split, checked separately by oracle_split_optimality).
    """
    if grid < 100:
        raise ValueError("grid must be at least 100")
    if power < 0.0:
        raise ValueError("power must be nonnegative")
    if power == 0.0:
        return 0.0
    g_su, g_sr, g_ru = _gains(pair)
    psi = np.linspace(0.0, 1.0, grid + 1)
    best = 0.0
    for size in range(1, g_sr.size + 1):
        for subset in combinations(range(g_sr.size), size):
            idx = list(subset)
            decode = float(g_sr[idx].min()) * power
            combine = g_su * power
            miso = float(g_ru[idx].sum()) * power
            snr = np.minimum(psi * decode, psi * combine + (1.0 - psi) * miso)
            best = max(best, float(snr.max()))
    return best


def oracle_split_optimality(
    pair: tuple,
    power: float,
    relay_set: tuple,
    trials: int = 200,
    seed: int = 0,
) -> bool:
    """Check that the proportional relay power split is unbeaten.

    Draws random splits of the relaying slot power over the given set and
    verifies none beats the proportional-to-gain split's coherent sum
    ``(sum_i sqrt(p_i g_i))**2`` by more than a 1e-9 margin.
    """
    if power < 0.0:
        raise ValueError("power must be nonnegative")
    idx = list(relay_set)
    if len(idx) == 0:
        raise ValueError("relay_set must be nonempty")
    gr = _gains(pair)[2][idx]
    closed_form = power * float(gr.sum())
    tol = 1e-9 * max(1.0, closed_form)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        split = rng.dirichlet(np.ones(len(idx))) * power
        term = float(np.sqrt(split * gr).sum()) ** 2
        if term > closed_form + tol:
            return False
    return True


def _oracle_envelope(params: SolverParams, gains: GainTable, powers: np.ndarray, psi_grid: int) -> np.ndarray:
    """Best weighted rate per (subcarrier, grid power) over all candidates."""
    kk, uu = gains.g_su.shape
    env = np.zeros((kk, powers.size))
    for k in range(kk):
        for u in range(uu):
            g_su = float(gains.g_su[k, u])
            w = float(params.weights[u])
            snr_unit = oracle_relay_gain((g_su, gains.g_sr[k], gains.g_ru[k, :, u]), 1.0, psi_grid)
            for j, p in enumerate(powers):
                relay = w * math.log1p(snr_unit * p)
                direct = 2.0 * w * math.log1p(g_su * p / 2.0)
                cand = max(relay, direct)
                if cand > env[k, j]:
                    env[k, j] = cand
    return env


def oracle_global_wsr(
    params: SolverParams,
    gains: GainTable,
    power_grid: int = 200,
    psi_grid: int = 10_000,
) -> float:
    """Globally maximum weighted sum rate by exhaustive grid search.

    All per subcarrier destination / mode choices are crossed with every
    split of the budget over subcarriers on a simplex grid with
    ``power_grid`` points per dimension. Since the per subcarrier terms are
    independent once powers are fixed, the sweep over assignments folds
    into a per subcarrier envelope followed by a budgeted max-plus pass.
    Rejects instances larger than K = 3 subcarriers or U = 2 destinations.
    """
    kk, uu = gains.g_su.shape
    if kk > 3 or uu > 2:
        raise ValueError("oracle_global_wsr only accepts K <= 3, U <= 2 instances")
    if params.num_destinations != uu:
        raise ValueError("weights length must match the number of destinations")
    if power_grid < 2:
        raise ValueError("power_grid must be at least 2")

    powers = np.linspace(0.0, params.ptot, power_grid + 1)
    env = _oracle_envelope(params, gains, powers, psi_grid)

    # f[n] = best total over the first k subcarriers using exactly n units
    f = env[0].copy()
    for k in range(1, kk):
        nxt = np.full_like(f, -np.inf)
        for n in range(power_grid + 1):
            # spend j units on subcarrier k, n - j on the prefix
            cand = env[k, : n + 1][::-1] + f[: n + 1]
            nxt[n] = cand.max()
        f = nxt
    return float(f.max())


@functools.cache
def _checks():
    """``perfbench/checks.py``, imported by path; its dataclasses need it in ``sys.modules``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def _water_fill(w: np.ndarray, g: np.ndarray, c: np.ndarray, budget: float) -> np.ndarray:
    """Per slot powers ``[w / lam - 1 / g]+`` of each row's water-filling of ``budget``.

    Row i spends ``sum_k c_ik q_ik``. Its level lam is bisected on the bit
    patterns of positive doubles, which order as integers, until the two
    ends are adjacent doubles; the powers at the end that spends at least
    the budget are then rescaled onto it. Needs every gain positive.
    """
    inv = 1.0 / g

    def spent(lam):
        return (c * np.maximum(w / lam[:, None] - inv, 0.0)).sum(axis=1)

    # counting every term as active understates what a level spends, so lo
    # spends at least the budget; at hi no term spends anything
    lo = ((c * w).sum(axis=1) / (budget + (c * inv).sum(axis=1))).view(np.int64)
    hi = (w * g).max(axis=1).view(np.int64)
    lo = np.where(spent(lo.view(float)) >= budget, lo, 1)  # rounding: fall back to the least double
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        over = spent(mid.view(float)) >= budget
        lo, hi = np.where(over, mid, lo), np.where(over, hi, mid)
    q = np.maximum(w / lo.view(float)[:, None] - inv, 0.0)
    return q * (budget / (c * q).sum(axis=1))[:, None]


def oracle_step2_optimum(params: SolverParams, gains: GainTable) -> float:
    """Largest WSR of step 2 over every assignment of subcarriers to candidates.

    Candidate ``2u + m`` of subcarrier k is destination u relay aided
    (m = 0: one slot, the enumerated effective gain) or direct (m = 1: two
    slots, g_su). Each of the (2U)^K assignments is water-filled exactly at
    the budget, and scores ``sum_k c_k w_k ln(1 + g_k q_k)``. Rejects
    instances of more than 10^4 assignments.
    """
    kk, uu = gains.g_su.shape
    if (2 * uu) ** kk > 10_000:
        raise ValueError("oracle_step2_optimum enumerates at most 10^4 assignments")
    if params.num_destinations != uu:
        raise ValueError("weights length must match the number of destinations")
    g1 = _checks().enumerated_relay_gain(gains.g_su, gains.g_sr, gains.g_ru)
    gain = np.stack((g1, gains.g_su), axis=2).reshape(kk, 2 * uu)
    pick = np.array(list(product(range(2 * uu), repeat=kk)))
    g, w, c = gain[np.arange(kk), pick], params.weights[pick // 2], np.array([1.0, 2.0])[pick % 2]
    q = _water_fill(w, g, c, params.ptot)
    return float((c * w * np.log1p(g * q)).sum(axis=1).max())


# Below this gain a candidate is dead: its inverse is infinite (the
# solver's liveness floor, ``rates._DEAD_EXP``).
_DEAD_GAIN = 2.0**-1012
_SLOTS = np.array([1.0, 2.0])[:, None, None]


def oracle_candidate_tables(mu: float, weights, gain: np.ndarray, admissible: np.ndarray) -> tuple:
    """Lagrangian value and power of every candidate of a (2, K, U) table at price mu.

    Entry (m, k, u) is destination u on subcarrier k, relay aided (m = 0,
    one slot) or direct (m = 1, two slots). With c slots and gain g it
    spends ``c q``, ``q = [w / mu - 1 / g]+``, and is worth
    ``(c w) ln(1 + g q) - (c mu) q``, with ``ln g + ln q`` for the log where
    ``g q`` overflows; inadmissible candidates are worth -inf. Every
    candidate is scored. Returns (value, power).
    """
    w = np.asarray(weights, dtype=float)
    inv = np.divide(1.0, gain, out=np.full(gain.shape, np.inf), where=gain >= _DEAD_GAIN)
    q = np.maximum(w / mu - inv, 0.0)
    with np.errstate(over="ignore", divide="ignore"):
        x = gain * q
        rate = np.where(np.isfinite(x), np.log1p(x), np.log(gain) + np.log(q))
    value = np.where(admissible, _SLOTS * w * rate - _SLOTS * mu * q, -np.inf)
    return value, _SLOTS * q


def oracle_state_at_price(mu: float, params: SolverParams, gain: np.ndarray, admissible: np.ndarray) -> tuple:
    """(pick, power, total_power, lagrangian) of the Lagrangian maximizers at price mu.

    Each subcarrier takes the first maximum of its whole row in candidate
    order ``2u + m``: the destination of the largest best-mode value, then
    direct mode only where it is strictly better. ``lagrangian`` adds the
    maximizers' values and ``mu * ptot``.
    """
    value, power = oracle_candidate_tables(mu, params.weights, gain, admissible)
    dest = np.argmax(np.maximum(value[0], value[1]), axis=1)
    rows = np.arange(dest.size)
    mode = (value[1, rows, dest] > value[0, rows, dest]).astype(np.intp)
    p = power[mode, rows, dest]
    return 2 * dest + mode, p, float(p.sum()), float(value[mode, rows, dest].sum() + mu * params.ptot)
