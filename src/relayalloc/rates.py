"""Per subcarrier rates for direct and relay aided transmission.

Each subcarrier frame is split into a broadcasting slot and a relaying slot.
In direct mode the source talks to the destination in both slots, so the
best strategy is an equal power split across the slots. In relay aided mode
the source broadcasts, a set of relays decodes, and the relays plus the
source beamform to the destination in the second slot; the decodable rate is
the minimum of the worst source-relay link and the combined second hop.

The relay aided problem has a closed form: sort relays by their source link
gain, consider suffix sets, and pick the suffix whose beamforming ratio is
largest; its start z lies between x, the first relay whose source link beats
the direct link, and y, the last suffix whose second hop sum still does. The
result is a single effective gain so the two slot rate becomes
``ln(1 + gain * P)`` for the total subcarrier power P. ``relay_closed_form``
evaluates it for a whole batch of pairs at once, in one loop over the sorted
relay positions that works on (M, U) slices of the batch and keeps only each
pair's best score and suffix start: ``classify`` on the (K, U) grid, and
``relay_aided_solution`` on chosen (subcarrier, destination) pairs of a gain
table, for rate recomputations and, through ``RelayClosedForm.split``, the
source and relay powers of the solver's assignment rows.

``classify`` turns every pair into two candidates, stacked mode-major into
one (2, K, U) ``ModeSets`` table: relay aided (m = 0) with the effective
gain and one slot, and direct (m = 1) with the direct gain and two slots.
Under given weights, ``ModeSets.front`` keeps the candidates that can win
at some price, each subcarrier's (weight, gain) Pareto front (``Front``).

All rates are in nats per two slot frame.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import GainTable

__all__ = [
    "MODE_DIRECT",
    "MODE_RELAY",
    "RelayClosedForm",
    "ModeSets",
    "Front",
    "relay_closed_form",
    "relay_aided_solution",
    "effective_gain_table",
    "classify",
]

MODE_DIRECT = "direct"
MODE_RELAY = "relay"

# Below 2**_PEAK_EXP, a gain times a sum of up to 2**23 gains stays finite; a
# batch with a larger gain is solved on gains scaled by a power of two that
# brings the largest below it.
_PEAK_EXP = 500
# The counterpart at the bottom: a gain below 2**_DEAD_EXP is dead, with an
# infinite inverse. Every finite inverse is then at most 2**-_DEAD_EXP, so a
# water level's sum of slot weighted inverses over up to 2**10 subcarriers
# stays finite; with weights near one, so do the thresholds and prices the
# search forms (2**-1016 still overflows at K = 1024, U = 32).
_DEAD_EXP = -1012

# Slot count c of mode m: one relay aided (m = 0), both slots direct (m = 1).
_SLOTS = np.array([1.0, 2.0])
# Mode index m along the leading axis of a (2, K, ...) table.
_MODE_AXIS = np.arange(2)[:, None, None]


@dataclass(frozen=True, eq=False)
class RelayClosedForm:
    """The relay aided closed form of a batch of (subcarrier, destination) pairs.

    Row m holds one subcarrier's N relays and U destinations; every per pair
    array is (M, U). ``order`` lists relay indices by increasing source link
    gain (ties by relay index). ``z`` is the 0-based position in that order
    where the chosen suffix of relays starts, -1 when no suffix beamforms:
    either the direct link beats every relay's source link (the gain is the
    best source link gain) or the relays that decode are too weak on the
    second hop (the gain is the direct link's). The derivation bounds z by x,
    the first relay whose source link beats the direct link, and y, the last
    suffix whose second hop sum still beats it; neither is kept. ``g_su``,
    ``gs`` (the source link gains in ``order``) and ``g_ru`` are the gains
    the closed form was solved on, the inputs themselves unless they were
    scaled: ``split`` reads them for the source and relay powers.
    """

    gain: np.ndarray   # (M, U) effective gain
    order: np.ndarray  # (M, N)
    best: np.ndarray   # (M,) relay with the largest source link gain
    z: np.ndarray      # (M, U)
    g_su: np.ndarray   # (M, U) direct gains
    gs: np.ndarray     # (M, N) source link gains, sorted
    g_ru: np.ndarray   # (M, N, U) second hop gains, unsorted

    def split(self, power) -> tuple:
        """(source, member, relay) of every pair in row major order at its power.

        Pair i spends ``power[i]`` watts. The (P,) ``source`` is what the
        source spends in the broadcasting slot; the rest goes to the relays
        of the (P, N) mask ``member``, in proportion to their second hop
        gains, as the (P, N) ``relay`` powers (0 outside the set), both in
        relay index order. A beamform pair's set is the suffix of the sorted
        order from z and its source share ``t / (t + gs[z] - g_su)`` for the
        second hop suffix sum t at z; the other pairs give the source all of
        the power and name the best source link relay, at 0 W.
        """
        power = np.asarray(power, dtype=float)
        n = self.order.shape[1]
        pair = np.arange(self.z.size)
        row, dest = np.divmod(pair, self.z.shape[1])
        z = self.z.reshape(-1)
        beam = z >= 0
        order = self.order[row]
        g = self.g_ru[row, :, dest]                    # (P, N)
        gr = np.take_along_axis(g, order, axis=1)      # sorted
        # suffix sums, as relay_closed_form adds them; z = -1 reads the last
        t_z = np.cumsum(gr[:, ::-1], axis=1)[:, ::-1][pair, z]
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(n), axis=1)
        member = np.where(beam[:, None], rank >= z[:, None], np.arange(n) == self.best[row, None])
        # the other pairs' entries and the beamform pairs' entries before z
        # are not read; they may divide by zero or overflow where the suffix
        # sum at z is subnormal
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            psi = t_z / (t_z + self.gs[row, z] - self.g_su.reshape(-1))
            source = np.where(beam, psi, 1.0) * power
            relay = np.where(member & beam[:, None], (power - source)[:, None] * (g / t_z[:, None]), 0.0)
        return source, member, relay


def relay_closed_form(g_su: np.ndarray, g_sr: np.ndarray, g_ru: np.ndarray) -> RelayClosedForm:
    """Relay aided closed form of every pair, one loop step per relay position.

    ``g_su`` is (M, U), ``g_sr`` (M, N) and ``g_ru`` (M, N, U); a batch of
    single pairs has U = 1. Relays are sorted by source link gain once per
    row. The loop walks the sorted positions from the last one on (M, U)
    slices: it extends every destination's suffix sum by one relay and, where
    that suffix decodes and beats the direct link, scores it against the best
    suffix start so far. A batch whose largest gain is 2**500 or more is
    solved on gains scaled by a power of two, which scales the gain exactly
    and leaves the rest unchanged (up to the last bits of gains that the
    scaling makes subnormal).
    """
    g_su = np.asarray(g_su, dtype=float)
    g_ru = np.asarray(g_ru, dtype=float)
    m, n = g_sr.shape
    order = np.argsort(g_sr, axis=1, kind="stable")
    gs = np.take_along_axis(g_sr, order, axis=1)  # (M, N), ascending
    peak = max(g_su.max(initial=0.0), gs.max(initial=0.0), g_ru.max(initial=0.0))
    shift = min(_PEAK_EXP - int(np.frexp(peak)[1]), 0)
    if shift:
        g_su, gs, g_ru = (np.ldexp(a, shift) for a in (g_su, gs, g_ru))
    rows = np.arange(m)
    shape = g_su.shape
    top = np.full(shape, -np.inf)         # best score so far
    z = np.full(shape, -1, np.intp)       # its position
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(n - 1, -1, -1):
            gr = g_ru[rows, order[:, j]]                # (M, U)
            # suffix sum from the last position, in cumsum's order of addition
            t = gr if j == n - 1 else np.add(t, gr, out=t)
            gs_j = gs[:, j, None]
            ratio = gs_j * t / (t + gs_j - g_su)
            # a suffix start counts where its second hop sum and its relay's
            # source link both beat the direct link; replacing on ties keeps
            # the first maximizer, the larger relay set
            take = (t > g_su) & (gs_j > g_su) & (ratio >= top)
            np.copyto(top, ratio, where=take)
            np.copyto(z, j, where=take)

    gs_max = gs[:, -1:]
    gain = top                         # the beamform gain, overwritten in the other cases
    np.copyto(gain, g_su, where=top == -np.inf)    # no suffix start counted: decoders too weak
    np.copyto(gain, gs_max, where=g_su >= gs_max)  # direct link beats every source link
    if shift:
        gain = np.ldexp(gain, -shift)
    return RelayClosedForm(gain=gain, order=order, best=np.argmax(g_sr, axis=1), z=z, g_su=g_su, gs=gs, g_ru=g_ru)


def relay_aided_solution(gains: GainTable, k, u) -> RelayClosedForm:
    """Closed form of the pairs (k[i], u[i]) of a gain table, as rows i."""
    return relay_closed_form(gains.g_su[k, u][:, None], gains.g_sr[k], gains.g_ru[k, :, u][:, :, None])


def effective_gain_table(g_su: np.ndarray, g_sr: np.ndarray, g_ru: np.ndarray) -> np.ndarray:
    """Relay aided effective gain of every (k, u) pair: the closed form on the (K, U) grid."""
    return relay_closed_form(g_su, g_sr, g_ru).gain


def _inverse(arr: np.ndarray) -> np.ndarray:
    """``1 / arr``, infinite where arr is below ``2**_DEAD_EXP``.

    This is the package's one liveness test: a candidate whose gain has no
    finite inverse never carries power.
    """
    return np.divide(1.0, arr, out=np.full(arr.shape, np.inf), where=arr >= 2.0**_DEAD_EXP)


def _crossover(g1: np.ndarray, g_su: np.ndarray) -> np.ndarray:
    """``4 (g1 - g_su) / g_su**2``, the power above which direct mode beats relay aided mode.

    A g_su whose square is zero gives +inf (relay mode always wins), and a
    g_su**2 that overflows puts the crossover far below any budget.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return 4.0 * (g1 - g_su) / g_su**2


class Front(NamedTuple):
    """Each subcarrier's (weight, gain) Pareto front of candidates under fixed weights.

    A candidate's Lagrangian value ``c max_q (w ln(1 + g q) - mu q)`` does
    not decrease in its weight w or its gain g, so within one mode of one
    subcarrier a candidate that another beats or ties in both never wins.
    Per mode and weight level, the front keeps the admissible candidate of
    the largest gain (the lowest destination on ties). With F distinct
    weights (F is 1 for equal weights), row k lists its E = 2F entries in
    candidate order ``2u + m``. An entry that a heavier level's beats or
    ties in gain is kept too: it is scored at its true value, which is
    below that level's wherever it carries power. A mode without an
    admissible candidate in row k holds an entry of gain 0, which never
    carries power.

    ``first`` is each subcarrier's first admissible candidate in candidate
    order: every (k, u) pair has an admissible mode, so it is destination
    0, relay aided if admissible. ``v_lo`` and ``v_hi`` are the least
    admissible term ``c / g`` and the largest live one (``inf`` where no
    candidate is live), the per subcarrier terms of the price search's
    power bounds.
    """

    pick: np.ndarray       # (K, E) candidate 2u + m
    gain: np.ndarray       # (K, E)
    inv_gain: np.ndarray   # (K, E) ``_inverse(gain)``
    weight: np.ndarray     # (K, E) the destination's weight w
    slots: np.ndarray      # (K, E) slot count c: 1 relay aided, 2 direct
    row_start: np.ndarray  # (K,) flat index of each row's first entry
    first: np.ndarray      # (K,) first admissible candidate
    v_lo: np.ndarray       # (K,)
    v_hi: np.ndarray       # (K,)


def _read_only(*arrays) -> tuple:
    """The arrays, made read-only: a cache hands the same ones to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=16)
def _weight_levels(weights: bytes) -> tuple:
    """(members, starts) of a weight vector given by its bytes.

    Row f of the (F, width) ``members`` lists the destinations of the f-th
    largest weight in increasing order, padded with the first of them: the
    first maximum over a row is then at its lowest destination. ``starts``
    holds the flat index of each row.
    """
    w = np.frombuffer(weights).tolist()
    levels = [[u for u, x in enumerate(w) if x == level] for level in sorted(set(w), reverse=True)]
    width = max(map(len, levels))
    members = np.array([level + level[:1] * (width - len(level)) for level in levels])
    return _read_only(members, np.arange(0, members.size, width))


@functools.lru_cache(maxsize=16)
def _row_offsets(kk: int, uu: int, entries: int) -> tuple:
    """Flat offsets of the (2, K, U) table's (m, k) rows, sort keys of subcarrier k, and the (K, E) rows."""
    return _read_only(np.arange(0, 2 * kk * uu, uu).reshape(2, kk, 1), np.arange(0, 2 * kk * uu, 2 * uu)[:, None],
                      np.arange(0, kk * entries, entries))


def _pareto_front(mode_sets: "ModeSets", weights: np.ndarray) -> Front:
    """``Front`` of a candidate table under per destination weights, in one pass over the table."""
    gain, admissible = mode_sets.gain, mode_sets.admissible
    _, kk, uu = gain.shape
    members, starts = _weight_levels(weights.tobytes())
    rows, keys, row_start = _row_offsets(kk, uu, 2 * len(members))
    # an inadmissible candidate counts as gain 0, which never carries power
    admitted = gain * admissible
    if len(members) == 1:
        dest = admitted.argmax(axis=2)[:, :, None]  # the first maximum: the lowest destination
    else:
        dest = members.take(admitted[:, :, members].argmax(axis=3) + starts)  # (2, K, F)
    top = admitted.take(rows + dest)  # (2, K, F)
    inv = _inverse(top)
    pick = 2 * dest + _MODE_AXIS
    # rows of E entries in candidate order
    order = (pick + keys).ravel().argsort(kind="stable").reshape(kk, -1)
    pick = pick.take(order)

    # The least admissible term c / g is that of the largest gain, on the
    # front. The largest live one is read from admissible / gain (1/g on
    # admissible candidates) where the row's maximum is below 2**-_DEAD_EXP,
    # so that every admissible candidate of the row is live; the other rows
    # (a dead admissible candidate, or 0 / 0) mask dead candidates out.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_all = admissible / gain
    hi = inv_all.take(rows[:, :, 0] + inv_all.argmax(axis=2))  # (2, K)
    if not (hi < 2.0**-_DEAD_EXP).all():
        m, k = np.nonzero(~(hi < 2.0**-_DEAD_EXP))
        g = gain[m, k]
        hi[m, k] = np.where(admissible[m, k] & (g >= 2.0**_DEAD_EXP), _inverse(g), 0.0).max(axis=1)
    v_hi = np.maximum(hi[0], _SLOTS[1] * hi[1])
    v_hi[v_hi == 0.0] = np.inf  # no live candidate
    return Front(pick=pick, gain=top.take(order), inv_gain=inv.take(order), weight=weights[pick >> 1],
                 slots=_SLOTS[pick & 1], row_start=row_start, first=1 - admissible[0, :, 0],
                 v_lo=(_SLOTS[:, None, None] * inv).min(axis=(0, 2)), v_hi=v_hi)


@dataclass(frozen=True, eq=False)
class ModeSets:
    """Price independent terms of every (subcarrier, destination) candidate at a budget.

    The candidates form a mode-major (2, K, U) table: entry (m, k, u) is
    destination u on subcarrier k, relay aided for m = 0 (gain ``g1``, one
    slot of power) and direct for m = 1 (gain ``g_su``, power split over
    both slots). ``peak``, the largest gain, bounds the products the price
    search forms. ``admissible`` is False where a mode can never win: relay
    aided mode where ``g1 <= g_su``, and direct mode where relay aided mode
    wins for every feasible power (the budget is at most the crossover
    power ``_crossover(g1, g_su)``). ``front(weights)`` is the ``Front``
    that every price evaluation scores, built once per weight vector.
    """

    ptot: float
    gain: np.ndarray         # (2, K, U) relay aided effective gains g1, then direct gains g_su
    peak: float              # ``gain.max()``
    admissible: np.ndarray   # (2, K, U) bool
    _fronts: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def g1(self) -> np.ndarray:
        """(K, U) relay aided effective gains, a view of ``gain[0]``."""
        return self.gain[0]

    def front(self, weights) -> Front:
        """The ``Front`` of these candidates under per destination ``weights``, kept per weight vector."""
        weights = np.asarray(weights, dtype=float)
        key = weights.tobytes()
        if key not in self._fronts:
            if weights.shape != self.gain.shape[2:]:
                raise ValueError("weights length must match the number of destinations")
            self._fronts[key] = _pareto_front(self, weights)
        return self._fronts[key]


def classify(gains: GainTable, ptot: float) -> ModeSets:
    """Candidate table of every (k, u) pair, with the modes that can be optimal."""
    if ptot <= 0:
        raise ValueError("ptot must be positive")
    g1 = effective_gain_table(gains.g_su, gains.g_sr, gains.g_ru)
    g_su = gains.g_su
    relay = g1 > g_su
    gain = np.stack((g1, g_su))
    # boundary equality keeps relay mode strictly winning at the budget
    admissible = np.stack((relay, ~(relay & (ptot <= _crossover(g1, g_su)))))
    return ModeSets(ptot=float(ptot), gain=gain, peak=float(gain.max()), admissible=admissible)
