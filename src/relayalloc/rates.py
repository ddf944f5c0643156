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
``ln(1 + gain * P)`` for the total subcarrier power P; the relay set and the
power split scale with P, so only fractions are kept. ``relay_closed_form``
evaluates it for a whole batch of pairs at once, in one loop over the sorted
relay positions that works on (M, U) slices of the batch: ``classify`` on the
(K, U) grid, and ``relay_aided_solution`` on chosen (subcarrier, destination)
pairs of a gain table, for the solver's assignment rows and rate
recomputations.

``classify`` turns every pair into two candidates, stacked mode-major into
one (2, K, U) ``ModeSets`` table: relay aided (m = 0) with the effective
gain and one slot, and direct (m = 1) with the direct gain and two slots.

All rates are in nats per two slot frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GainTable

__all__ = [
    "MODE_DIRECT",
    "MODE_RELAY",
    "RelayClosedForm",
    "ModeSets",
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
    suffix whose second hop sum still beats it; neither is kept.
    ``source_fraction`` is the share of the subcarrier power the source
    spends in the broadcasting slot. ``g_ru`` is the (M, N, U) second hop
    table the gains were computed from, the input itself unless it was
    scaled: ``relay_splits`` rebuilds the sorted second hop gains and their
    suffix sums from it, for the beamform pairs only.
    """

    gain: np.ndarray             # (M, U) effective gain
    order: np.ndarray            # (M, N)
    best: np.ndarray             # (M,) relay with the largest source link gain
    z: np.ndarray                # (M, U)
    source_fraction: np.ndarray  # (M, U)
    g_ru: np.ndarray             # (M, N, U) second hop gains, unsorted

    def relay_splits(self, shared) -> list:
        """(relay_set, relay_powers) of every pair in row major order.

        The relays of pair i share ``shared[i]`` watts in proportion to
        their second hop gains. A beamform pair uses the suffix of the
        sorted order from z; the other pairs hand the best source link relay
        all of it (zero, as their source fraction is one).
        """
        shared = np.asarray(shared, dtype=float)
        u = self.z.shape[1]
        z = self.z.reshape(-1)
        beam = np.nonzero(z >= 0)[0]
        row, dest = np.divmod(beam, u)
        order = self.order[row]
        gr = self.g_ru[row[:, None], order, dest[:, None]]  # (beamform pairs, N), sorted
        t = np.cumsum(gr[:, ::-1], axis=1)[:, ::-1]          # suffix sums, as relay_closed_form adds them
        t_z = t[np.arange(beam.size), z[beam]]
        # only the entries from z on are read; the others may overflow where
        # the suffix sum at z is subnormal
        with np.errstate(invalid="ignore", over="ignore"):
            powers = shared[beam, None] * (gr / t_z[:, None])
        beamform = iter(zip(order.tolist(), powers))
        out = []
        for zi, b, s in zip(z.tolist(), np.repeat(self.best, u).tolist(), shared.tolist()):
            if zi < 0:
                out.append(((b,), np.array([s])))
            else:
                o, p = next(beamform)
                out.append((tuple(o[zi:]), p[zi:]))
        return out


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
    t_z = np.zeros(shape)                 # and its suffix sum
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
            np.copyto(t_z, t, where=take)
        psi = t_z / (t_z + gs[rows[:, None], z] - g_su)  # gs[z] from the (M, N) table

    gs_max = gs[:, -1:]
    other = top == -np.inf             # no suffix start counted: no beamforming
    np.copyto(psi, 1.0, where=other)
    gain = top                         # the beamform gain, overwritten in the other cases
    np.copyto(gain, g_su, where=other)             # decoders too weak on the second hop
    np.copyto(gain, gs_max, where=g_su >= gs_max)  # direct link beats every source link
    if shift:
        gain = np.ldexp(gain, -shift)
    return RelayClosedForm(
        gain=gain,
        order=order,
        best=np.argmax(g_sr, axis=1),
        z=z,
        source_fraction=psi,
        g_ru=g_ru,
    )


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


@dataclass(frozen=True, eq=False)
class ModeSets:
    """Price independent terms of every (subcarrier, destination) candidate at a budget.

    The candidates form a mode-major (2, K, U) table: entry (m, k, u) is
    destination u on subcarrier k, relay aided for m = 0 (gain ``g1``, one
    slot of power) and direct for m = 1 (gain ``g_su``, power split over
    both slots). ``inv_gain`` is ``_inverse(gain)``, and ``peak``, the
    largest gain, bounds the products the price search forms. ``admissible``
    is False where a mode can never win: relay aided mode where
    ``g1 <= g_su``, and direct mode where relay aided mode wins for every
    feasible power (the budget is at most the crossover). The crossover is
    in watts, NaN where it does not exist and +inf where relay mode always
    wins.
    """

    ptot: float
    gain: np.ndarray         # (2, K, U) relay aided effective gains g1, then direct gains g_su
    inv_gain: np.ndarray     # (2, K, U) ``1 / gain``
    peak: float              # ``gain.max()``
    admissible: np.ndarray   # (2, K, U) bool
    crossover: np.ndarray    # (K, U)

    @property
    def g1(self) -> np.ndarray:
        """(K, U) relay aided effective gains, a view of ``gain[0]``."""
        return self.gain[0]


def classify(gains: GainTable, ptot: float) -> ModeSets:
    """Candidate table of every (k, u) pair, with the modes that can be optimal."""
    if ptot <= 0:
        raise ValueError("ptot must be positive")
    g1 = effective_gain_table(gains.g_su, gains.g_sr, gains.g_ru)
    g_su = gains.g_su
    relay = g1 > g_su
    # a g_su whose square is zero gives +inf (relay mode always wins), and a
    # g_su**2 that overflows puts the crossover far below any budget
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        crossover = np.where(relay, 4.0 * (g1 - g_su) / g_su**2, np.nan)
    gain = np.stack((g1, g_su))
    # boundary equality keeps relay mode strictly winning at the budget
    admissible = np.stack((relay, ~(relay & (ptot <= crossover))))
    return ModeSets(ptot=float(ptot), gain=gain, inv_gain=_inverse(gain), peak=float(gain.max()),
                    admissible=admissible, crossover=crossover)
