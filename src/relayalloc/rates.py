"""Per subcarrier rates for direct and relay aided transmission.

Each subcarrier frame is split into a broadcasting slot and a relaying slot.
In direct mode the source talks to the destination in both slots, so the
best strategy is an equal power split across the slots. In relay aided mode
the source broadcasts, a set of relays decodes, and the relays plus the
source beamform to the destination in the second slot; the decodable rate is
the minimum of the worst source-relay link and the combined second hop.

The relay aided problem has a closed form: sort relays by their source link
gain, consider suffix sets, and pick the suffix whose beamforming ratio is
largest. The result is a single effective gain so the two slot rate becomes
``ln(1 + gain * P)`` for the total subcarrier power P. ``relay_closed_form``
evaluates it for a whole batch of pairs at once; the gain table, the per
pair ``relay_aided_solution`` and the solver's assignments all read it.

All rates are in nats per two slot frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import GainTable

__all__ = [
    "MODE_DIRECT",
    "MODE_RELAY",
    "CASE_SOURCE_DOMINATES",
    "CASE_RELAY_SUM_WEAK",
    "CASE_BEAMFORM",
    "PerPairGains",
    "RelayAidedSolution",
    "RelayClosedForm",
    "ModeSets",
    "direct_rate",
    "relay_rate",
    "relay_aided_solution",
    "relay_closed_form",
    "pair_closed_form",
    "effective_gain_table",
    "crossover_power",
    "classify",
]

MODE_DIRECT = "direct"
MODE_RELAY = "relay"

# Which branch of the closed form produced the effective gain.
CASE_SOURCE_DOMINATES = "source_dominates"  # direct link beats every relay's source link
CASE_RELAY_SUM_WEAK = "relay_sum_weak"      # decodable relays too weak on the second hop
CASE_BEAMFORM = "beamform"                  # a suffix of relays beamforms with the source
CASES = (CASE_SOURCE_DOMINATES, CASE_RELAY_SUM_WEAK, CASE_BEAMFORM)


@dataclass(frozen=True, eq=False)
class PerPairGains:
    """Gains seen by one (subcarrier, destination) pair."""

    g_su: float
    g_sr: np.ndarray  # (N,) source to relay
    g_ru: np.ndarray  # (N,) relay to destination

    def __post_init__(self) -> None:
        object.__setattr__(self, "g_sr", np.asarray(self.g_sr, dtype=float))
        object.__setattr__(self, "g_ru", np.asarray(self.g_ru, dtype=float))
        if self.g_sr.ndim != 1 or self.g_sr.size < 1 or self.g_sr.shape != self.g_ru.shape:
            raise ValueError("g_sr and g_ru must be 1-D arrays of equal nonzero length")
        if self.g_su < 0 or np.any(self.g_sr < 0) or np.any(self.g_ru < 0):
            raise ValueError("gains must be nonnegative")
        if not (np.isfinite(self.g_su) and np.all(np.isfinite(self.g_sr)) and np.all(np.isfinite(self.g_ru))):
            raise ValueError("gains must be finite")

    @classmethod
    def from_table(cls, gains: GainTable, k: int, u: int) -> "PerPairGains":
        return cls(g_su=float(gains.g_su[k, u]), g_sr=gains.g_sr[k, :], g_ru=gains.g_ru[k, :, u])

    @property
    def num_relays(self) -> int:
        return self.g_sr.size


@dataclass(frozen=True, eq=False)
class RelayAidedSolution:
    """Optimum relay set and power split for one (subcarrier, destination).

    ``sorted_order`` lists relay indices by increasing source link gain (ties
    by relay index). ``x_idx``/``y_idx``/``z_idx`` are 0-based positions in
    that order and are set only in the beamform case: x is the first relay
    whose source link beats the direct link, y the last suffix whose second
    hop sum still beats the direct link, z the maximizing suffix start.

    ``source_fraction`` is the share of the subcarrier power spent by the
    source in the broadcasting slot; the remainder goes to ``relay_set`` in
    proportion to ``relay_fractions`` (which sum to one).
    """

    effective_gain: float
    case_id: str
    sorted_order: np.ndarray
    x_idx: Optional[int]
    y_idx: Optional[int]
    z_idx: Optional[int]
    relay_set: tuple
    source_fraction: float
    relay_fractions: np.ndarray


def direct_rate(g_su: float, power: float) -> float:
    """Two slot rate of direct transmission with the optimum equal split."""
    if g_su < 0 or power < 0:
        raise ValueError("g_su and power must be nonnegative")
    return 2.0 * np.log1p(g_su * power / 2.0)


def relay_aided_solution(gains: PerPairGains, power: float) -> RelayAidedSolution:
    """Closed form optimum of the relay aided max-min rate problem.

    The effective gain does not depend on ``power``; the split scales
    linearly with it, so only fractions are returned.
    """
    if power < 0:
        raise ValueError("power must be nonnegative")
    cf = relay_closed_form(np.array([[gains.g_su]]), gains.g_sr[None, :], gains.g_ru[None, :, None])
    [(relay_set, fractions)] = cf.relay_splits([1.0])
    x, y, z = (int(v[0, 0]) if v[0, 0] >= 0 else None for v in (cf.x, cf.y, cf.z))
    return RelayAidedSolution(
        effective_gain=float(cf.gain[0, 0]),
        case_id=CASES[cf.case[0, 0]],
        sorted_order=cf.order[0],
        x_idx=x, y_idx=y, z_idx=z,
        relay_set=relay_set,
        source_fraction=float(cf.source_fraction[0, 0]),
        relay_fractions=fractions,
    )


def relay_rate(gains: PerPairGains, power: float) -> float:
    """Two slot rate of optimally configured relay aided transmission."""
    if power < 0:
        raise ValueError("power must be nonnegative")
    return float(np.log1p(relay_aided_solution(gains, 0.0).effective_gain * power))


@dataclass(frozen=True, eq=False)
class RelayClosedForm:
    """The relay aided closed form of a batch of (subcarrier, destination) pairs.

    Row m holds one subcarrier's N relays and U destinations: per pair
    arrays are (M, U), per relay ones (M, N, U) in sorted position.
    ``order``, ``x``, ``y`` and ``z`` are as in ``RelayAidedSolution``, with
    -1 outside the beamform case; ``case`` indexes ``CASES``.
    """

    gain: np.ndarray             # (M, U) effective gain
    case: np.ndarray             # (M, U)
    order: np.ndarray            # (M, N)
    best: np.ndarray             # (M,) relay with the largest source link gain
    x: np.ndarray                # (M, U)
    y: np.ndarray                # (M, U)
    z: np.ndarray                # (M, U)
    source_fraction: np.ndarray  # (M, U)
    g_ru_sorted: np.ndarray      # (M, N, U) second hop gains in sorted order
    suffix_sum: np.ndarray       # (M, N, U) their suffix sums

    def relay_splits(self, shared) -> list:
        """(relay_set, relay_powers) of every pair in row major order.

        The relays of pair i share ``shared[i]`` watts in proportion to
        their second hop gains. A beamform pair uses the suffix of the
        sorted order from z; the other cases hand the best source link relay
        all of it (zero, as their source fraction is one).
        """
        shared = np.asarray(shared, dtype=float)
        u = self.z.shape[1]
        z_safe = np.maximum(self.z, 0)[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = self.g_ru_sorted / np.take_along_axis(self.suffix_sum, z_safe, axis=1)
        powers = shared[:, None] * frac.transpose(0, 2, 1).reshape(shared.size, frac.shape[1])
        order = np.repeat(self.order, u, axis=0).tolist()
        best = np.repeat(self.best, u).tolist()
        out = []
        for z, o, b, s, row in zip(self.z.reshape(-1).tolist(), order, best, shared.tolist(), powers):
            out.append(((b,), np.array([s])) if z < 0 else (tuple(o[z:]), row[z:]))
        return out


def relay_closed_form(g_su: np.ndarray, g_sr: np.ndarray, g_ru: np.ndarray) -> RelayClosedForm:
    """Relay aided closed form of every pair in one numpy pass.

    ``g_su`` is (M, U), ``g_sr`` (M, N) and ``g_ru`` (M, N, U); a batch of
    single pairs has U = 1. Relays are sorted by source link gain once per
    row and the suffix sets of every destination are scored together.
    """
    g_su = np.asarray(g_su, dtype=float)
    n = g_sr.shape[1]
    order = np.argsort(g_sr, axis=1, kind="stable")
    gs = np.take_along_axis(g_sr, order, axis=1)                  # (M, N)
    gr = np.take_along_axis(g_ru, order[:, :, None], axis=1)      # (M, N, U)
    t = np.flip(np.cumsum(np.flip(gr, axis=1), axis=1), axis=1)   # suffix sums

    gs_max = gs[:, -1:]
    gs3, g_su3 = gs[:, :, None], g_su[:, None, :]
    live = t > g_su3  # a prefix of sorted positions: t does not increase
    y = np.count_nonzero(live, axis=1) - 1         # last suffix start with t > g_su
    x = np.count_nonzero(gs3 <= g_su3, axis=1)     # first index with gs > g_su
    case1 = g_su >= gs_max
    case2 = ~case1 & (x > y)                       # t[x] <= g_su
    beam = ~(case1 | case2)
    valid = (np.arange(n)[None, :, None] >= x[:, None, :]) & live
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(valid, gs3 * t / (t + gs3 - g_su3), -np.inf)
        z = ratio.argmax(axis=1)  # first maximizer, i.e. the larger relay set
        g_beam = np.take_along_axis(ratio, z[:, None, :], axis=1)[:, 0, :]
        del ratio, valid  # keeps the peak memory of the (K, U) grid call down
        t_z = np.take_along_axis(t, z[:, None, :], axis=1)[:, 0, :]
        psi = t_z / (t_z + np.take_along_axis(gs, z, axis=1) - g_su)

    return RelayClosedForm(
        gain=np.where(case1, gs_max, np.where(case2, g_su, g_beam)),
        case=np.where(case1, 0, np.where(case2, 1, 2)),
        order=order,
        best=np.argmax(g_sr, axis=1),
        x=np.where(beam, x, -1),
        y=np.where(beam, y, -1),
        z=np.where(beam, z, -1),
        source_fraction=np.where(beam, psi, 1.0),
        g_ru_sorted=gr,
        suffix_sum=t,
    )


def pair_closed_form(gains: GainTable, k: np.ndarray, u: np.ndarray) -> RelayClosedForm:
    """Closed form of the pairs (k[i], u[i]) of a gain table, as rows i."""
    return relay_closed_form(gains.g_su[k, u][:, None], gains.g_sr[k], gains.g_ru[k, :, u][:, :, None])


def effective_gain_table(g_su: np.ndarray, g_sr: np.ndarray, g_ru: np.ndarray) -> np.ndarray:
    """Relay aided effective gain of every (k, u) pair: the closed form on the (K, U) grid."""
    return relay_closed_form(g_su, g_sr, g_ru).gain


def crossover_power(g1: float, g_su: float) -> Optional[float]:
    """Total power below which relay aided mode beats direct mode.

    Returns None when there is no crossover: either the relay aided gain
    never wins (g1 <= g_su) or it always wins (g_su == 0).
    """
    if g1 < 0 or g_su < 0:
        raise ValueError("gains must be nonnegative")
    if g1 <= g_su or g_su == 0.0:
        return None
    return 4.0 * (g1 - g_su) / g_su**2


@dataclass(frozen=True, eq=False)
class ModeSets:
    """Per (subcarrier, destination) mode admissibility at a given budget.

    ``in_direct_set`` marks pairs where relay aided mode can never win, so
    only direct mode is admissible; ``in_relay_set`` marks pairs where relay
    aided mode wins for every feasible power, so only it is admissible.
    Pairs in neither set stay admissible in both modes. The crossover is in
    watts, NaN where it does not exist and +inf where relay mode always wins.
    """

    ptot: float
    g1: np.ndarray              # (K, U) relay aided effective gains
    crossover: np.ndarray       # (K, U)
    in_direct_set: np.ndarray   # (K, U) bool
    in_relay_set: np.ndarray    # (K, U) bool

    def direct_set(self, k: int) -> tuple:
        return tuple(int(u) for u in np.nonzero(self.in_direct_set[k])[0])

    def relay_set(self, k: int) -> tuple:
        return tuple(int(u) for u in np.nonzero(self.in_relay_set[k])[0])


def classify(gains: GainTable, ptot: float) -> ModeSets:
    """Split (k, u) pairs by which transmission mode can be optimal."""
    if ptot <= 0:
        raise ValueError("ptot must be positive")
    g1 = effective_gain_table(gains.g_su, gains.g_sr, gains.g_ru)
    g_su = gains.g_su
    with np.errstate(divide="ignore", invalid="ignore"):
        crossover = np.where(
            g1 > g_su,
            np.where(g_su > 0.0, 4.0 * (g1 - g_su) / g_su**2, np.inf),
            np.nan,
        )
    in_direct = g1 <= g_su
    # boundary equality keeps relay mode strictly winning at the budget
    in_relay = (g1 > g_su) & (ptot <= crossover)
    return ModeSets(ptot=float(ptot), g1=g1, crossover=crossover,
                    in_direct_set=in_direct, in_relay_set=in_relay)
