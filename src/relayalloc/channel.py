"""Stochastic frequency selective channels for a relay aided OFDMA cell.

Every link (source to destination, source to relay, relay to destination) is
an independent Rayleigh tapped delay line. Tap powers decay exponentially and
are normalized so that the total mean received power follows a distance power
law (exponent 3, 30 dB attenuation at 10 m), optionally multiplied by a
log-normal shadowing term drawn in dB.
A realization holds the complex taps of every link, one row per link; gains
are the squared magnitudes of the taps' forward K point DFT (zero padded)
divided by the receiver noise variance, one formula for every link class.

Each link draws from its own Philox stream, keyed by
``SeedSequence([seed, role, a, b]).generate_state(2, np.uint64)`` for a role
tag and the link's endpoint indices, so no draw depends on the order in which
links are synthesized. A Philox stream is fixed by its key, so
``_link_streams`` computes the keys of all links at once with a vectorized
port of SeedSequence's hash (``_philox_keys``) and re-keys one generator per
link through its ``state``, which gives the same streams as one keyed
generator per link. Destination placement keys its own generator directly
with the stream of the placement role.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Region",
    "Topology",
    "TapProfile",
    "ChannelRealization",
    "GainTable",
    "place_destinations",
    "synthesize_realization",
    "to_gains",
]

# Role tags keep per-link random streams independent of iteration order.
_ROLE_SOURCE_DEST = 0
_ROLE_SOURCE_RELAY = 1
_ROLE_RELAY_DEST = 2
_ROLE_PLACEMENT = 3

# Distance power law of the mean received power.
_PATHLOSS_EXPONENT = 3.0
_REFERENCE_DISTANCE_M = 10.0
_REFERENCE_ATTENUATION_DB = 30.0


@dataclass(frozen=True)
class Region:
    """Axis aligned rectangle used for random destination placement."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite([self.x_min, self.x_max, self.y_min, self.y_max])):
            raise ValueError("region bounds must be finite")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("region must have positive area")


@dataclass(frozen=True, eq=False)
class Topology:
    """Node coordinates of one cell: a source, N relays and U destinations."""

    source_xy: np.ndarray
    relay_xy: np.ndarray
    dest_xy: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_xy", np.asarray(self.source_xy, dtype=float).reshape(2))
        object.__setattr__(self, "relay_xy", np.atleast_2d(np.asarray(self.relay_xy, dtype=float)))
        object.__setattr__(self, "dest_xy", np.atleast_2d(np.asarray(self.dest_xy, dtype=float)))
        if self.relay_xy.shape[1] != 2 or self.dest_xy.shape[1] != 2:
            raise ValueError("relay_xy and dest_xy must be (n, 2) coordinate arrays")
        if self.num_relays < 1 or self.num_destinations < 1:
            raise ValueError("topology needs at least one relay and one destination")
        # every link must have a strictly positive length; the first
        # coincident one is named: source->relay links, then source->dest,
        # then relay->dest in row major order
        names = ("source->relay{}", "source->dest{}", "relay{}->dest{}")
        for d, name in zip(self.link_distances(), names):
            short = np.argwhere(d <= 0.0)
            if short.size:
                raise ValueError(f"coincident node positions on link {name.format(*short[0])}")

    def link_distances(self) -> tuple:
        """Link lengths: source->relay (N,), source->dest (U,) and relay->dest (N, U)."""
        return (
            np.hypot(*(self.relay_xy - self.source_xy).T),
            np.hypot(*(self.dest_xy - self.source_xy).T),
            np.hypot(*np.moveaxis(self.dest_xy - self.relay_xy[:, None], -1, 0)),
        )

    @property
    def num_relays(self) -> int:
        return self.relay_xy.shape[0]

    @property
    def num_destinations(self) -> int:
        return self.dest_xy.shape[0]


@dataclass(frozen=True, eq=False)
class TapProfile:
    """Multipath power profile plus the standard deviation of the shadowing in dB.

    ``variances`` holds the relative tap powers. At synthesis time they are
    rescaled so their sum equals the mean received power dictated by the
    power law, hence their absolute scale is irrelevant.
    """

    variances: np.ndarray
    shadowing_db_std: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "variances", np.asarray(self.variances, dtype=float))
        v = self.variances
        if v.ndim != 1 or v.size < 1:
            raise ValueError("variances must be a nonempty 1-D array")
        if not np.all(v > 0.0):
            raise ValueError("tap variances must be strictly positive")
        if np.any(np.diff(v) >= 0.0):
            raise ValueError("tap variances must be strictly decreasing")
        if self.shadowing_db_std < 0.0:
            raise ValueError("shadowing_db_std must be nonnegative")

    @classmethod
    def exponential(cls, num_taps: int = 6, decay: float = 3.0, shadowing_db_std: float = 0.0) -> "TapProfile":
        """Profile with tap i carrying relative power exp(-decay * i)."""
        if num_taps < 1:
            raise ValueError("num_taps must be at least 1")
        if decay <= 0.0:
            raise ValueError("decay must be positive")
        return cls(variances=np.exp(-decay * np.arange(num_taps)), shadowing_db_std=shadowing_db_std)

    @property
    def num_taps(self) -> int:
        return self.variances.size

    def mean_power(self, distance: float) -> float:
        """Mean received power (unit transmit power) at the given distance."""
        if distance <= 0.0:
            raise ValueError("distance must be positive")
        att = 10.0 ** (-_REFERENCE_ATTENUATION_DB / 10.0)
        return att * (distance / _REFERENCE_DISTANCE_M) ** (-_PATHLOSS_EXPONENT)

    def link_variances(self, distance: float) -> np.ndarray:
        """Absolute per tap variances for one link, summing to mean_power."""
        v = self.variances
        return v * (self.mean_power(distance) / v.sum())


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Complex multipath taps of every link, one (L,) row per link.

    Rows follow the ``_link_streams`` order: U source->destination links, N
    source->relay links, then relay i -> destination j at row U + N + i*U + j.
    """

    num_subcarriers: int
    num_relays: int
    num_destinations: int
    taps: np.ndarray  # (U + N + N*U, L)
    seed: int


@dataclass(frozen=True, eq=False)
class GainTable:
    """Noise normalized power gains of every link on every subcarrier."""

    g_su: np.ndarray  # (K, U)
    g_sr: np.ndarray  # (K, N)
    g_ru: np.ndarray  # (K, N, U)

    def __post_init__(self) -> None:
        for name in ("g_su", "g_sr", "g_ru"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise ValueError(f"{name} must be nonnegative and finite")
        k, u = self.g_su.shape
        if self.g_sr.shape[0] != k or self.g_ru.shape != (k, self.g_sr.shape[1], u):
            raise ValueError("gain array shapes are inconsistent")
        if self.g_sr.shape[1] < 1:
            raise ValueError("gain table needs at least one relay")

    @property
    def num_subcarriers(self) -> int:
        return self.g_su.shape[0]

    @property
    def num_destinations(self) -> int:
        return self.g_su.shape[1]

    @property
    def num_relays(self) -> int:
        return self.g_sr.shape[1]


def _check_seed(rng_seed: int) -> int:
    seed = int(rng_seed)
    if seed < 0:
        raise ValueError("rng_seed must be a nonnegative integer")
    return seed


def place_destinations(region: Region, num_destinations: int, rng_seed: int) -> np.ndarray:
    """Draw destination coordinates uniformly inside the region.

    Returns a (U, 2) array. Placement uses its own stream so channel draws
    are unaffected by whether positions were random or fixed.
    """
    if num_destinations < 1:
        raise ValueError("num_destinations must be at least 1")
    key = np.random.SeedSequence([_check_seed(rng_seed), _ROLE_PLACEMENT, 0, 0])
    rng = np.random.Generator(np.random.Philox(key))
    x = rng.uniform(region.x_min, region.x_max, size=num_destinations)
    y = rng.uniform(region.y_min, region.y_max, size=num_destinations)
    return np.column_stack([x, y])


def _uint32_words(value: int) -> list:
    # SeedSequence's coercion of a nonnegative int: 32-bit words, least
    # significant first, and [0] for zero
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


@functools.lru_cache(maxsize=16)
def _hash_steps(m: int) -> tuple:
    """SeedSequence's hash constants for m >= 4 entropy words, per round.

    The hash constant is multiplied in every step, whatever the data: step
    i xors with h[i] and multiplies by h[i + 1]. Row r holds the (xor,
    multiply) pair of each pool word in round r: filling the pool, mixing
    word src into the other three in order (the pair given to src itself is
    never used), mixing in each further entropy word, and last
    generate_state's own sequence. The arrays are read-only.
    """
    h = [0x43B0D7E5]
    for _ in range(4 * m):
        h.append(h[-1] * 0x931E8875 & 0xFFFFFFFF)
    g = [0x8B51F9DD]
    for _ in range(4):
        g.append(g[-1] * 0x58F38DED & 0xFFFFFFFF)
    rounds = ([[0, 1, 2, 3]] + [[4 + 3 * src + d - (d >= src) for d in range(4)] for src in range(4)]
              + [[4 * w + d for d in range(4)] for w in range(4, m)])
    xor = np.array([[h[i] for i in row] for row in rounds] + [g[:4]], dtype=np.uint32)
    mult = np.array([[h[i + 1] for i in row] for row in rounds] + [g[1:]], dtype=np.uint32)
    xor.flags.writeable = mult.flags.writeable = False
    return xor, mult


def _philox_keys(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy=row).generate_state(2, np.uint64)`` of every row.

    A port of numpy's documented SeedSequence hash (4-word pool, no spawn
    key) for a (links, m) uint32 array of entropy words, m >= 4. Its
    constants do not depend on the data (``_hash_steps``), so each step of
    the hash runs on every link at once, and on every pool word it updates
    at once.
    """
    m = entropy.shape[1]
    xor, mult = _hash_steps(m)
    # 0-d operands keep numpy's per-call cost low on a few links
    shift, mix_l, mix_r = (np.array(c, dtype=np.uint32) for c in (16, 0xCA01F9DD, 0x4973F715))

    def hashmix(value, r):
        value = (value ^ xor[r]) * mult[r]
        return value ^ (value >> shift)

    def mix(x, y):
        result = mix_l * x - mix_r * y
        return result ^ (result >> shift)

    pool = hashmix(entropy[:, :4], 0)
    for src in range(4):
        mixed = mix(pool, hashmix(pool[:, src, None], 1 + src))
        mixed[:, src] = pool[:, src]
        pool = mixed
    for w in range(4, m):
        pool = mix(pool, hashmix(entropy[:, w, None], w + 1))
    # generate_state(2, np.uint64) hashes each pool word once, into the low
    # and high halves of the two key words
    words = hashmix(pool, -1).astype(np.uint64)
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))


def _link_streams(seed: int, links):
    """Yield one generator, re-keyed to each ``(role, a, b)`` link in turn.

    Link i gets the stream of ``Philox(SeedSequence([seed, role, a, b]))``:
    a fresh generator's state (counter 0, empty buffer) with the link's key
    from one batched ``_philox_keys`` call. Draw from it before asking for
    the next link. The generator's own seed is never drawn from.
    """
    seed_words = _uint32_words(seed)
    keys = _philox_keys(np.array([[*seed_words, *link] for link in links], dtype=np.uint32))
    bitgen = np.random.Philox(0)
    state = bitgen.state
    rng = np.random.Generator(bitgen)
    for key in keys:
        state["state"]["key"] = key
        bitgen.state = state
        yield rng


def synthesize_realization(
    topology: Topology,
    profile: TapProfile,
    num_subcarriers: int,
    rng_seed: int,
) -> ChannelRealization:
    """Draw one multipath realization of every link in the topology.

    Link ``(role, a, b)`` draws from its ``_link_streams`` stream: its
    shadowing first, then the real and the imaginary parts of its taps.
    """
    seed = _check_seed(rng_seed)
    k = int(num_subcarriers)
    if k < profile.num_taps:
        raise ValueError("num_subcarriers must be at least the number of taps")
    n, u = topology.num_relays, topology.num_destinations
    length = profile.num_taps

    # (role, a, b, distance) of every link, in the row order of the taps
    d_sr, d_su, d_ru = topology.link_distances()
    links = [
        *((_ROLE_SOURCE_DEST, j, 0, d_su[j]) for j in range(u)),
        *((_ROLE_SOURCE_RELAY, i, 0, d_sr[i]) for i in range(n)),
        *((_ROLE_RELAY_DEST, i, j, d_ru[i, j]) for i in range(n) for j in range(u)),
    ]
    z = np.empty((len(links), 1 + 2 * length))
    for rng, row in zip(_link_streams(seed, [link[:3] for link in links]), z):
        rng.standard_normal(out=row)

    # scalar per link, as rng.normal(0, std) and TapProfile.link_variances
    # compute them: numpy's vectorized ** can differ in the last bit
    std = float(profile.shadowing_db_std)
    try:
        shadow = [10.0 ** ((0.0 + std * z0) / 10.0) for z0 in z[:, 0].tolist()]
    except OverflowError:
        db = std * float(z[:, 0].max())
        raise ValueError(f"a shadowing draw of {db:.4g} dB (shadowing_db_std {std:g}) overflows a link's power") from None
    per_link = np.array([profile.mean_power(d) for *_, d in links]) / profile.variances.sum()
    var = profile.variances * per_link[:, None] * np.array(shadow)[:, None]
    taps = np.sqrt(var / 2.0) * (z[:, 1:1 + length] + 1j * z[:, 1 + length:])

    return ChannelRealization(num_subcarriers=k, num_relays=n, num_destinations=u, taps=taps, seed=seed)


def to_gains(realization: ChannelRealization, noise_variance: float) -> GainTable:
    """Squared magnitudes of the taps' K point DFT over the noise variance.

    One DFT along the taps' rows gives every link's spectrum; the three
    tables are C-ordered slices of the transposed (K, links) gains.
    """
    if noise_variance <= 0.0:
        raise ValueError("noise_variance must be positive")
    n, u = realization.num_relays, realization.num_destinations
    freq = np.fft.fft(realization.taps, n=realization.num_subcarriers, axis=1)
    gain = (np.abs(freq) ** 2 / noise_variance).T
    return GainTable(g_su=np.ascontiguousarray(gain[:, :u]), g_sr=np.ascontiguousarray(gain[:, u:u + n]),
                     g_ru=np.ascontiguousarray(gain[:, u + n:]).reshape(-1, n, u))
