"""Stochastic frequency selective channels for a relay aided OFDMA cell.

Every link (source to destination, source to relay, relay to destination) is
an independent Rayleigh tapped delay line. Tap powers decay exponentially and
are normalized so that the total mean received power follows a distance power
law, optionally multiplied by a log-normal shadowing term drawn in dB.
Frequency responses are plain forward DFTs of the zero padded taps, and gains
are squared magnitudes divided by the receiver noise variance.

Each link draws from its own Philox stream, keyed by
``SeedSequence([seed, role, a, b]).generate_state(2, np.uint64)`` for a role
tag and the link's endpoint indices, so no draw depends on the order in which
links are synthesized. A Philox stream is fixed by its key, so
``synthesize_realization`` computes the keys of all links at once with a
vectorized port of SeedSequence's hash (``_philox_keys``) and re-keys one
generator per link through its ``state``, which gives the same streams as one
keyed generator per link.
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


@dataclass(frozen=True)
class Region:
    """Axis aligned rectangle used for random destination placement."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
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
        # every link must have a strictly positive length
        for a, b, what in self._links():
            if float(np.hypot(*(a - b))) <= 0.0:
                raise ValueError(f"coincident node positions on link {what}")

    def _links(self):
        for i, r in enumerate(self.relay_xy):
            yield self.source_xy, r, f"source->relay{i}"
        for u, d in enumerate(self.dest_xy):
            yield self.source_xy, d, f"source->dest{u}"
        for i, r in enumerate(self.relay_xy):
            for u, d in enumerate(self.dest_xy):
                yield r, d, f"relay{i}->dest{u}"

    @property
    def num_relays(self) -> int:
        return self.relay_xy.shape[0]

    @property
    def num_destinations(self) -> int:
        return self.dest_xy.shape[0]


@dataclass(frozen=True, eq=False)
class TapProfile:
    """Multipath power profile plus large scale propagation parameters.

    ``variances`` holds the relative tap powers. At synthesis time they are
    rescaled so their sum equals the mean received power dictated by the
    power law, hence their absolute scale is irrelevant.
    """

    variances: np.ndarray
    pathloss_exponent: float = 3.0
    shadowing_db_std: float = 0.0
    reference_distance_m: float = 10.0
    reference_attenuation_db: float = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "variances", np.asarray(self.variances, dtype=float))
        v = self.variances
        if v.ndim != 1 or v.size < 1:
            raise ValueError("variances must be a nonempty 1-D array")
        if not np.all(v > 0.0):
            raise ValueError("tap variances must be strictly positive")
        if np.any(np.diff(v) >= 0.0):
            raise ValueError("tap variances must be strictly decreasing")
        if self.pathloss_exponent <= 0.0 or self.reference_distance_m <= 0.0:
            raise ValueError("pathloss_exponent and reference_distance_m must be positive")
        if self.shadowing_db_std < 0.0:
            raise ValueError("shadowing_db_std must be nonnegative")

    @classmethod
    def exponential(cls, num_taps: int = 6, decay: float = 3.0, **kwargs) -> "TapProfile":
        """Profile with tap i carrying relative power exp(-decay * i)."""
        if num_taps < 1:
            raise ValueError("num_taps must be at least 1")
        if decay <= 0.0:
            raise ValueError("decay must be positive")
        return cls(variances=np.exp(-decay * np.arange(num_taps)), **kwargs)

    @property
    def num_taps(self) -> int:
        return self.variances.size

    def mean_power(self, distance: float) -> float:
        """Mean received power (unit transmit power) at the given distance."""
        if distance <= 0.0:
            raise ValueError("distance must be positive")
        att = 10.0 ** (-self.reference_attenuation_db / 10.0)
        return att * (distance / self.reference_distance_m) ** (-self.pathloss_exponent)

    def link_variances(self, distance: float) -> np.ndarray:
        """Absolute per tap variances for one link, summing to mean_power."""
        v = self.variances
        return v * (self.mean_power(distance) / v.sum())


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Per link complex frequency responses on a K subcarrier grid.

    ``freq_*`` entries are K point DFTs of the zero padded ``taps_*``; the
    taps are kept for consistency checks.
    """

    num_subcarriers: int
    freq_su: np.ndarray  # (K, U)
    freq_sr: np.ndarray  # (K, N)
    freq_ru: np.ndarray  # (K, N, U)
    taps_su: np.ndarray  # (L, U)
    taps_sr: np.ndarray  # (L, N)
    taps_ru: np.ndarray  # (L, N, U)
    seed: int

    @property
    def num_relays(self) -> int:
        return self.freq_sr.shape[1]

    @property
    def num_destinations(self) -> int:
        return self.freq_su.shape[1]


@dataclass(frozen=True, eq=False)
class GainTable:
    """Noise normalized power gains of every link on every subcarrier."""

    g_su: np.ndarray  # (K, U)
    g_sr: np.ndarray  # (K, N)
    g_ru: np.ndarray  # (K, N, U)
    noise_variance: float = 1.0

    def __post_init__(self) -> None:
        for name in ("g_su", "g_sr", "g_ru"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise ValueError(f"{name} must be nonnegative and finite")
        k, u = self.g_su.shape
        if self.g_sr.shape[0] != k or self.g_ru.shape != (k, self.g_sr.shape[1], u):
            raise ValueError("gain array shapes are inconsistent")
        if self.noise_variance <= 0.0:
            raise ValueError("noise_variance must be positive")

    @property
    def num_subcarriers(self) -> int:
        return self.g_su.shape[0]

    @property
    def num_destinations(self) -> int:
        return self.g_su.shape[1]

    @property
    def num_relays(self) -> int:
        return self.g_sr.shape[1]


def _link_rng(seed: int, role: int, a: int, b: int) -> np.random.Generator:
    # Philox keyed by (seed, role, a, b): streams are independent of the
    # order in which links are synthesized and portable across platforms.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[seed, role, a, b])))


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
    rng = _link_rng(_check_seed(rng_seed), _ROLE_PLACEMENT, 0, 0)
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


def synthesize_realization(
    topology: Topology,
    profile: TapProfile,
    num_subcarriers: int,
    rng_seed: int,
) -> ChannelRealization:
    """Draw one multipath realization of every link in the topology.

    Link ``(role, a, b)`` draws from the stream of ``_link_rng(seed, role,
    a, b)``: its shadowing first, then the real and the imaginary parts of
    its taps. The keys of all links come from one batched ``_philox_keys``
    call, and one ``Philox`` is re-keyed per link through its ``state``.
    """
    seed = _check_seed(rng_seed)
    k = int(num_subcarriers)
    if k < profile.num_taps:
        raise ValueError("num_subcarriers must be at least the number of taps")
    n, u = topology.num_relays, topology.num_destinations
    length = profile.num_taps

    # (role, a, b, distance) of every link, in the column order of the taps
    d_su = np.hypot(*(topology.dest_xy - topology.source_xy).T)
    d_sr = np.hypot(*(topology.relay_xy - topology.source_xy).T)
    links = [
        *((_ROLE_SOURCE_DEST, j, 0, d_su[j]) for j in range(u)),
        *((_ROLE_SOURCE_RELAY, i, 0, d_sr[i]) for i in range(n)),
        *((_ROLE_RELAY_DEST, i, j, float(np.hypot(*(topology.dest_xy[j] - topology.relay_xy[i]))))
          for i in range(n) for j in range(u)),
    ]
    seed_words = _uint32_words(seed)
    keys = _philox_keys(np.array([[*seed_words, role, a, b] for role, a, b, _ in links], dtype=np.uint32))

    # a fresh generator's state (counter 0, empty buffer), re-keyed per link;
    # its seed is never drawn from
    bitgen = np.random.Philox(0)
    state = bitgen.state
    rng = np.random.Generator(bitgen)
    z = np.empty((len(links), 1 + 2 * length))
    for key, row in zip(keys, z):
        state["state"]["key"] = key
        bitgen.state = state
        rng.standard_normal(out=row)

    # scalar per link, as rng.normal(0, std) and TapProfile.link_variances
    # compute them: numpy's vectorized ** can differ in the last bit
    std = float(profile.shadowing_db_std)
    shadow = [10.0 ** ((0.0 + std * z0) / 10.0) for z0 in z[:, 0].tolist()]
    per_link = np.array([profile.mean_power(d) for *_, d in links]) / profile.variances.sum()
    var = profile.variances * per_link[:, None] * np.array(shadow)[:, None]
    taps = np.sqrt(var / 2.0) * (z[:, 1:1 + length] + 1j * z[:, 1 + length:])

    # C-ordered blocks give C-ordered spectra, the layout to_gains reads
    taps_su = np.ascontiguousarray(taps[:u].T)
    taps_sr = np.ascontiguousarray(taps[u:u + n].T)
    taps_ru = np.ascontiguousarray(taps[u + n:].T).reshape(length, n, u)
    return ChannelRealization(
        num_subcarriers=k,
        freq_su=np.fft.fft(taps_su, n=k, axis=0),
        freq_sr=np.fft.fft(taps_sr, n=k, axis=0),
        freq_ru=np.fft.fft(taps_ru, n=k, axis=0),
        taps_su=taps_su,
        taps_sr=taps_sr,
        taps_ru=taps_ru,
        seed=seed,
    )


def to_gains(realization: ChannelRealization, noise_variance: float) -> GainTable:
    """Squared channel magnitudes over the noise variance."""
    if noise_variance <= 0.0:
        raise ValueError("noise_variance must be positive")
    return GainTable(
        g_su=np.abs(realization.freq_su) ** 2 / noise_variance,
        g_sr=np.abs(realization.freq_sr) ** 2 / noise_variance,
        g_ru=np.abs(realization.freq_ru) ** 2 / noise_variance,
        noise_variance=noise_variance,
    )

