"""Stochastic frequency selective channels for a relay aided OFDMA cell.

Every link (source to destination, source to relay, relay to destination) is
an independent Rayleigh tapped delay line. Tap powers decay exponentially and
are normalized so that the total mean received power follows a distance power
law, optionally multiplied by a log-normal shadowing term drawn in dB.
Frequency responses are plain forward DFTs of the zero padded taps, and gains
are squared magnitudes divided by the receiver noise variance.
"""

from __future__ import annotations

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


def _draw_link(rng: np.random.Generator, profile: TapProfile, distance: float) -> np.ndarray:
    """Draw complex taps for one link: shadowing first, then tap gains."""
    shadow = 10.0 ** (rng.normal(0.0, profile.shadowing_db_std) / 10.0)
    var = profile.link_variances(distance) * shadow
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(profile.num_taps) + 1j * rng.standard_normal(profile.num_taps))


def synthesize_realization(
    topology: Topology,
    profile: TapProfile,
    num_subcarriers: int,
    rng_seed: int,
) -> ChannelRealization:
    """Draw one multipath realization of every link in the topology."""
    seed = _check_seed(rng_seed)
    k = int(num_subcarriers)
    if k < profile.num_taps:
        raise ValueError("num_subcarriers must be at least the number of taps")
    n, u = topology.num_relays, topology.num_destinations
    length = profile.num_taps

    d_su = np.hypot(*(topology.dest_xy - topology.source_xy).T)
    d_sr = np.hypot(*(topology.relay_xy - topology.source_xy).T)

    taps_su = np.empty((length, u), dtype=complex)
    for j in range(u):
        taps_su[:, j] = _draw_link(_link_rng(seed, _ROLE_SOURCE_DEST, j, 0), profile, d_su[j])

    taps_sr = np.empty((length, n), dtype=complex)
    for i in range(n):
        taps_sr[:, i] = _draw_link(_link_rng(seed, _ROLE_SOURCE_RELAY, i, 0), profile, d_sr[i])

    taps_ru = np.empty((length, n, u), dtype=complex)
    for i in range(n):
        for j in range(u):
            dist = float(np.hypot(*(topology.dest_xy[j] - topology.relay_xy[i])))
            taps_ru[:, i, j] = _draw_link(_link_rng(seed, _ROLE_RELAY_DEST, i, j), profile, dist)

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

