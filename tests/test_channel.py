"""Channel synthesis: placement, tap statistics, transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relayalloc.channel import (
    GainTable,
    Region,
    TapProfile,
    Topology,
    _philox_keys,
    _uint32_words,
    place_destinations,
    synthesize_realization,
    to_gains,
)

REGION = Region(x_min=-10.0, x_max=10.0, y_min=-30.0, y_max=-10.0)


def _topo(dest=((0.0, -20.0),), relays=((5.0, -5.0),)):
    return Topology(source_xy=(0.0, 0.0), relay_xy=relays, dest_xy=dest)


def test_region_rejects_zero_area():
    with pytest.raises(ValueError):
        Region(x_min=0.0, x_max=0.0, y_min=0.0, y_max=1.0)
    with pytest.raises(ValueError, match="finite"):
        Region(x_min=-math.inf, x_max=0.0, y_min=0.0, y_max=1.0)


def test_placement_inside_region_and_deterministic():
    pts = place_destinations(REGION, 8, 1234)
    assert pts.shape == (8, 2)
    assert np.all(pts[:, 0] >= -10.0) and np.all(pts[:, 0] <= 10.0)
    assert np.all(pts[:, 1] >= -30.0) and np.all(pts[:, 1] <= -10.0)
    np.testing.assert_array_equal(pts, place_destinations(REGION, 8, 1234))
    assert not np.array_equal(pts, place_destinations(REGION, 8, 1235))


def test_placement_validation():
    with pytest.raises(ValueError):
        place_destinations(REGION, 0, 1)
    with pytest.raises(ValueError):
        place_destinations(REGION, 2, -1)


def test_topology_rejects_coincident_nodes():
    with pytest.raises(ValueError):
        Topology(source_xy=(0.0, 0.0), relay_xy=((0.0, 0.0),), dest_xy=((1.0, 1.0),))
    with pytest.raises(ValueError):
        Topology(source_xy=(0.0, 0.0), relay_xy=((1.0, 0.0),), dest_xy=((1.0, 0.0),))
    with pytest.raises(ValueError, match=r"on link relay1->dest2$"):
        Topology(source_xy=(0.0, 0.0), relay_xy=((1.0, 0.0), (2.0, 0.0)),
                 dest_xy=((5.0, 5.0), (6.0, 6.0), (2.0, 0.0)))
    # source->relay links come first, then source->dest, then relay->dest
    # row major: relay0->dest0 coincides too
    with pytest.raises(ValueError, match=r"on link source->dest1$"):
        Topology(source_xy=(0.0, 0.0), relay_xy=((1.0, 0.0),), dest_xy=((1.0, 0.0), (0.0, 0.0)))


def test_profile_validation():
    with pytest.raises(ValueError):
        TapProfile(variances=np.array([1.0, 2.0]))  # not decreasing
    with pytest.raises(ValueError):
        TapProfile(variances=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        TapProfile.exponential(num_taps=0)
    with pytest.raises(ValueError):
        TapProfile.exponential(shadowing_db_std=-1.0)


def test_exponential_profile_power_sum():
    prof = TapProfile.exponential(num_taps=6, decay=3.0)
    want = (1.0 - math.exp(-18.0)) / (1.0 - math.exp(-3.0))
    assert math.isclose(float(prof.variances.sum()), want, rel_tol=1e-12)
    # absolute link variances renormalize to the path loss power
    var = prof.link_variances(10.0)
    assert math.isclose(float(var.sum()), 1e-3, rel_tol=1e-12)
    assert math.isclose(prof.mean_power(20.0), 1e-3 / 8.0, rel_tol=1e-12)


def test_single_tap_channel_is_flat():
    prof = TapProfile.exponential(num_taps=1)
    real = synthesize_realization(_topo(), prof, 16, 7)
    mags = np.abs(real.freq_su[:, 0])
    np.testing.assert_allclose(mags, mags[0], rtol=1e-12)


def test_synthesis_determinism_and_seed_sensitivity():
    prof = TapProfile.exponential()
    a = synthesize_realization(_topo(), prof, 32, 99)
    b = synthesize_realization(_topo(), prof, 32, 99)
    np.testing.assert_array_equal(a.freq_su, b.freq_su)
    np.testing.assert_array_equal(a.freq_ru, b.freq_ru)
    c = synthesize_realization(_topo(), prof, 32, 100)
    assert not np.array_equal(a.freq_su, c.freq_su)


def test_link_streams_are_independent():
    # equidistant links with different roles must not share a draw
    topo = Topology(source_xy=(0.0, 0.0), relay_xy=((10.0, 0.0),), dest_xy=((0.0, 10.0),))
    real = synthesize_realization(topo, TapProfile.exponential(), 16, 5)
    assert not np.allclose(real.taps_su[:, 0], real.taps_sr[:, 0])


def test_frequency_response_is_dft_of_taps():
    prof = TapProfile.exponential()
    real = synthesize_realization(_topo(), prof, 64, 11)
    taps_back = np.fft.ifft(real.freq_su[:, 0])
    np.testing.assert_allclose(taps_back[:6], real.taps_su[:, 0], rtol=1e-10, atol=1e-18)
    np.testing.assert_allclose(taps_back[6:], 0.0, atol=1e-12)


def test_requires_enough_subcarriers():
    with pytest.raises(ValueError):
        synthesize_realization(_topo(), TapProfile.exponential(num_taps=6), 4, 1)


def test_mean_attenuation_statistics():
    # source->dest and source->relay both at 10 m: mean subcarrier power
    # should approach the configured 30 dB attenuation
    topo = Topology(source_xy=(0.0, 0.0), relay_xy=((10.0, 0.0),), dest_xy=((0.0, 10.0),))
    prof = TapProfile.exponential()
    acc = 0.0
    draws = 10_000
    for seed in range(draws):
        real = synthesize_realization(topo, prof, 16, seed)
        acc += float(np.mean(np.abs(real.freq_su[:, 0]) ** 2))
        acc += float(np.mean(np.abs(real.freq_sr[:, 0]) ** 2))
    mean_power = acc / (2 * draws)
    assert abs(mean_power - 1e-3) <= 0.05e-3


def test_shadowing_changes_draws_but_keeps_streams():
    base = TapProfile.exponential()
    shadowed = TapProfile.exponential(shadowing_db_std=8.0)
    a = synthesize_realization(_topo(), base, 16, 3)
    b = synthesize_realization(_topo(), shadowed, 16, 3)
    # same seed, same generator stream: only the scale differs per link
    ratio = np.abs(b.taps_su[:, 0]) / np.abs(a.taps_su[:, 0])
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


def test_to_gains_normalizes_by_noise():
    real = synthesize_realization(_topo(), TapProfile.exponential(), 16, 13)
    g = to_gains(real, 1e-3)
    np.testing.assert_allclose(g.g_su, np.abs(real.freq_su) ** 2 / 1e-3, rtol=1e-12)
    with pytest.raises(ValueError):
        to_gains(real, 0.0)


def test_gain_table_shape_validation():
    with pytest.raises(ValueError):
        GainTable(g_su=np.ones((4, 2)), g_sr=np.ones((3, 1)), g_ru=np.ones((4, 1, 2)))
    with pytest.raises(ValueError):
        GainTable(g_su=-np.ones((2, 2)), g_sr=np.ones((2, 1)), g_ru=np.ones((2, 1, 2)))
    with pytest.raises(ValueError, match="finite"):
        GainTable(g_su=np.ones((2, 2)), g_sr=np.full((2, 1), np.inf), g_ru=np.ones((2, 1, 2)))
    with pytest.raises(ValueError, match="one relay"):
        GainTable(g_su=np.ones((2, 2)), g_sr=np.ones((2, 0)), g_ru=np.ones((2, 0, 2)))


_SMALL_ENDS = st.tuples(st.integers(0, 3), st.integers(0, 40), st.integers(0, 40))


@pytest.mark.parametrize(
    "seeds, ends",
    [
        (st.integers(0, 2**64 - 1), _SMALL_ENDS),  # one or two seed words
        (st.integers(2**64, 2**200), _SMALL_ENDS),  # three or more
        (st.integers(0, 2**64 - 1), st.tuples(st.integers(0, 3), st.integers(0, 2**32 - 1),
                                              st.integers(0, 2**32 - 1))),
    ],
    ids=["seed_below_2_64", "seed_from_2_64", "endpoints_to_2_32"],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_batched_keys_equal_seed_sequence_keys(seeds, ends, data):
    seed = data.draw(seeds, label="seed")
    links = data.draw(st.lists(ends, min_size=1, max_size=12), label="links")
    entropy = np.array([[*_uint32_words(seed), *link] for link in links], dtype=np.uint32)
    want = [np.random.SeedSequence(entropy=[seed, *link]).generate_state(2, np.uint64) for link in links]
    np.testing.assert_array_equal(_philox_keys(entropy), np.array(want))


def _seed_sequence_stream(seed, role, a, b):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=[seed, role, a, b])))


def _placement_reference(region, count, seed):
    """Reference placement: x then y uniforms from the placement role's stream."""
    rng = _seed_sequence_stream(seed, 3, 0, 0)
    x = rng.uniform(region.x_min, region.x_max, size=count)
    y = rng.uniform(region.y_min, region.y_max, size=count)
    return np.column_stack([x, y])


def _link_by_link(topology, profile, num_subcarriers, seed):
    """Reference synthesis: one ``Philox(SeedSequence([seed, role, a, b]))``
    per link, drawing its shadowing, then the real and imaginary tap parts."""
    def draw(role, a, b, distance):
        rng = _seed_sequence_stream(seed, role, a, b)
        shadow = 10.0 ** (rng.normal(0.0, profile.shadowing_db_std) / 10.0)
        var = profile.link_variances(distance) * shadow
        scale = np.sqrt(var / 2.0)
        return scale * (rng.standard_normal(profile.num_taps) + 1j * rng.standard_normal(profile.num_taps))

    n, u, length = topology.num_relays, topology.num_destinations, profile.num_taps
    d_su = np.hypot(*(topology.dest_xy - topology.source_xy).T)
    d_sr = np.hypot(*(topology.relay_xy - topology.source_xy).T)
    taps_su = np.empty((length, u), dtype=complex)
    for j in range(u):
        taps_su[:, j] = draw(0, j, 0, d_su[j])
    taps_sr = np.empty((length, n), dtype=complex)
    for i in range(n):
        taps_sr[:, i] = draw(1, i, 0, d_sr[i])
    taps_ru = np.empty((length, n, u), dtype=complex)
    for i in range(n):
        for j in range(u):
            dist = float(np.hypot(*(topology.dest_xy[j] - topology.relay_xy[i])))
            taps_ru[:, i, j] = draw(2, i, j, dist)
    return {
        "taps_su": taps_su, "taps_sr": taps_sr, "taps_ru": taps_ru,
        "freq_su": np.fft.fft(taps_su, n=num_subcarriers, axis=0),
        "freq_sr": np.fft.fft(taps_sr, n=num_subcarriers, axis=0),
        "freq_ru": np.fft.fft(taps_ru, n=num_subcarriers, axis=0),
    }


@st.composite
def _synthesis_inputs(draw):
    # relays sit in y in [-10, -1] and destinations below y = -11, so no link
    # has zero length
    def points(count, y_min, y_max):
        return draw(st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(y_min, y_max)),
                             min_size=count, max_size=count))

    topology = Topology(source_xy=(0.0, 0.0), relay_xy=points(draw(st.integers(1, 4)), -10.0, -1.0),
                        dest_xy=points(draw(st.integers(1, 32)), -60.0, -11.0))
    profile = TapProfile.exponential(
        num_taps=draw(st.integers(1, 8)),
        decay=draw(st.floats(1e-3, 50.0)),
        shadowing_db_std=draw(st.one_of(st.just(0.0), st.floats(1e-3, 20.0))),
    )
    k = draw(st.integers(profile.num_taps, 256))
    seed = draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1), st.integers(2**64, 2**128)))
    return topology, profile, k, seed


@settings(max_examples=150, deadline=None)
@given(_synthesis_inputs())
def test_synthesis_equals_link_by_link_reference(inputs):
    topology, profile, k, seed = inputs
    real = synthesize_realization(topology, profile, k, seed)
    want = _link_by_link(topology, profile, k, seed)
    for name, arr in want.items():
        got = getattr(real, name)
        assert got.shape == arr.shape and np.array_equal(got, arr), name
        # to_gains reads the spectra; keep the reference's C order too
        assert got.flags.c_contiguous, name
    assert (real.num_subcarriers, real.seed) == (k, seed)
    # placement keys its own generator with the placement role's stream
    count = topology.num_destinations
    assert np.array_equal(place_destinations(REGION, count, seed), _placement_reference(REGION, count, seed))


def test_taps_are_pinned():
    # float.hex of a few taps of one shadowed draw with a two-word seed: a
    # change of streams fails here even if the reference above changes with it
    topo = Topology(source_xy=(0.0, 0.0), relay_xy=((5.0, -5.0), (-15.0, -5.0)),
                    dest_xy=((0.0, -20.0), (3.0, -12.0), (-8.0, -25.0)))
    prof = TapProfile.exponential(num_taps=3, shadowing_db_std=8.0)
    real = synthesize_realization(topo, prof, 16, 2**63 + 12345)
    pins = [
        (real.taps_su[0, 2], "0x1.922d23c9b7d30p-9", "-0x1.d4ac5d4f1e568p-8"),
        (real.taps_sr[2, 1], "-0x1.2aebfbb308e74p-13", "-0x1.2e3fcead648e4p-14"),
        (real.taps_ru[1, 1, 2], "0x1.f232dc239cfa0p-13", "0x1.67a63f47c9977p-10"),
        (real.taps_ru[0, 0, 0], "-0x1.09e11a383669cp-6", "0x1.8bc8d0c93354bp-7"),
    ]
    for tap, re, im in pins:
        assert (float(tap.real).hex(), float(tap.imag).hex()) == (re, im)
    # and the placement of three destinations with the same seed
    placed = place_destinations(REGION, 3, 2**63 + 12345)
    assert [float(v).hex() for v in placed[0]] == ["-0x1.087a966af3a8ap+2", "-0x1.4af8c6f578da0p+4"]
    assert [float(v).hex() for v in placed[2]] == ["-0x1.b6d2a66f05019p+2", "-0x1.c71f270fb63c8p+3"]
