"""Channel synthesis: placement, tap statistics, transforms."""

import math

import numpy as np
import pytest

from relayalloc.channel import (
    GainTable,
    Region,
    TapProfile,
    Topology,
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
    assert g.noise_variance == 1e-3
    with pytest.raises(ValueError):
        to_gains(real, 0.0)


def test_gain_table_shape_validation():
    with pytest.raises(ValueError):
        GainTable(g_su=np.ones((4, 2)), g_sr=np.ones((3, 1)), g_ru=np.ones((4, 1, 2)))
    with pytest.raises(ValueError):
        GainTable(g_su=-np.ones((2, 2)), g_sr=np.ones((2, 1)), g_ru=np.ones((2, 1, 2)))

