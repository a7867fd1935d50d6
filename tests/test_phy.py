import numpy as np
import pytest

from hetnetsim import phy
from hetnetsim.data_aided import DecodedSideInfo, da_estimate_matrix
from hetnetsim.estimators import despread
from hetnetsim.phy import (
    Phase,
    draw_channels,
    make_pilots,
    observe,
    stream,
)
from hetnetsim.scenario import Topology, desk_config, topology_from_positions


def test_stream_keys_are_independent_and_stable():
    a = stream(1, 0, 0).standard_normal(4)
    b = stream(1, 0, 0).standard_normal(4)
    c = stream(1, 0, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pilot_gram_is_scaled_identity():
    pilots = make_pilots(5, 12, 3.0)
    gram = pilots.s @ pilots.s.conj().T
    assert np.allclose(gram, 12 * 3.0 * np.eye(5), atol=1e-10)
    assert np.allclose(np.abs(pilots.s), np.sqrt(3.0))


def test_single_pilot_row():
    pilots = make_pilots(1, 4, 1.0)
    assert pilots.s.shape == (1, 4)
    assert (pilots.s @ pilots.s.conj().T)[0, 0] == pytest.approx(4.0)


def test_two_point_dft_pilots():
    # oracle: the 2-point DFT rows are [1, 1] and [1, -1], scaled by sqrt(2)
    pilots = make_pilots(2, 2, 2.0)
    expected = np.sqrt(2.0) * np.array([[1, 1], [1, -1]], dtype=complex)
    assert np.allclose(pilots.s, expected)
    assert np.allclose(pilots.s @ pilots.s.conj().T, 4.0 * np.eye(2), atol=1e-12)


def test_pilots_reject_too_many_ues():
    with pytest.raises(ValueError, match="orthogonal"):
        make_pilots(3, 2, 1.0)


@pytest.fixture
def small_topology():
    cfg = desk_config(num_ue=4, num_sbs=2, tau_t=8)
    topo = topology_from_positions(
        cfg, [(100.0, 0.0), (0.0, 400.0)],
        [(50.0, 0.0), (200.0, 100.0), (0.0, 390.0), (-600.0, 0.0)])
    return cfg, topo


def test_draw_channels_shapes_and_determinism(small_topology):
    cfg, topo = small_topology
    a = draw_channels(topo, cfg, [5])
    b = draw_channels(topo, cfg, [5])
    assert a.h_mbs[0].shape == (cfg.mbs_antennas, 4)
    assert len(a.g_sbs[0]) == 2 and a.g_sbs[0][0].shape == (cfg.sbs_antennas, 4)
    assert np.array_equal(a.h_mbs[0], b.h_mbs[0])
    assert np.array_equal(a.g_sbs[0][1], b.g_sbs[0][1])


def test_channel_column_variance_tracks_beta(small_topology):
    cfg, topo = small_topology
    rng = np.random.default_rng(0)
    samples = []
    for _ in range(200):
        h = draw_channels(topo, cfg, [rng]).h_mbs[0]
        samples.append(np.mean(np.abs(h) ** 2, axis=0))
    measured = np.mean(samples, axis=0)
    # 200 draws x 64 antennas = 12800 samples per UE
    assert measured == pytest.approx(topo.beta_mbs, rel=0.05)


def test_zero_gain_gives_zero_column():
    cfg = desk_config(num_ue=2, num_sbs=0, tau_t=2)
    topo = Topology(
        sbs_positions=np.zeros((0, 2)),
        ue_positions=np.array([[10.0, 0.0], [20.0, 0.0]]),
        beta_mbs=np.array([0.0, 1e-8]),
        beta_sbs=np.zeros((0, 2)),
    )
    h = draw_channels(topo, cfg, [1]).h_mbs[0]
    assert np.all(h[:, 0] == 0)
    assert np.any(h[:, 1] != 0)


def test_unit_variance_complex_gaussian():
    rng = np.random.default_rng(3)
    x = phy.complex_gaussian(rng, 100_000, var=1.0)
    assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=0.01)


def test_observe_noiseless_is_exact_product():
    channel = np.arange(6, dtype=complex).reshape(2, 3)
    signal = np.eye(3, dtype=complex)
    obs = observe(channel, signal, 0.0, phy.awgn([1], (2, 3), 0.0)[0], Phase.TRAINING)
    assert np.array_equal(obs.y, channel)


def test_observe_noise_variance():
    channel = np.zeros((50, 1), dtype=complex)
    signal = np.zeros((1, 2000), dtype=complex)
    obs = observe(channel, signal, 1.0, phy.awgn([9], (50, 2000), 1.0)[0], Phase.TRAINING)
    assert np.mean(np.abs(obs.y) ** 2) == pytest.approx(1.0, rel=0.02)


def test_observe_shape_and_mismatch():
    pilots = make_pilots(3, 6, 1.0)
    channel = phy.complex_gaussian(np.random.default_rng(0), (4, 3))
    obs = observe(channel, pilots.s, 1e-3, phy.awgn([2], (4, 6), 1e-3)[0], Phase.TRAINING)
    assert obs.y.shape == (4, 6)
    with pytest.raises(ValueError, match="mismatch"):
        observe(channel, np.zeros((4, 6)), 1e-3, phy.awgn([2], (4, 6), 1e-3)[0], Phase.TRAINING)


def test_joint_rejects_wrong_phases():
    # the despread takes only a training block and da_estimate_matrix only a
    # data block beside it: blocks swapped or doubled are refused
    pilots = make_pilots(2, 2, 1.0)
    side = DecodedSideInfo(x_hat=np.zeros((2, 2)), ber=np.zeros(2), power=1.0)
    train = observe(np.zeros((2, 2)), pilots.s, 0.0, phy.awgn([1], (2, 2), 0.0)[0], Phase.TRAINING)
    data = observe(np.zeros((2, 2)), np.zeros((2, 2)), 0.0, phy.awgn([1], (2, 2), 0.0)[0],
                   Phase.DATA)
    for first, second in ((data, train), (train, train), (data, data)):
        with pytest.raises(ValueError, match=r"(training|data)-phase"):
            da_estimate_matrix(despread(first, pilots), second, pilots, side, (1.0, 1.0), 0.1)


def test_observation_energy_balance():
    # E||Y||_F^2 = E||HS||_F^2 + rows*cols*N0
    rng = np.random.default_rng(8)
    cfg = desk_config(num_ue=3, num_sbs=0, tau_t=4, mbs_antennas=16)
    topo = topology_from_positions(
        cfg, np.zeros((0, 2)), [(100.0, 0.0), (150.0, 0.0), (200.0, 0.0)])
    pilots = make_pilots(3, 4, 1e8)
    n0 = 1.0
    total, signal = [], []
    for _ in range(400):
        h = draw_channels(topo, cfg, [rng]).h_mbs[0]
        obs = observe(h, pilots.s, n0, phy.awgn([rng], (16, 4), n0)[0], Phase.TRAINING)
        total.append(np.sum(np.abs(obs.y) ** 2))
        signal.append(np.sum(np.abs(h @ pilots.s) ** 2))
    expected = np.mean(signal) + 16 * 4 * n0
    assert np.mean(total) == pytest.approx(expected, rel=0.05)


def test_complex_gaussian_matches_the_sum_form_bitwise():
    # filling the real and imaginary parts in place draws exactly what
    # (re + 1j * im) * sqrt(var / 2) gives from the same generator
    x = phy.complex_gaussian(np.random.default_rng(3), (5, 7), var=0.3)
    rng = np.random.default_rng(3)
    ref = (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))) * np.sqrt(0.15)
    assert np.array_equal(x.view(float), ref.view(float))


def test_stacked_observe_hears_what_each_bs_hears_alone():
    rng = np.random.default_rng(4)
    channels = phy.complex_gaussian(rng, (3, 6, 4))
    signal = phy.complex_gaussian(rng, (4, 9))
    seeds = [stream(1, 2, b) for b in range(3)]
    stacked = observe(channels, signal, 0.2, phy.awgn(seeds, (6, 9), 0.2), Phase.DATA)
    assert stacked.y.shape == (3, 6, 9)
    for b in range(3):
        alone = observe(channels[b], signal, 0.2, phy.awgn([stream(1, 2, b)], (6, 9), 0.2)[0],
                        Phase.DATA)
        assert np.array_equal(stacked.y[b], alone.y)
    with pytest.raises(ValueError, match="noise is"):
        observe(channels, signal, 0.2, phy.awgn(seeds[:2], (6, 9), 0.2), Phase.DATA)


@pytest.mark.parametrize("shared", ["pilots", "per-trial"])
def test_a_signal_shared_across_bss_is_heard_as_the_per_bs_2d_products(shared):
    # (T, B, antennas, K) channels and one signal for every BS, (K, n) or
    # (T, 1, K, n): one stacked product, bit for bit the 2-D product of
    # each trial and BS plus its own noise block
    rng = np.random.default_rng(6)
    channels = phy.complex_gaussian(rng, (2, 5, 8, 4))
    signal = phy.complex_gaussian(rng, (4, 7) if shared == "pilots" else (2, 1, 4, 7))
    noise = phy.awgn([stream(3, v) for v in range(10)], (8, 7), 0.2).reshape(2, 5, 8, 7)
    obs = observe(channels, signal, 0.2, noise, Phase.DATA)
    assert obs.y.shape == (2, 5, 8, 7)
    for t in range(2):
        sig = signal if shared == "pilots" else signal[t, 0]
        for b in range(5):
            assert np.array_equal(obs.y[t, b], channels[t, b] @ sig + noise[t, b])
    per_bs = phy.complex_gaussian(rng, (2, 5, 4, 7))           # one block per BS
    with pytest.raises(ValueError, match="dimension mismatch"):
        observe(channels, per_bs, 0.2, noise, Phase.DATA)


def test_trial_stacked_draws_equal_per_seed_draws():
    cfg = desk_config(num_sbs=3, num_ue=4, mbs_antennas=6, sbs_antennas=2)
    topo = topology_from_positions(cfg, [(300.0, 0.0), (0.0, 300.0), (-300.0, 0.0)],
                                   [(50.0, 50.0), (310.0, 5.0), (0.0, 290.0), (-200.0, -200.0)])
    stacked = draw_channels(topo, cfg, [stream(1, t) for t in range(3)])
    assert stacked.h_mbs.shape == (3, 6, 4) and stacked.g_sbs.shape == (3, 3, 2, 4)
    for t in range(3):
        alone = draw_channels(topo, cfg, [stream(1, t)])
        assert np.array_equal(stacked.h_mbs[t], alone.h_mbs[0])
        assert np.array_equal(stacked.g_sbs[t], alone.g_sbs[0])
