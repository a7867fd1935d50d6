import math

import numpy as np
import pytest

from hetnetsim import phy
from hetnetsim.detectors import zf_rows
from hetnetsim.downlink import Precoder, dl_rate, zf_precode
from hetnetsim.phy import ChannelSet, draw_channels
from hetnetsim.scenario import (
    Association,
    associate,
    build_topology,
    desk_config,
    topology_from_positions,
    ue_classes,
)


def test_single_ue_precoder_is_matched_filter():
    rng = np.random.default_rng(0)
    h = phy.complex_gaussian(rng, (8, 1))
    pre = zf_precode(h, 4.0)
    expected = h[:, 0] / np.linalg.norm(h[:, 0]) * 2.0
    assert np.allclose(pre.w[:, 0], expected)
    assert np.sum(np.abs(pre.w) ** 2) == pytest.approx(4.0)


def test_perfect_csi_nulls_cross_terms():
    rng = np.random.default_rng(1)
    h = phy.complex_gaussian(rng, (8, 2))
    pre = zf_precode(h, 2.0)
    cross = h[:, 0].conj() @ pre.w[:, 1]
    desired = h[:, 0].conj() @ pre.w[:, 0]
    assert abs(cross) ** 2 < 1e-20 * abs(desired) ** 2


def test_pseudo_inverse_diagonalises():
    rng = np.random.default_rng(2)
    h = phy.complex_gaussian(rng, (8, 4))
    pre = zf_precode(h, 4.0)
    response = h.conj().T @ pre.w
    off = response - np.diag(np.diag(response))
    assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(np.diag(response)))


def _normalised_columns(raw, power):
    return raw * (np.sqrt(power / raw.shape[-1]) / np.linalg.norm(raw, axis=-2))[..., None, :]


@pytest.mark.parametrize("shape", [(6, 3), (4, 6, 3), (5, 1)])
def test_zf_precoder_is_the_conjugate_transpose_of_the_zf_rows(shape):
    est = phy.complex_gaussian(np.random.default_rng(12), shape)
    expected = _normalised_columns(zf_rows(est).conj().swapaxes(-1, -2), 2.0)
    assert np.array_equal(zf_precode(est, 2.0).w, expected)


def test_zf_rejects_overloaded_bs():
    with pytest.raises(ValueError, match="antennas"):
        zf_precode(np.ones((2, 3), dtype=complex), 1.0)
    with pytest.raises(ValueError, match="matrix"):
        zf_precode(np.ones(3, dtype=complex), 1.0)


def test_zf_rejects_rank_deficiency():
    h = np.ones((4, 2), dtype=complex)     # two identical columns
    with pytest.raises(np.linalg.LinAlgError):
        zf_precode(h, 1.0)


def _single_ue_system(noise_power):
    rng = np.random.default_rng(3)
    h = phy.complex_gaussian(rng, (16, 1))
    channels = ChannelSet(h_mbs=h, g_sbs=())
    assoc = Association(dl_serving=np.array([0]), ul_serving=np.array([0]),
                        decoupled=np.array([], dtype=int))
    pre = {0: zf_precode(h, 2.0, ue_indices=[0])}
    return h, channels, assoc, pre


def test_single_ue_rate_closed_form():
    n0 = 0.3
    h, channels, assoc, pre = _single_ue_system(n0)
    rates = dl_rate(channels, pre, assoc, n0)
    expected = math.log2(1.0 + 2.0 * np.linalg.norm(h[:, 0]) ** 2 / n0)
    assert rates[0] == pytest.approx(expected, rel=1e-12)
    labels = ue_classes(assoc)
    assert np.mean(rates[labels == "mue"]) == pytest.approx(expected, rel=1e-12)
    assert not np.any(labels == "sue")


def test_zero_precoders_give_zero_rate():
    h, channels, assoc, _ = _single_ue_system(0.1)
    pre = {0: Precoder(w=np.zeros((16, 1), dtype=complex), ue_indices=(0,))}
    rates = dl_rate(channels, pre, assoc, 0.1)
    assert rates[0] == 0.0


def test_rate_monotone_in_noise():
    h, channels, assoc, pre = _single_ue_system(0.1)
    high = dl_rate(channels, pre, assoc, 1.0)[0]
    low = dl_rate(channels, pre, assoc, 0.01)[0]
    assert low > high


def _one_set(topo, cfg, seed) -> ChannelSet:
    """The channel set ``seed`` draws: block 0 of a one-seed stack."""
    stack = draw_channels(topo, cfg, [seed])
    return ChannelSet(h_mbs=stack.h_mbs[0], g_sbs=stack.g_sbs[0])


def test_multi_bs_interference_accounting():
    cfg = desk_config(num_ue=2, num_sbs=1, tau_t=2)
    topo = topology_from_positions(cfg, [(300.0, 0.0)], [(50.0, 0.0), (310.0, 0.0)])
    assoc = associate(topo, cfg)
    channels = _one_set(topo, cfg, 4)
    mbs_ue = np.where(assoc.dl_serving == 0)[0]
    sbs_ue = np.where(assoc.dl_serving == 1)[0]
    precoders = {}
    if len(mbs_ue):
        precoders[0] = zf_precode(channels.h_mbs[:, mbs_ue], cfg.p_mbs_mw, mbs_ue)
    if len(sbs_ue):
        precoders[1] = zf_precode(channels.g_sbs[0][:, sbs_ue], cfg.p_sbs_mw, sbs_ue)
    rates = dl_rate(channels, precoders, assoc, cfg.noise_power_mw)
    # by hand for UE 0: desired from its serving BS, interference from the rest
    k = 0
    serving = int(assoc.dl_serving[k])
    row = (channels.h_mbs[:, k] if serving == 0 else channels.g_sbs[0][:, k]).conj()
    own = precoders[serving]
    col = list(own.ue_indices).index(k)
    desired = abs(row @ own.w[:, col]) ** 2
    interference = 0.0
    for bs, pre in precoders.items():
        crow = (channels.h_mbs[:, k] if bs == 0 else channels.g_sbs[bs - 1][:, k]).conj()
        for c, ue in enumerate(pre.ue_indices):
            if not (bs == serving and ue == k):
                interference += abs(crow @ pre.w[:, c]) ** 2
    expected = math.log2(1.0 + desired / (interference + cfg.noise_power_mw))
    assert rates[k] == pytest.approx(expected, rel=1e-12)


def _triple_loop_sinr(channels, precoders, assoc, noise_power):
    """Reference: per UE, per BS, per stream accumulation of desired and
    interfering power, as dl_rate computed it before vectorisation."""
    k_total = channels.h_mbs.shape[1]
    sinr = np.zeros(k_total)
    for k in range(k_total):
        serving = int(assoc.dl_serving[k])
        desired, interference = 0.0, 0.0
        for bs, pre in precoders.items():
            row = (channels.h_mbs if bs == 0 else channels.g_sbs[bs - 1])[:, k].conj()
            powers = np.abs(row @ pre.w) ** 2
            for col, ue in enumerate(pre.ue_indices):
                if bs == serving and ue == k:
                    desired = powers[col]
                else:
                    interference += powers[col]
        sinr[k] = desired / (interference + noise_power)
    return sinr


def test_dl_rate_matches_triple_loop():
    cfg = desk_config()
    rng = np.random.default_rng(5)
    sbs = np.array([(400.0, 0.0), (-300.0, 300.0), (0.0, -500.0), (600.0, 600.0)])
    ues = np.vstack([sbs[:3] + rng.uniform(-15, 15, (3, 2)),        # near SBSs 0-2
                     sbs[:2] + rng.uniform(-15, 15, (2, 2)),
                     rng.uniform(-200, 200, (5, 2))])                # near the MBS
    topo = topology_from_positions(cfg, sbs, ues)
    assoc = associate(topo, cfg)
    assert 4 not in assoc.dl_serving
    channels = _one_set(topo, cfg, 6)
    precoders = {}
    for bs in sorted(set(assoc.dl_serving.tolist())):
        ues = np.flatnonzero(assoc.dl_serving == bs)
        chan = channels.h_mbs if bs == 0 else channels.g_sbs[bs - 1]
        power = cfg.p_mbs_mw if bs == 0 else cfg.p_sbs_mw
        precoders[bs] = zf_precode(chan[:, ues], power, ue_indices=ues)
    # a stream aimed at a UE another BS serves only ever interferes
    precoders[4] = zf_precode(channels.g_sbs[3][:, :2], cfg.p_sbs_mw, ue_indices=[0, 1])
    assert len(precoders) == 5
    rates = dl_rate(channels, precoders, assoc, cfg.noise_power_mw)
    ref = _triple_loop_sinr(channels, precoders, assoc, cfg.noise_power_mw)
    np.testing.assert_allclose(rates, np.log2(1.0 + ref), rtol=1e-12)


def test_trial_stack_equals_per_trial_precoders_and_rates():
    cfg = desk_config(p_sbs_dbm=40.0)
    topo = build_topology(cfg, 5)
    assoc = associate(topo, cfg)
    channels = draw_channels(topo, cfg, [11, 12, 13])
    sets = {int(v): np.flatnonzero(assoc.dl_serving == v) for v in set(assoc.dl_serving.tolist())}
    assert len(sets) > 1

    def precoders(h_mbs, g_sbs):
        return {v: zf_precode((h_mbs if v == 0 else g_sbs[..., v - 1, :, :])[..., ues],
                              cfg.p_mbs_mw if v == 0 else cfg.p_sbs_mw, ue_indices=ues)
                for v, ues in sets.items()}
    stacked = precoders(channels.h_mbs, channels.g_sbs)
    rates = dl_rate(channels, stacked, assoc, cfg.noise_power_mw)
    assert rates.shape == (3, cfg.num_ue)
    for t in range(3):
        alone = ChannelSet(h_mbs=channels.h_mbs[t], g_sbs=channels.g_sbs[t])
        pre = precoders(alone.h_mbs, alone.g_sbs)
        for v in sets:
            assert np.array_equal(stacked[v].w[t], pre[v].w)
        assert np.array_equal(rates[t], dl_rate(alone, pre, assoc, cfg.noise_power_mw))
