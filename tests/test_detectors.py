import dataclasses
import logging
from types import SimpleNamespace

import numpy as np
import pytest

from hetnetsim import experiments, phy
from hetnetsim.ber_analytic import effective_rho, q_function
from hetnetsim.detectors import (
    CombinerKind,
    Modulation,
    _GRAY,
    _slice,
    build_combiner,
    detect,
    detect_all,
    mmse_sinr,
    modulate,
    random_bits,
    zf_rows,
)
from hetnetsim.phy import Observation, Phase, observe


def test_bpsk_amplitude():
    block = modulate(np.array([[0, 1]]), Modulation.BPSK, 4.0)
    assert np.allclose(block.symbols, [[2.0, -2.0]])


def test_qam4_constellation():
    bits = np.array([[0, 0, 0, 1, 1, 0, 1, 1]])
    block = modulate(bits, Modulation.QAM4, 2.0)
    assert np.allclose(block.symbols, [[1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]])


def test_modulate_rejects_ragged_bits():
    with pytest.raises(ValueError, match="multiple"):
        modulate(np.zeros((2, 3), dtype=int), Modulation.QAM4, 1.0)


@pytest.mark.parametrize("scheme", [Modulation.BPSK, Modulation.QAM4, Modulation.QAM16])
def test_average_symbol_power_is_p_d(scheme):
    bits = random_bits(4, 25_000, scheme, 11)
    block = modulate(bits, scheme, 3.0)
    assert np.mean(np.abs(block.symbols) ** 2) == pytest.approx(3.0, rel=0.01)


def test_modulation_round_trip_through_slicer():
    for scheme in Modulation:
        bits = random_bits(2, 64, scheme, 5)
        block = modulate(bits, scheme, 2.5)
        decoded, symbols = _slice(block.symbols, scheme, 2.5)
        assert np.array_equal(decoded, bits)
        assert np.allclose(symbols, block.symbols)


# 16-QAM at P_D = 10 has unit scale.  Each axis maps the Gray codes 00, 01,
# 11, 10 to -3, -1, 1, 3; the first two bits pick I, the last two Q.  Listed
# I level major and Q level minor, as the constellation lists its points.
_QAM16_AT_10 = {
    "0000": -3 - 3j, "0001": -3 - 1j, "0011": -3 + 1j, "0010": -3 + 3j,
    "0100": -1 - 3j, "0101": -1 - 1j, "0111": -1 + 1j, "0110": -1 + 3j,
    "1100": 1 - 3j, "1101": 1 - 1j, "1111": 1 + 1j, "1110": 1 + 3j,
    "1000": 3 - 3j, "1001": 3 - 1j, "1011": 3 + 1j, "1010": 3 + 3j,
}


def _bits_of(patterns):
    return np.array([[int(b) for b in "".join(patterns)]])


def test_qam16_gray_map_at_unit_scale():
    patterns, points = list(_QAM16_AT_10), list(_QAM16_AT_10.values())
    block = modulate(_bits_of(patterns), Modulation.QAM16, 10.0)
    assert np.array_equal(block.symbols[0], points)
    gray = _GRAY[Modulation.QAM16]
    assert np.array_equal(gray.points, points)
    assert ["".join(map(str, row)) for row in gray.bits] == patterns


@pytest.mark.parametrize("scheme,p_d", [(Modulation.BPSK, 1.0), (Modulation.QAM4, 2.0)])
def test_binary_axes_decide_plus_at_zero(scheme, p_d):
    # unit scale; a zero of either sign on an axis decides +1 there
    symbols = np.array([[complex(0.0, 0.0), complex(-0.0, -0.0), complex(-0.0, 0.0),
                         complex(0.0, -0.0), complex(-0.0, -0.7), complex(-0.7, 0.0)]])
    bits, points = _slice(symbols, scheme, p_d)
    if scheme is Modulation.BPSK:
        assert np.array_equal(points[0], [1, 1, 1, 1, 1, -1])
        assert np.array_equal(bits, [[0, 0, 0, 0, 0, 1]])
    else:
        assert np.array_equal(points[0], [1 + 1j, 1 + 1j, 1 + 1j, 1 + 1j, 1 - 1j, -1 + 1j])
        assert np.array_equal(bits, [[0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0]])


def test_qam16_decides_the_lower_level_on_every_edge():
    # unit scale; each edge, of either zero sign, against itself, the other
    # edges and ordinary coordinates
    decided = {-2.0: -3, 0.0: -1, 2.0: 1, -3.3: -3, 0.4: 1, 2.6: 3}
    axis = [-2.0, 0.0, -0.0, 2.0, -3.3, 0.4, 2.6]
    symbols = np.array([[complex(i, q) for i in axis for q in axis]])
    expected = [complex(decided[i], decided[q]) for i in axis for q in axis]
    pattern = {point: bits for bits, point in _QAM16_AT_10.items()}
    bits, points = _slice(symbols, Modulation.QAM16, 10.0)
    assert np.array_equal(points[0], expected)
    assert np.array_equal(bits, _bits_of(pattern[p] for p in expected))


def _toy_estimates(n_ant, betas, seed):
    rng = np.random.default_rng(seed)
    betas = np.asarray(betas, dtype=float)
    return phy.complex_gaussian(rng, (n_ant, len(betas))) * np.sqrt(betas)[None, :]


def test_zf_equals_mrc_for_single_ue():
    est = _toy_estimates(4, [1.0], 0)
    args = ([1.0], 1.0, 4, 1.0, 0.1)
    zf = build_combiner(CombinerKind.ZF, est, *args)
    mrc = build_combiner(CombinerKind.MRC, est, *args)
    assert np.allclose(zf.c, mrc.c, rtol=1e-12)


@pytest.mark.parametrize("shape,pad", [
    ((6, 3), None), ((4, 6, 3), None), ((2, 3, 6, 4), [[False, False, True, True],
                                                      [False, False, False, True],
                                                      [False, False, False, False]])])
def test_zf_combiner_rows_are_the_zf_rows(shape, pad):
    # 2-D, a stack of BSs, and a trial stack of padded BS stacks
    est = phy.complex_gaussian(np.random.default_rng(23), shape)
    comb = build_combiner(CombinerKind.ZF, est, np.ones(shape[-1]), 1.3, 8, 2.0, 0.05, pad=pad)
    if pad is not None:
        pad = np.asarray(pad)
        est = np.where(pad[..., None, :], 0.0, est)
        assert not comb.c[..., pad, :].any()
    assert np.array_equal(comb.c, zf_rows(est, pad))


def test_mrc_is_matched_filter_direction():
    est = _toy_estimates(6, [2.0], 1)
    mrc = build_combiner(CombinerKind.MRC, est, [2.0], 1.0, 4, 1.0, 0.1)
    expected = est[:, 0].conj() / np.sum(np.abs(est[:, 0]) ** 2)
    assert np.allclose(mrc.c[0], expected)
    assert mrc.gain[0] == pytest.approx(1.0)


def test_mmse_combiner_matches_covariance_assembly():
    # oracle: rows of the linear MMSE solve E[y y^H] c = E[y x_k^*] built
    # from the estimate-plus-error signal model
    betas = np.array([1.0, 0.4])
    n0, p_t, tau_t, p_d = 0.3, 2.0, 4, 1.5
    est = _toy_estimates(2, [0.8, 0.3], 2)
    comb = build_combiner(CombinerKind.MMSE, est, betas, p_t, tau_t, p_d, n0)
    err = np.sum(n0 * betas / (n0 + betas * p_t * tau_t))
    r_y = p_d * (est @ est.conj().T) + (p_d * err + n0) * np.eye(2)
    for k in range(2):
        r_xy = p_d * est[:, k]
        expected = np.linalg.solve(r_y, r_xy).conj()
        assert np.allclose(comb.c[k], expected, rtol=1e-10)


def test_mmse_limit_is_matched_filter():
    # no interferers, small noise: the MMSE row aligns with the MRC row
    # (regulariser kept >= 1e-6 so the rank-1 solve stays well conditioned)
    est = _toy_estimates(4, [1.0], 3)
    comb = build_combiner(CombinerKind.MMSE, est, [1.0], 1e3, 64, 1e3, 1e-3)
    mrc = build_combiner(CombinerKind.MRC, est, [1.0], 1e3, 64, 1e3, 1e-3)
    cosine = np.abs(np.vdot(comb.c[0], mrc.c[0])) / (
        np.linalg.norm(comb.c[0]) * np.linalg.norm(mrc.c[0]))
    assert cosine == pytest.approx(1.0, abs=1e-9)


def test_noiseless_single_ue_detection_is_error_free():
    est = _toy_estimates(4, [1.0], 5)
    bits = random_bits(1, 128, Modulation.BPSK, 6)
    block = modulate(bits, Modulation.BPSK, 1.0)
    obs = observe(est, block.symbols, 0.0, phy.awgn(7, (4, 128), 0.0), Phase.DATA)
    comb = build_combiner(CombinerKind.MRC, est, [1.0], 1.0, 4, 1.0, 1e-9)
    decoded, ber = detect(obs, comb, block, 0)
    assert ber == 0.0
    assert np.array_equal(decoded, bits[0])


def test_detect_requires_data_phase():
    est = _toy_estimates(2, [1.0], 8)
    block = modulate(random_bits(1, 4, Modulation.BPSK, 1), Modulation.BPSK, 1.0)
    obs = observe(est, block.symbols, 0.0, phy.awgn(1, (2, 4), 0.0), Phase.TRAINING)
    comb = build_combiner(CombinerKind.MRC, est, [1.0], 1.0, 2, 1.0, 0.1)
    with pytest.raises(ValueError, match="data"):
        detect(obs, comb, block, 0)


def test_pure_noise_detection_is_coin_flip():
    channel = np.zeros((2, 1), dtype=complex)
    bits = random_bits(1, 10_000, Modulation.BPSK, 9)
    block = modulate(bits, Modulation.BPSK, 1.0)
    obs = observe(channel, block.symbols, 1.0, phy.awgn(10, (2, 10_000), 1.0), Phase.DATA)
    fake_est = np.ones((2, 1), dtype=complex)
    comb = build_combiner(CombinerKind.MRC, fake_est, [1.0], 1.0, 2, 1.0, 1.0)
    _, ber = detect(obs, comb, block, 0)
    assert ber == pytest.approx(0.5, abs=0.02)


def test_awgn_bpsk_ber_matches_q_function():
    # textbook oracle: scalar channel, SNR gamma -> BER = Q(sqrt(2 gamma))
    gamma = 4.0
    p_d, n0 = 1.0, 1.0 / gamma
    channel = np.ones((1, 1), dtype=complex)
    bits = random_bits(1, 200_000, Modulation.BPSK, 11)
    block = modulate(bits, Modulation.BPSK, p_d)
    obs = observe(channel, block.symbols, n0, phy.awgn(12, (1, 200_000), n0), Phase.DATA)
    comb = build_combiner(CombinerKind.MRC, channel, [1.0], 1.0, 1, p_d, n0)
    _, ber = detect(obs, comb, block, 0)
    expected = float(q_function(np.sqrt(2 * gamma)))
    assert ber == pytest.approx(expected, rel=0.15)


def test_bpsk_decisions_scale_invariant():
    est = _toy_estimates(4, [1.0, 0.5], 13)
    bits = random_bits(2, 64, Modulation.BPSK, 14)
    block = modulate(bits, Modulation.BPSK, 1.0)
    obs = observe(est, block.symbols, 0.5, phy.awgn(15, (4, 64), 0.5), Phase.DATA)
    comb = build_combiner(CombinerKind.MMSE, est, [1.0, 0.5], 1.0, 4, 1.0, 0.2)
    scaled = type(comb)(c=3.7 * comb.c, kind=comb.kind,
                        ue_indices=comb.ue_indices, gain=3.7 * comb.gain)
    for k in range(2):
        a, _ = detect(obs, comb, block, k)
        b, _ = detect(obs, scaled, block, k)
        assert np.array_equal(a, b)


def test_detect_all_matches_detect():
    est = _toy_estimates(4, [1.0, 0.5, 0.2], 16)
    bits = random_bits(3, 32, Modulation.QAM4, 17)
    block = modulate(bits, Modulation.QAM4, 2.0)
    obs = observe(est, block.symbols, 0.05, phy.awgn(18, (4, 32), 0.05), Phase.DATA)
    comb = build_combiner(CombinerKind.MMSE, est, [1.0, 0.5, 0.2], 1.0, 4, 2.0, 0.05)
    all_bits, _, all_ber = detect_all(obs, comb, block)
    for k in range(3):
        bits_k, ber_k = detect(obs, comb, block, k)
        assert np.array_equal(all_bits[k], bits_k)
        assert all_ber[k] == pytest.approx(ber_k)


def test_matrix_sinr_equals_combiner_decomposition():
    # Eq.-(26)-style matrix identity vs the explicit signal/interference
    # split of the MMSE combiner output, on random toy instances
    rng = np.random.default_rng(19)
    for _ in range(10):
        n_ant, k_total = 2, 3
        betas = rng.uniform(0.2, 2.0, size=k_total)
        est = phy.complex_gaussian(rng, (n_ant, k_total)) * np.sqrt(betas)
        p_t, tau_t, p_d, n0 = 1.3, 5, 0.9, 0.4
        rho = effective_rho(betas, p_t, tau_t, n0, p_d)
        matrix_form = mmse_sinr(est, rho)
        comb = build_combiner(CombinerKind.MMSE, est, betas, p_t, tau_t, p_d, n0)
        for k in range(k_total):
            row = comb.c[k]
            signal = np.abs(row @ est[:, k]) ** 2
            interf = sum(np.abs(row @ est[:, i]) ** 2 for i in range(k_total) if i != k)
            noise = np.sum(np.abs(row) ** 2) / rho
            assert matrix_form[k] == pytest.approx(signal / (interf + noise), rel=1e-9)


# --- stacked (leading BS axis) kernels against their 2-D and reference forms


def _argmin_slice(symbols, scheme, p_d):
    """Reference slicer: nearest constellation point by argmin, ties to the
    point listed first."""
    gray = _GRAY[scheme]
    points, table = np.sqrt(p_d / gray.energy) * gray.points, gray.bits
    idx = np.argmin(np.abs(symbols[..., None] - points) ** 2, axis=-1)
    return table[idx].reshape(*idx.shape[:-1], -1), points[idx]


@pytest.mark.parametrize("scheme", list(Modulation))
def test_slice_matches_argmin_on_random_points(scheme):
    rng = np.random.default_rng(20)
    p_d = 2.7
    symbols = phy.complex_gaussian(rng, (3, 5, 64), var=4.0 * p_d)
    bits, points = _slice(symbols, scheme, p_d)
    ref_bits, ref_points = _argmin_slice(symbols, scheme, p_d)
    assert np.array_equal(bits, ref_bits)
    assert np.array_equal(points, ref_points)


@pytest.mark.parametrize("scheme,p_d,edges", [
    (Modulation.BPSK, 1.0, (0.0,)),
    (Modulation.QAM4, 2.0, (0.0,)),
    (Modulation.QAM16, 10.0, (-2.0, 0.0, 2.0)),
])
def test_slice_breaks_boundary_ties_like_argmin(scheme, p_d, edges):
    # unit-scaled levels (+-1, +-3), so distances to the points either side
    # of an edge tie exactly; the grid covers every edge, every corner and
    # the edges crossed with ordinary coordinates
    axis = np.array(sorted(set(edges) | {-0.0, -3.3, -1.0, 0.4, 1.0, 2.6}))
    symbols = (axis[:, None] + 1j * axis[None, :]).reshape(1, -1)
    bits, points = _slice(symbols, scheme, p_d)
    ref_bits, ref_points = _argmin_slice(symbols, scheme, p_d)
    assert np.array_equal(bits, ref_bits)
    assert np.array_equal(points, ref_points)


def _stack_setup(n_bs, n_ant, k_total, seed):
    rng = np.random.default_rng(seed)
    betas = rng.uniform(0.2, 2.0, size=(n_bs, k_total))
    est = phy.complex_gaussian(rng, (n_bs, n_ant, k_total)) * np.sqrt(betas)[:, None, :]
    bits = random_bits(k_total, 48, Modulation.QAM16, seed)
    block = modulate(bits, Modulation.QAM16, 2.0)
    channel = est + 0.1 * phy.complex_gaussian(rng, est.shape)
    noise = phy.awgn([seed + b for b in range(n_bs)], (n_ant, 48), 0.05)
    obs = observe(channel, block.symbols, 0.05, noise, Phase.DATA)
    return betas, est, block, obs


@pytest.mark.parametrize("kind", list(CombinerKind))
@pytest.mark.parametrize("n_ant,k_total", [(16, 5), (4, 4), (3, 7)])
def test_stacked_combiner_and_detection_equal_separate_calls(kind, n_ant, k_total):
    betas, est, block, obs = _stack_setup(3, n_ant, k_total, 21)
    args = (1.3, 8, 2.0, 0.05)
    if kind is CombinerKind.ZF and k_total > n_ant:
        # at 3 antennas and 7 UEs, ZF refuses in both forms
        for e, b in ((est, betas), (est[0], betas[0])):
            with pytest.raises(ValueError, match="7 UEs with 3 antennas"):
                build_combiner(kind, e, b, *args)
        return
    stacked = build_combiner(kind, est, betas, *args)
    bits, symbols, ber = detect_all(obs, stacked, block)
    for b in range(3):
        single = build_combiner(kind, est[b], betas[b], *args)
        assert single.kind is stacked.kind
        scale = np.abs(single.c).max()
        np.testing.assert_allclose(stacked.c[b], single.c, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(stacked.gain[b], single.gain, rtol=1e-12)
        obs_b = Observation(y=obs.y[b], phase=Phase.DATA, noise_power=obs.noise_power)
        bits_b, symbols_b, ber_b = detect_all(obs_b, single, block)
        assert np.array_equal(bits[b], bits_b)
        assert np.array_equal(symbols[b], symbols_b)
        assert np.array_equal(ber[b], ber_b)


def test_stacked_detection_takes_one_row_set_per_bs():
    betas, est, block, obs = _stack_setup(2, 8, 6, 22)
    comb = build_combiner(CombinerKind.MMSE, est, betas, 1.3, 8, 2.0, 0.05)
    pick = np.array([[4, 1], [0, 0]])
    rows = dataclasses.replace(
        comb, c=np.take_along_axis(comb.c, pick[..., None], axis=1),
        gain=np.take_along_axis(comb.gain, pick, axis=1), ue_indices=((4, 1), (0, 0)))
    bits, _, ber = detect_all(obs, rows, block)
    full_bits, _, full_ber = detect_all(obs, comb, block)
    for b in range(2):
        assert np.array_equal(bits[b], full_bits[b][pick[b]])
        assert np.array_equal(ber[b], full_ber[b][pick[b]])


@pytest.mark.parametrize("n_ant,k_total", [(64, 6), (4, 10)])
def test_mmse_rows_equal_the_antenna_domain_solve(n_ant, k_total):
    # push-through: (G G^H + r I)^-1 G = G (G^H G + r I)^-1, either way round
    rng = np.random.default_rng(23)
    betas = rng.uniform(0.2, 2.0, size=k_total)
    est = phy.complex_gaussian(rng, (n_ant, k_total)) * np.sqrt(betas)
    args = (1.3, 8, 0.9, 0.4)
    comb = build_combiner(CombinerKind.MMSE, est, betas, *args)
    reg = 1.0 / effective_rho(betas, 1.3, 8, 0.4, 0.9)
    ref = np.linalg.solve(est @ est.conj().T + reg * np.eye(n_ant), est).conj().T
    np.testing.assert_allclose(comb.c, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


# served sets of four BSs with 4 antennas: lengths 1, 3, 4 and 2 (ragged),
# and a fifth BS that serves 6 UEs and cannot zero-force them
_SERVED = [(2,), (0, 5, 7), (1, 3, 4, 8), (6, 9), (0, 1, 2, 3, 4, 5)]


def _padded(est, served):
    """Each BS's served columns of ``est``, padded to the longest set with
    column 0, and the mask of the padded columns."""
    width = max(map(len, served))
    cols = np.array([list(u) + [0] * (width - len(u)) for u in served])
    pad = np.arange(width) >= np.array([len(u) for u in served])[:, None]
    return np.take_along_axis(est, cols[:, None, :], -1), pad


@pytest.mark.parametrize("kind", list(CombinerKind))
def test_ragged_served_sets_equal_per_bs_calls(kind):
    betas, est, block, obs = _stack_setup(4, 4, 10, 24)
    args = (1.3, 8, 2.0, 0.05)
    served = _SERVED[:4]
    padded, pad = _padded(est, served)
    stacked = build_combiner(kind, padded, betas, *args, pad=pad)
    assert stacked.kind is kind
    # each BS keeps its served rows, shorter sets repeating their last row
    width = max(map(len, served))
    pick = np.array([np.minimum(np.arange(width), len(u) - 1) for u in served])
    kept = dataclasses.replace(
        stacked, c=np.take_along_axis(stacked.c, pick[..., None], axis=1),
        gain=np.take_along_axis(stacked.gain, pick, axis=1),
        ue_indices=tuple(tuple(np.array(u)[i]) for u, i in zip(served, pick)))
    bits, symbols, ber = detect_all(obs, kept, block)
    for b, ues in enumerate(served):
        single = build_combiner(kind, est[b][:, list(ues)], betas[b], *args, ue_indices=ues)
        n = len(ues)
        np.testing.assert_allclose(stacked.c[b][:n], single.c, rtol=0,
                                   atol=1e-12 * np.abs(single.c).max())
        np.testing.assert_allclose(stacked.gain[b][:n], single.gain, rtol=1e-12)
        # the padded rows are zero
        assert not np.any(stacked.c[b][n:]) and not np.any(stacked.gain[b][n:])
        obs_b = Observation(y=obs.y[b], phase=Phase.DATA, noise_power=obs.noise_power)
        bits_b, symbols_b, ber_b = detect_all(obs_b, single, block)
        assert np.array_equal(bits[b][:n], bits_b)
        assert np.array_equal(symbols[b][:n], symbols_b)
        assert np.array_equal(ber[b][:n], ber_b)


def test_mrc_rows_on_every_column_equal_served_rows():
    # an MRC row depends on its own column only, so rows built on all K
    # columns and picked per BS equal rows built on the served columns
    betas, est, block, obs = _stack_setup(4, 4, 10, 25)
    args = (1.3, 8, 2.0, 0.05)
    full = build_combiner(CombinerKind.MRC, est, betas, *args)
    for b, ues in enumerate(_SERVED[:4]):
        single = build_combiner(CombinerKind.MRC, est[b][:, list(ues)], betas[b], *args)
        np.testing.assert_allclose(full.c[b][list(ues)], single.c, rtol=0,
                                   atol=1e-12 * np.abs(single.c).max())


def _sweep_combiners(est, betas, ul_serving, n_ant, args):
    """The ZF parts the sweep prepares for one listener group of BSs
    1..B with ``n_ant`` antennas serving ``ul_serving``, each with the
    combiner it builds from the group's estimates ``est`` (B, n_ant, K)."""
    assoc = SimpleNamespace(ul_serving=np.asarray(ul_serving))
    groups = [(np.arange(1, len(est) + 1), n_ant)]
    scored = np.ones(len(ul_serving), dtype=bool)
    out = []
    for part in experiments._parts(assoc, scored, ("zf",), groups):
        heard = np.take_along_axis(est[part.rows], part.cols[:, None, :], -1)
        out.append((part, build_combiner(part.kind, heard, betas[part.rows], *args,
                                         pad=part.pad)))
    return out


def test_zf_falls_back_to_mmse_when_overloaded(caplog):
    # ZF cannot separate 3 UEs with 2 antennas: build_combiner refuses, as
    # zf_precode does, and the sweep builds MMSE for that BS instead,
    # reported as zf->mmse, with nothing logged
    betas = np.array([[1.0, 0.8, 0.5]])
    est = _toy_estimates(2, betas[0], 4)
    args = (1.0, 4, 1.0, 0.1)
    with caplog.at_level(logging.DEBUG, logger="hetnetsim"):
        with pytest.raises(ValueError, match="3 UEs with 2 antennas"):
            build_combiner(CombinerKind.ZF, est, betas[0], *args)
        [(part, comb)] = _sweep_combiners(est[None], betas, [1, 1, 1], 2, args)
        mmse = build_combiner(CombinerKind.MMSE, est, betas[0], *args)
    assert part.label == "zf->mmse"
    assert comb.kind is mmse.kind is CombinerKind.MMSE
    np.testing.assert_allclose(comb.c[0], mmse.c, rtol=0, atol=1e-12 * np.abs(mmse.c).max())
    assert not caplog.records


def test_ragged_zf_falls_back_for_the_whole_stack(caplog):
    # a padded ZF stack holding a BS with more UEs than antennas refuses as
    # a whole, as does that BS's stack of one; the sweep stacks ZF on the
    # other BSs and gives that BS an MMSE stack of its own, equal to the
    # 2-D MMSE call in combiner and decisions
    betas, est, block, obs = _stack_setup(5, 4, 10, 26)
    args = (1.3, 8, 2.0, 0.05)
    ul = np.array([5, 1, 2, 5, 5, 2, 3, 5, 4, 5])
    served = [tuple(np.flatnonzero(ul == v)) for v in range(1, 6)]
    padded, pad = _padded(est, served)
    with caplog.at_level(logging.DEBUG, logger="hetnetsim"):
        for rows in (slice(None), slice(4, None)):
            with pytest.raises(ValueError, match="5 UEs with 4 antennas"):
                build_combiner(CombinerKind.ZF, padded[rows], betas[rows], *args, pad=pad[rows])
        (zf, stacked), (wide, alone) = _sweep_combiners(est, betas, ul, 4, args)
        single = build_combiner(CombinerKind.MMSE, est[4][:, list(served[4])], betas[4], *args,
                                ue_indices=served[4])
    assert not caplog.records
    assert (zf.label, zf.rows, stacked.kind) == ("zf", [0, 1, 2, 3], CombinerKind.ZF)
    assert (wide.label, wide.rows, alone.kind) == ("zf->mmse", [4], CombinerKind.MMSE)
    np.testing.assert_allclose(alone.c[0], single.c, rtol=0,
                               atol=1e-12 * np.abs(single.c).max())
    obs_4 = Observation(y=obs.y[4], phase=Phase.DATA, noise_power=obs.noise_power)
    obs_alone = Observation(y=obs.y[4:], phase=Phase.DATA, noise_power=obs.noise_power)
    alone = dataclasses.replace(alone, ue_indices=(served[4],))
    assert np.array_equal(detect_all(obs_alone, alone, block)[0][0],
                          detect_all(obs_4, single, block)[0])


def test_mmse_sinr_and_modulate_take_leading_axes():
    rng = np.random.default_rng(23)
    est = phy.complex_gaussian(rng, (4, 3, 5))
    stacked = mmse_sinr(est, 0.7)
    assert stacked.shape == (4, 5)
    for t in range(4):
        assert np.array_equal(stacked[t], mmse_sinr(est[t], 0.7))
    bits = rng.integers(0, 2, size=(3, 2, 8))
    block = modulate(bits, Modulation.QAM16, 2.0)
    assert block.symbols.shape == (3, 2, 2) and block.tau_d == 2
    for t in range(3):
        assert np.array_equal(block.symbols[t], modulate(bits[t], Modulation.QAM16, 2.0).symbols)
