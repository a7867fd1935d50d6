import logging
from types import SimpleNamespace

import numpy as np
import pytest

from hetnetsim import experiments, phy
from hetnetsim.ber_analytic import effective_rho, q_function
from hetnetsim.detectors import (
    Combiner,
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


def _unit(rows, est):
    """``rows`` scaled to unit gain on their own columns of ``est``, as
    build_combiner scales them."""
    return rows / np.einsum("...ij,...ji->...i", rows, est)[..., None]


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


@pytest.mark.parametrize("shape", [(6, 3), (4, 6, 3), (2, 3, 6, 4)])
def test_zf_combiner_rows_are_the_zf_rows(shape):
    # 2-D, a stack of BSs, and a trial stack of BS stacks
    est = phy.complex_gaussian(np.random.default_rng(23), shape)
    comb = build_combiner(CombinerKind.ZF, est, np.ones(shape[-1]), 1.3, 8, 2.0, 0.05)
    assert np.array_equal(comb.c, _unit(zf_rows(est), est))


@pytest.mark.parametrize("kind", [CombinerKind.MRC, CombinerKind.MMSE])
def test_a_zero_estimate_column_is_refused(kind):
    # its row would have zero gain on its own channel, so no unit-gain row
    est = _toy_estimates(4, [1.0, 0.5], 2)
    est[:, 1] = 0.0
    with pytest.raises(ValueError, match="non-zero channel estimates"):
        build_combiner(kind, est, [1.0, 0.5], 1.0, 4, 1.0, 0.1)


def test_mrc_is_matched_filter_direction():
    est = _toy_estimates(6, [2.0], 1)
    mrc = build_combiner(CombinerKind.MRC, est, [2.0], 1.0, 4, 1.0, 0.1)
    expected = est[:, 0].conj() / np.sum(np.abs(est[:, 0]) ** 2)
    assert np.allclose(mrc.c[0], expected)
    assert mrc.c[0] @ est[:, 0] == pytest.approx(1.0)


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
        assert np.allclose(comb.c[k], expected / (expected @ est[:, k]), rtol=1e-10)


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
    obs = observe(est, block.symbols, 0.0, phy.awgn([7], (4, 128), 0.0)[0], Phase.DATA)
    comb = build_combiner(CombinerKind.MRC, est, [1.0], 1.0, 4, 1.0, 1e-9)
    decoded, ber = detect(obs, comb, block, 0)
    assert ber == 0.0
    assert np.array_equal(decoded, bits[0])


def test_detect_requires_data_phase():
    est = _toy_estimates(2, [1.0], 8)
    block = modulate(random_bits(1, 4, Modulation.BPSK, 1), Modulation.BPSK, 1.0)
    obs = observe(est, block.symbols, 0.0, phy.awgn([1], (2, 4), 0.0)[0], Phase.TRAINING)
    comb = build_combiner(CombinerKind.MRC, est, [1.0], 1.0, 2, 1.0, 0.1)
    with pytest.raises(ValueError, match="data"):
        detect(obs, comb, block, 0)


def test_detect_rejects_a_ue_the_combiner_does_not_cover():
    est = _toy_estimates(4, [1.0, 1.0, 1.0], 8)
    block = modulate(random_bits(3, 4, Modulation.BPSK, 1), Modulation.BPSK, 1.0)
    obs = observe(est, block.symbols, 0.0, phy.awgn([1], (4, 4), 0.0)[0], Phase.DATA)
    comb = build_combiner(CombinerKind.MRC, est, [1.0] * 3, 1.0, 3, 1.0, 0.1,
                          keep=[0, 2], ue_indices=(0, 2))
    with pytest.raises(IndexError, match="UE 1 is not covered by this combiner"):
        detect(obs, comb, block, 1)


def test_pure_noise_detection_is_coin_flip():
    channel = np.zeros((2, 1), dtype=complex)
    bits = random_bits(1, 10_000, Modulation.BPSK, 9)
    block = modulate(bits, Modulation.BPSK, 1.0)
    obs = observe(channel, block.symbols, 1.0, phy.awgn([10], (2, 10_000), 1.0)[0], Phase.DATA)
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
    obs = observe(channel, block.symbols, n0, phy.awgn([12], (1, 200_000), n0)[0], Phase.DATA)
    comb = build_combiner(CombinerKind.MRC, channel, [1.0], 1.0, 1, p_d, n0)
    _, ber = detect(obs, comb, block, 0)
    expected = float(q_function(np.sqrt(2 * gamma)))
    assert ber == pytest.approx(expected, rel=0.15)


def test_bpsk_decisions_scale_invariant():
    est = _toy_estimates(4, [1.0, 0.5], 13)
    bits = random_bits(2, 64, Modulation.BPSK, 14)
    block = modulate(bits, Modulation.BPSK, 1.0)
    obs = observe(est, block.symbols, 0.5, phy.awgn([15], (4, 64), 0.5)[0], Phase.DATA)
    comb = build_combiner(CombinerKind.MMSE, est, [1.0, 0.5], 1.0, 4, 1.0, 0.2)
    scaled = Combiner(c=3.7 * comb.c, ue_indices=comb.ue_indices)
    for k in range(2):
        a, _ = detect(obs, comb, block, k)
        b, _ = detect(obs, scaled, block, k)
        assert np.array_equal(a, b)


def test_detect_all_matches_detect():
    est = _toy_estimates(4, [1.0, 0.5, 0.2], 16)
    bits = random_bits(3, 32, Modulation.QAM4, 17)
    block = modulate(bits, Modulation.QAM4, 2.0)
    obs = observe(est, block.symbols, 0.05, phy.awgn([18], (4, 32), 0.05)[0], Phase.DATA)
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
        scale = np.abs(single.c).max()
        np.testing.assert_allclose(stacked.c[b], single.c, rtol=0, atol=1e-12 * scale)
        obs_b = Observation(y=obs.y[b], phase=Phase.DATA, noise_power=obs.noise_power)
        bits_b, symbols_b, ber_b = detect_all(obs_b, single, block)
        assert np.array_equal(bits[b], bits_b)
        assert np.array_equal(symbols[b], symbols_b)
        assert np.array_equal(ber[b], ber_b)


def test_stacked_detection_takes_one_row_set_per_bs():
    betas, est, block, obs = _stack_setup(2, 8, 6, 22)
    comb = build_combiner(CombinerKind.MMSE, est, betas, 1.3, 8, 2.0, 0.05)
    pick = np.array([[4, 1], [0, 0]])
    rows = Combiner(c=np.take_along_axis(comb.c, pick[..., None], axis=1),
                    ue_indices=((4, 1), (0, 0)))
    bits, _, ber = detect_all(obs, rows, block)
    full_bits, _, full_ber = detect_all(obs, comb, block)
    for b in range(2):
        assert np.array_equal(bits[b], full_bits[b][pick[b]])
        assert np.array_equal(ber[b], full_ber[b][pick[b]])


def _biased_rows(kind, est, betas, args):
    """The rows before any unit-gain scaling: MRC normalised by its column
    norms, the ZF rows, and MMSE solved in the smaller of its two dimensions."""
    est_h = est.conj().swapaxes(-1, -2)
    if kind is CombinerKind.MRC:
        return est_h / np.sum(np.abs(est) ** 2, axis=-2)[..., None]
    if kind is CombinerKind.ZF:
        return zf_rows(est)
    n_ant, n_ue = est.shape[-2:]
    p_t, tau_t, p_d, n0 = args
    reg = (1.0 / effective_rho(betas, p_t, tau_t, n0, p_d))[..., None, None]
    if n_ue < n_ant:
        return np.linalg.solve(est_h @ est + reg * np.eye(n_ue), est_h)
    return np.linalg.solve(est @ est_h + reg * np.eye(n_ant), est).conj().swapaxes(-1, -2)


@pytest.mark.parametrize("lead", [(), (2, 3)])
@pytest.mark.parametrize("kind,n_ant,k_total", [
    (CombinerKind.MRC, 16, 5), (CombinerKind.ZF, 16, 5),
    (CombinerKind.MMSE, 16, 5), (CombinerKind.MMSE, 4, 6),     # K x K, then N x N
])
def test_every_row_has_unit_gain_and_decides_as_the_biased_row_divided(
        lead, kind, n_ant, k_total):
    # 2-D, and a (T, B) stack of trials and BSs: each row's response to its
    # own estimate column is 1, and its 16-QAM decisions are those of the
    # unscaled row whose output is divided by that row's gain
    rng = np.random.default_rng(27)
    args = (1.3, 8, 2.0, 0.05)
    betas = rng.uniform(0.2, 2.0, size=lead[1:] + (k_total,))
    est = phy.complex_gaussian(rng, lead + (n_ant, k_total)) * np.sqrt(betas)[..., None, :]
    comb = build_combiner(kind, est, betas, *args)
    gain = np.einsum("...ij,...ji->...i", comb.c, est)
    np.testing.assert_allclose(gain, 1.0, rtol=0, atol=1e-12)

    bits = rng.integers(0, 2, size=lead[:1] + (1,) * len(lead[1:]) + (k_total, 4 * 40))
    block = modulate(bits, Modulation.QAM16, args[2])
    channel = est + 0.1 * phy.complex_gaussian(rng, est.shape)
    y = channel @ block.symbols + phy.complex_gaussian(rng, est.shape[:-1] + (40,), var=0.05)
    got_bits, got_symbols, _ = detect_all(Observation(y, Phase.DATA, 0.05), comb, block)
    raw = _biased_rows(kind, est, betas, args)
    raw_gain = np.einsum("...ij,...ji->...i", raw, est)
    want_bits, want_symbols = _slice((raw @ y) / raw_gain[..., None], Modulation.QAM16, args[2])
    assert np.array_equal(got_bits, want_bits)
    assert np.array_equal(got_symbols, want_symbols)


@pytest.mark.parametrize("n_ant,k_total", [(64, 6), (4, 10)])
def test_mmse_rows_equal_the_antenna_domain_solve(n_ant, k_total):
    # push-through: (G G^H + r I)^-1 G = G (G^H G + r I)^-1, either way round
    rng = np.random.default_rng(23)
    betas = rng.uniform(0.2, 2.0, size=k_total)
    est = phy.complex_gaussian(rng, (n_ant, k_total)) * np.sqrt(betas)
    args = (1.3, 8, 0.9, 0.4)
    comb = build_combiner(CombinerKind.MMSE, est, betas, *args)
    reg = 1.0 / effective_rho(betas, 1.3, 8, 0.4, 0.9)
    ref = _unit(np.linalg.solve(est @ est.conj().T + reg * np.eye(n_ant), est).conj().T, est)
    np.testing.assert_allclose(comb.c, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


# (B, m) columns each BS keeps; the last BS repeats a column, as the sweep
# pads shorter row sets with their last UE
_KEEP = np.array([[4, 1], [0, 2], [3, 3]])


@pytest.mark.parametrize("kind,n_ant,k_total", [
    (CombinerKind.MRC, 16, 5), (CombinerKind.ZF, 16, 5),
    (CombinerKind.MMSE, 16, 5), (CombinerKind.MMSE, 4, 6),     # K x K, then N x N
])
def test_kept_rows_equal_the_full_combiners_rows_and_decide_alike(kind, n_ant, k_total):
    # a (T, B) stack of trials and BSs: building only the kept rows gives
    # the full combiner's rows ``keep`` of each BS, and the same decisions
    rng = np.random.default_rng(29)
    args = (1.3, 8, 2.0, 0.05)
    betas = rng.uniform(0.2, 2.0, size=(3, k_total))
    est = phy.complex_gaussian(rng, (2, 3, n_ant, k_total)) * np.sqrt(betas)[..., None, :]
    full = build_combiner(kind, est, betas, *args)
    thin = build_combiner(kind, est, betas, *args, keep=_KEEP, ue_indices=_KEEP)
    want = np.take_along_axis(full.c, _KEEP[None, ..., None], axis=-2)
    assert thin.c.shape == want.shape
    np.testing.assert_allclose(thin.c, want, rtol=0, atol=1e-12 * np.abs(want).max())
    with pytest.raises(ValueError, match="^keep needs the ue_indices of the rows it keeps$"):
        build_combiner(kind, est, betas, *args, keep=_KEEP)

    bits = rng.integers(0, 2, size=(2, 1, k_total, 4 * 40))
    block = modulate(bits, Modulation.QAM16, args[2])
    channel = est + 0.1 * phy.complex_gaussian(rng, est.shape)
    y = channel @ block.symbols + phy.complex_gaussian(rng, est.shape[:-1] + (40,), var=0.05)
    obs = Observation(y, Phase.DATA, 0.05)
    got = detect_all(obs, thin, block)
    picked = detect_all(obs, Combiner(c=want, ue_indices=_KEEP), block)
    for a, b in zip(got, picked):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(6, 3), (4, 6, 3), (2, 3, 6, 4), (8, 8)])
def test_zf_rows_match_the_solve_form(shape):
    # the K x K inverse applied by a product against one solve with a
    # right-hand side per antenna
    est = phy.complex_gaussian(np.random.default_rng(31), shape)
    est_h = est.conj().swapaxes(-1, -2)
    want = np.linalg.solve(est_h @ est, est_h)
    np.testing.assert_allclose(zf_rows(est), want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("keep", [None, np.array([0])])
def test_zf_errors_are_unchanged(keep):
    args = (np.ones(3), 1.0, 4, 1.0, 0.1)
    with pytest.raises(ValueError, match="^ZF cannot separate 3 UEs with 2 antennas$"):
        zf_rows(np.ones((2, 3), dtype=complex))
    with pytest.raises(ValueError, match="^ZF cannot separate 3 UEs with 2 antennas$"):
        build_combiner(CombinerKind.ZF, np.ones((2, 3), dtype=complex), *args, keep=keep,
                       ue_indices=keep)
    with pytest.raises(ValueError, match="matrix or a stack"):
        zf_rows(np.ones(3, dtype=complex))
    twin = np.ones((4, 3), dtype=complex)          # identical columns
    with pytest.raises(np.linalg.LinAlgError, match="^rank-deficient estimate matrix for ZF$"):
        zf_rows(twin)
    with pytest.raises(np.linalg.LinAlgError, match="^rank-deficient estimate matrix for ZF$"):
        build_combiner(CombinerKind.ZF, twin, *args, keep=keep, ue_indices=keep)


@pytest.mark.parametrize("kind,n_ant", [(CombinerKind.MRC, 4), (CombinerKind.MMSE, 4),
                                        (CombinerKind.MMSE, 2)])
def test_an_all_zero_kept_column_is_refused_and_an_unkept_one_is_not(kind, n_ant):
    # the unit-gain check reads the kept columns only, in both MMSE regimes
    betas = np.array([1.0, 0.5, 0.8])
    est = np.stack([_toy_estimates(n_ant, betas, 2), _toy_estimates(n_ant, betas, 3)])
    est[1, :, 1] = 0.0
    args = (np.stack([betas, betas]), 1.0, 4, 1.0, 0.1)
    with pytest.raises(ValueError, match="non-zero channel estimates"):
        build_combiner(kind, est, *args, keep=np.array([[0], [1]]), ue_indices=((0,), (1,)))
    comb = build_combiner(kind, est, *args, keep=np.array([[1], [2]]), ue_indices=((1,), (2,)))
    assert np.all(np.isfinite(comb.c))


# served sets of four BSs with 4 antennas, of lengths 1, 3, 4 and 2
_SERVED = [(2,), (0, 5, 7), (1, 3, 4, 8), (6, 9)]


def test_mrc_rows_on_every_column_equal_served_rows():
    # an MRC row depends on its own column only, so rows built on all K
    # columns and picked per BS equal rows built on the served columns
    betas, est, block, obs = _stack_setup(4, 4, 10, 25)
    args = (1.3, 8, 2.0, 0.05)
    full = build_combiner(CombinerKind.MRC, est, betas, *args)
    for b, ues in enumerate(_SERVED):
        single = build_combiner(CombinerKind.MRC, est[b][:, list(ues)], betas[b], *args)
        np.testing.assert_allclose(full.c[b][list(ues)], single.c, rtol=0,
                                   atol=1e-12 * np.abs(single.c).max())


def _sweep_combiners(est, betas, ul_serving, n_ant, args, scored=None):
    """The ZF parts the sweep prepares for one listener group of BSs
    1..B with ``n_ant`` antennas serving ``ul_serving``, each with the rows
    it keeps of the combiner it builds from the group's estimates ``est``,
    (T, B, n_ant, K), as ``experiments._detect`` builds them."""
    assoc = SimpleNamespace(ul_serving=np.asarray(ul_serving))
    groups = [(np.arange(1, est.shape[1] + 1), n_ant)]
    scored = np.ones(len(ul_serving), dtype=bool) if scored is None else scored
    out = []
    for part in experiments._parts(assoc, scored, ("zf",), groups):
        heard = np.take_along_axis(est[:, part.rows], part.cols[None, :, None], -1)
        out.append((part, build_combiner(part.kind, heard, betas[part.rows], *args,
                                         keep=part.pick, ue_indices=part.ues)))
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
        [(part, comb)] = _sweep_combiners(est[None, None], betas, [1, 1, 1], 2, args)
        mmse = build_combiner(CombinerKind.MMSE, est, betas[0], *args)
    assert part.label == "zf->mmse"
    assert part.kind is CombinerKind.MMSE
    np.testing.assert_allclose(comb.c[0, 0], mmse.c, rtol=0, atol=1e-12 * np.abs(mmse.c).max())
    assert not caplog.records


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_zf_parts_stack_by_served_count_and_keep_the_rows_of_per_bs_calls(seed):
    # BSs with 3 antennas serving 1 to 5 UEs, two BSs at each count, some
    # UEs unscored: each ZF part stacks the BSs of one served count, ZF up
    # to 3 and zf->mmse above, and the rows the sweep keeps for each trial
    # and BS equal a 2-D call on that BS's served columns, bit for bit
    n_ant, counts = 3, np.repeat(np.arange(1, 6), 2)
    rng = np.random.default_rng(seed)
    ul = rng.permutation(np.repeat(rng.permutation(len(counts)) + 1, counts))
    scored = rng.random(len(ul)) < 0.7
    betas = rng.uniform(0.2, 2.0, size=(len(counts), len(ul)))
    est = phy.complex_gaussian(rng, (2, len(counts), n_ant, len(ul))) * np.sqrt(betas)[:, None]
    args = (1.3, 8, 2.0, 0.05)
    parts = _sweep_combiners(est, betas, ul, n_ant, args, scored)
    listening = np.unique(ul[scored])
    assert np.array_equal(np.sort(np.concatenate([np.asarray(p.rows) + 1 for p, _ in parts])),
                          listening)
    assert len(parts) == len(set(np.bincount(ul)[listening]))
    for part, kept in parts:
        width = part.cols.shape[1]
        wide = width > n_ant
        assert (part.label, part.kind) == (("zf->mmse", CombinerKind.MMSE) if wide
                                           else ("zf", CombinerKind.ZF))
        for b, v in enumerate(np.asarray(part.rows) + 1):
            served = np.flatnonzero(ul == v)
            assert np.array_equal(part.cols[b], served)
            for t in range(2):
                single = build_combiner(part.kind, est[t, v - 1][:, served], betas[v - 1], *args)
                assert np.array_equal(kept.c[t, b], single.c[part.pick[b]])


def test_mmse_sinr_and_modulate_take_leading_axes():
    rng = np.random.default_rng(23)
    est = phy.complex_gaussian(rng, (4, 3, 5))
    stacked = mmse_sinr(est, 0.7)
    assert stacked.shape == (4, 5)
    for t in range(4):
        assert np.array_equal(stacked[t], mmse_sinr(est[t], 0.7))
    bits = rng.integers(0, 2, size=(3, 2, 8))
    block = modulate(bits, Modulation.QAM16, 2.0)
    assert block.symbols.shape == (3, 2, 2)
    for t in range(3):
        assert np.array_equal(block.symbols[t], modulate(bits[t], Modulation.QAM16, 2.0).symbols)
