import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hetnetsim import phy
from hetnetsim.data_aided import (
    DecodedSideInfo,
    da_estimate_matrix,
    da_power_floor,
    delta_s_x,
    fold_ber,
    rho_data_aided,
)
from hetnetsim.detectors import Modulation, modulate, random_bits
from hetnetsim.estimators import EstMethod, analytic_nmse, despread, mmse_estimate_matrix
from hetnetsim.phy import Observation, Phase, make_pilots, observe


def _setup(k=2, m=4, tau_t=2, tau_d=8, betas=(1.0, 0.4), n0=0.2,
           p_t=1.5, p_d=2.0, bers=(0.1, 0.05), seed=0):
    rng = np.random.default_rng(seed)
    betas = np.asarray(betas, dtype=float)
    h = phy.complex_gaussian(rng, (m, k)) * np.sqrt(betas)[None, :]
    pilots = make_pilots(k, tau_t, p_t)
    bits = random_bits(k, tau_d, Modulation.BPSK, rng)
    block = modulate(bits, Modulation.BPSK, p_d)
    train = observe(h, pilots.s, n0, phy.awgn([rng], (m, tau_t), n0)[0], Phase.TRAINING)
    data = observe(h, block.symbols, n0, phy.awgn([rng], (m, tau_d), n0)[0], Phase.DATA)
    side = DecodedSideInfo(x_hat=block.symbols, ber=np.asarray(bers, dtype=float), power=p_d)
    return h, pilots, block, train, data, side, betas, n0


def _joined(train, data):
    """The training and data blocks side by side, as the MBS recorded them."""
    return np.concatenate([train.y, data.y], axis=-1)


def _woodbury_combiner(pilots, side, betas, n0):
    """Joined-form reference: the combiner C of the joined block [Y_t, Y_d],
    C = D^-1 Wbar^H (diag(1/beta) + Wbar D^-1 Wbar^H)^-1, with D the
    diagonal regulariser (N0 on pilots, Delta_S + N0 on data) and Wbar the
    pilots beside the shrunk decoded rows; one per trial on a leading axis."""
    betas = np.asarray(betas, dtype=float)
    bers = fold_ber(side.ber)
    decoded = side.x_hat * (1.0 - 2.0 * bers)[..., None]
    lead = decoded.shape[:-2]
    w_bar = np.concatenate([np.broadcast_to(pilots.s, (*lead, *pilots.s.shape)), decoded],
                           axis=-1)
    ds = delta_s_x(bers, betas, side.power)
    d_inv = np.concatenate(
        [np.full((*lead, pilots.tau_t), 1.0 / n0),
         np.full((*lead, decoded.shape[-1]), (1.0 / (ds + n0))[..., None])], axis=-1)
    w_bar_h = w_bar.conj().swapaxes(-1, -2)
    middle = np.linalg.inv(np.diag(1.0 / betas) + (w_bar * d_inv[..., None, :]) @ w_bar_h)
    return (d_inv[..., :, None] * w_bar_h) @ middle


def _combiner(pilots, side, betas, n0):
    """The combiner read off ``da_estimate_matrix``: with the identity as the
    joined block [Y_t, Y_d], the estimate is the combiner itself."""
    tau_t = pilots.tau_t
    eye = np.eye(tau_t + side.x_hat.shape[-1])
    train = Observation(eye[:, :tau_t], Phase.TRAINING, n0)
    return da_estimate_matrix(despread(train, pilots), Observation(eye[:, tau_t:], Phase.DATA, n0),
                              pilots, side, betas, n0)


def _assert_rel(got, want, rel=1e-12):
    """``got`` within ``rel`` of ``want``'s largest entry."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def test_fold_ber():
    assert np.allclose(fold_ber([0.0, 0.3, 0.5, 0.7, 1.0]), [0.0, 0.3, 0.5, 0.3, 0.0])


def _error_means(bers, tau_t, tau_d, k):
    """Mean of UE k's decoding-error factor over the joint block, as the
    DA combiner forms it: 1 on pilots, 1 - 2*BER on decoded data."""
    return np.concatenate([np.ones(tau_t), np.full(tau_d, 1.0 - 2.0 * fold_ber(bers)[k])])


def test_error_expectation_zero_ber():
    assert np.array_equal(_error_means([0.0, 0.0], 3, 4, 0), np.ones(7))
    assert delta_s_x([0.0, 0.0], [1.0, 2.0], 1.0) == 0.0


def test_error_expectation_half_ber():
    e_mean = _error_means([0.5, 0.5], 2, 3, 1)
    assert np.array_equal(e_mean[:2], [1.0, 1.0])
    assert np.array_equal(e_mean[2:], [0.0, 0.0, 0.0])
    assert delta_s_x([0.5, 0.5], [1.0, 2.0], 1.5) == pytest.approx(1.5 * 3.0)


def test_error_expectation_arithmetic():
    assert np.allclose(_error_means([0.1], 2, 4, 0)[2:], 0.8)
    assert delta_s_x([0.1], [1.0], 1.0) == pytest.approx(1.0 - 0.64)


def _assemble_direct_combiner(pilots, side, betas, n0):
    """Covariance-assembly oracle: build P entry by entry from the error
    statistics (E|e|^2 = 1 on the diagonal, independent means elsewhere)
    and solve the full (tau_t + tau_d) system."""
    betas = np.asarray(betas, dtype=float)
    k_total = len(betas)
    tau_t, tau_d = pilots.tau_t, side.x_hat.shape[1]
    tau = tau_t + tau_d
    w_hat = np.concatenate([pilots.s, side.x_hat], axis=1)
    e_mean = np.concatenate(
        [np.ones((k_total, tau_t)),
         np.tile((1.0 - 2.0 * fold_ber(side.ber))[:, None], (1, tau_d))], axis=1)
    p = np.zeros((tau, tau), dtype=complex)
    for i in range(tau):
        for j in range(tau):
            for k in range(k_total):
                moment = 1.0 if i == j else e_mean[k, i] * e_mean[k, j]
                p[i, j] += betas[k] * np.conj(w_hat[k, i]) * w_hat[k, j] * moment
    rhs = (w_hat.conj() * e_mean).T * betas[None, :]
    return np.linalg.solve(p + n0 * np.eye(tau), rhs)


def test_da_combiner_matches_covariance_assembly_oracle():
    _, pilots, _, _, _, side, betas, n0 = _setup()
    fast = _combiner(pilots, side, betas, n0)
    slow = _assemble_direct_combiner(pilots, side, betas, n0)
    assert np.allclose(fast, slow, rtol=1e-9, atol=1e-12)


def test_da_estimate_toy_instance_matches_oracle():
    h, pilots, _, train, data, side, betas, n0 = _setup(seed=3)
    oracle = _joined(train, data) @ _assemble_direct_combiner(pilots, side, betas, n0)
    fast = da_estimate_matrix(despread(train, pilots), data, pilots, side, betas, n0)
    assert np.allclose(fast, oracle, rtol=1e-9)


def test_woodbury_equals_direct_solve_on_random_instances():
    rng = np.random.default_rng(9)
    for trial in range(5):
        k = int(rng.integers(1, 5))
        tau_t = k + int(rng.integers(0, 4))
        _, pilots, _, _, _, side, betas, n0 = _setup(
            k=k, m=3, tau_t=tau_t, tau_d=int(rng.integers(1, 12)),
            betas=tuple(rng.uniform(0.1, 2.0, size=k)),
            bers=tuple(rng.uniform(0.0, 0.5, size=k)),
            n0=float(rng.uniform(0.01, 1.0)), seed=100 + trial)
        fast = _combiner(pilots, side, betas, n0)
        slow = _assemble_direct_combiner(pilots, side, betas, n0)
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-12)


def test_da_without_data_reduces_to_pilot_only():
    h, pilots, _, train, data, _, betas, n0 = _setup(tau_d=0)
    side = DecodedSideInfo(x_hat=np.zeros((2, 0)), ber=np.zeros(2), power=2.0)
    da = da_estimate_matrix(despread(train, pilots), data, pilots, side, betas, n0)
    po = mmse_estimate_matrix(train, pilots, betas, n0)
    assert np.array_equal(da, po)


def test_da_with_half_ber_degrades_to_pilot_only():
    h, pilots, _, train, data, side, betas, n0 = _setup(seed=5)
    side_half = DecodedSideInfo(x_hat=side.x_hat, ber=np.full(2, 0.5), power=side.power)
    da = da_estimate_matrix(despread(train, pilots), data, pilots, side_half, betas, n0)
    po = mmse_estimate_matrix(train, pilots, betas, n0)
    assert np.linalg.norm(da - po) / np.linalg.norm(po) < 1e-9


def test_da_estimate_is_the_joined_blocks_times_the_da_combiner():
    h, pilots, _, train, data, side, betas, n0 = _setup(seed=6)
    expected = _joined(train, data) @ _woodbury_combiner(pilots, side, betas, n0)
    _assert_rel(da_estimate_matrix(despread(train, pilots), data, pilots, side, betas, n0),
                expected)


def test_da_rejects_bad_joint_shape():
    _, pilots, _, train, data, side, betas, n0 = _setup()
    z = despread(train, pilots)
    with pytest.raises(ValueError, match="columns"):
        da_estimate_matrix(z, Observation(data.y[:, :-1], Phase.DATA, n0),
                           pilots, side, betas, n0)
    with pytest.raises(ValueError, match="columns"):
        da_estimate_matrix(z[:, :-1], data, pilots, side, betas, n0)
    with pytest.raises(ValueError, match="antenna count"):
        da_estimate_matrix(z[:-1], data, pilots, side, betas, n0)


def test_rho_da_zero_ber_is_total_energy():
    rho = rho_data_aided(np.zeros(3), [1e-9, 2e-9, 3e-10], 2.0, 200.0, 30, 128, 8e-11)[0]
    assert rho == 30 * 2.0 / 8e-11 + 128 * 200.0 / 8e-11


def test_rho_da_half_ber_is_pilot_term():
    rho = rho_data_aided(np.full(2, 0.5), [1e-9, 1e-9], 2.0, 200.0, 30, 128, 8e-11)[0]
    assert rho == pytest.approx(30 * 2.0 / 8e-11)


@given(
    ber=st.floats(0.0, 0.5),
    other=st.floats(0.0, 0.5),
    p_d=st.floats(1e-3, 1e4),
    tau_d=st.integers(0, 1024),
)
def test_rho_da_never_below_pilot_only(ber, other, p_d, tau_d):
    betas = [1e-9, 5e-10]
    rho = rho_data_aided([ber, other], betas, 2.0, p_d, 30, tau_d, 8e-11)[0]
    assert rho >= 30 * 2.0 / 8e-11 - 1e-6


def test_rho_da_monotonicity():
    betas = [1e-9, 5e-10]
    args = dict(betas=betas, p_t=2.0, p_d=200.0, tau_t=30, tau_d=128,
                noise_power=8e-11)
    base = rho_data_aided([0.1, 0.1], **args)[0]
    assert rho_data_aided([0.05, 0.1], **args)[0] > base          # own BER down
    assert rho_data_aided([0.1, 0.1], **{**args, "p_t": 4.0})[0] > base
    assert rho_data_aided([0.1, 0.1], **{**args, "tau_d": 256})[0] > base
    assert rho_data_aided([0.1, 0.1], **{**args, "tau_t": 60})[0] > base


def test_analytic_nmse_da_prediction_fields():
    rho = rho_data_aided([0.0], [1e-9], 2.0, 200.0, 30, 128, 8e-11)[0]
    pred = analytic_nmse(EstMethod.DATA_AIDED, rho, 1e-9)
    assert pred == pytest.approx(10 * math.log10(1 / (1 + rho * 1e-9)))


def test_power_floor_arithmetic():
    # single UE: tau_d (1-2b)^2 / (beta (1-(1-2b)^2))
    floor = da_power_floor(128, [0.1], [1.0])[0]
    assert floor == pytest.approx(128 * 0.64 / 0.36, rel=1e-12)


def test_power_floor_no_errors_signals_unbounded():
    assert math.isinf(da_power_floor(128, [0.0, 0.0], [1.0, 2.0])[0])


def test_power_floor_is_rho_increment_limit():
    betas = np.array([1e-9, 4e-10, 2e-10])
    bers = np.array([0.02, 0.003, 0.2])
    n0, p_t, tau_t, tau_d = 8e-11, 2.0, 30, 128
    floor = da_power_floor(tau_d, bers, betas)[0]
    increment = rho_data_aided(bers, betas, p_t, 1e6, tau_t, tau_d, n0)[0] \
        - tau_t * p_t / n0
    assert increment == pytest.approx(floor, rel=1e-3)


def test_per_ue_terms_equal_a_per_ue_loop_bit_for_bit():
    rng = np.random.default_rng(4)
    betas = 10.0 ** rng.uniform(-12, -8, size=6)
    bers = rng.uniform(0.0, 0.7, size=6)          # some fold back below 0.5
    n0, p_t, p_d, tau_t, tau_d = 8e-11, 2.0, 200.0, 30, 128
    rho = rho_data_aided(bers, betas, p_t, p_d, tau_t, tau_d, n0)
    floor = da_power_floor(tau_d, bers, betas)
    folded = fold_ber(bers)
    for k in range(len(betas)):
        ds = delta_s_x(folded, betas, p_d)
        assert rho[k] == tau_t * p_t / n0 + tau_d * p_d * (1.0 - 2.0 * folded[k]) ** 2 / (ds + n0)
        denom = float(delta_s_x(folded, betas, 1.0))
        assert floor[k] == tau_d * (1.0 - 2.0 * folded[k]) ** 2 / denom


def test_empirical_nmse_tracks_ls_closed_form():
    # beta = 1, rho = tau_t P_T / N0 = 100 -> -20 dB
    rng = np.random.default_rng(11)
    pilots = make_pilots(1, 4, 25.0)
    err = power = 0.0
    for _ in range(800):
        g = phy.complex_gaussian(rng, (8, 1))
        obs = observe(g, pilots.s, 1.0, phy.awgn([rng], (8, 4), 1.0)[0], Phase.TRAINING)
        est = obs.y @ pilots.s.conj().T / (4 * 25.0)
        err += float(np.sum(np.abs(g[:, 0] - est[:, 0]) ** 2))
        power += float(np.sum(np.abs(g[:, 0]) ** 2))
    assert 10.0 * math.log10(err / power) == pytest.approx(-20.0, abs=0.2)


def test_da_estimates_take_one_ber_per_trial():
    # three trials stacked along a leading axis, each with its own decoded
    # block and BERs, give what three separate solves give
    setups = [_setup(k=3, m=5, tau_t=3, tau_d=6, betas=(1.0, 0.4, 0.7),
                     bers=(0.1 * t, 0.05, 0.2), seed=t) for t in range(3)]
    _, pilots, _, _, _, _, betas, n0 = setups[0]
    train = Observation(y=np.stack([s[3].y for s in setups]), phase=Phase.TRAINING, noise_power=n0)
    data = Observation(y=np.stack([s[4].y for s in setups]), phase=Phase.DATA, noise_power=n0)
    side = DecodedSideInfo(x_hat=np.stack([s[5].x_hat for s in setups]),
                           ber=np.stack([s[5].ber for s in setups]), power=setups[0][5].power)
    stacked = da_estimate_matrix(despread(train, pilots), data, pilots, side, betas, n0)
    _assert_rel(stacked, _joined(train, data) @ _woodbury_combiner(pilots, side, betas, n0))
    for t, (_, _, _, train_t, data_t, side_t, _, _) in enumerate(setups):
        assert np.array_equal(stacked[t], da_estimate_matrix(despread(train_t, pilots), data_t,
                                                             pilots, side_t, betas, n0))
        assert delta_s_x(side.ber, betas, side.power)[t] == delta_s_x(side_t.ber, betas,
                                                                      side.power)
