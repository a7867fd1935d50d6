import numpy as np
import pytest
from hypothesis import given, strategies as st

from hetnetsim import phy
from hetnetsim.estimators import (
    EstMethod,
    analytic_nmse,
    despread,
    ls_estimate_matrix,
    mmse_error_stats,
    mmse_estimate_matrix,
    pilot_snr,
)
from hetnetsim.phy import Phase, make_pilots, observe


def _training_setup(betas, tau_t, p_t, n0, n_ant, rng):
    """One channel draw plus its training observation."""
    betas = np.asarray(betas, dtype=float)
    g = phy.complex_gaussian(rng, (n_ant, len(betas))) * np.sqrt(betas)[None, :]
    pilots = make_pilots(len(betas), tau_t, p_t)
    obs = observe(g, pilots.s, n0, phy.awgn([rng], (n_ant, tau_t), n0)[0], Phase.TRAINING)
    return g, pilots, obs


def _mmse_normal_equations(obs, pilots, betas, n0):
    """Brute-force benchmark: solve the tau_t x tau_t normal equations
    sum_i beta_i s_i^H s_i + N0 I per UE instead of the scalar shrinkage."""
    betas = np.asarray(betas, dtype=float)
    s = pilots.s
    a = np.zeros((pilots.tau_t, pilots.tau_t), dtype=complex)
    for i, beta in enumerate(betas):
        a += beta * np.outer(s[i].conj(), s[i])
    a += n0 * np.eye(pilots.tau_t)
    out = np.empty((obs.y.shape[0], len(betas)), dtype=complex)
    for k, beta in enumerate(betas):
        c = np.linalg.solve(a, s[k].conj()) * beta
        out[:, k] = obs.y @ c
    return out


def test_ls_noiseless_recovers_channel():
    rng = np.random.default_rng(1)
    g, pilots, obs = _training_setup([1.0, 0.5], 4, 2.0, 0.0, 8, rng)
    est = ls_estimate_matrix(despread(obs, pilots), pilots)
    assert np.allclose(est[:, 0], g[:, 0], atol=1e-12)


def test_ls_error_variance_monte_carlo():
    # error term N s_k^H / (tau_t P_T): per-element variance N0/(tau_t P_T)
    rng = np.random.default_rng(2)
    errs = []
    for _ in range(2000):
        g, pilots, obs = _training_setup([1.0], 10, 10.0, 1.0, 8, rng)
        z = despread(obs, pilots)
        errs.append(np.mean(np.abs(ls_estimate_matrix(z, pilots)[:, 0] - g[:, 0]) ** 2))
    assert np.mean(errs) == pytest.approx(0.01, rel=0.05)


def test_estimators_reject_data_phase():
    # every estimator takes the despread block, and only despread reads the phase
    obs = observe(np.zeros((2, 3)), np.zeros((3, 4)), 0.0, phy.awgn([1], (2, 4), 0.0)[0],
                  Phase.DATA)
    pilots = make_pilots(3, 4, 1.0)
    with pytest.raises(ValueError, match="training"):
        despread(obs, pilots)


def test_mmse_matches_normal_equation_benchmark():
    rng = np.random.default_rng(3)
    betas = [2.0, 0.3, 0.9]
    g, pilots, obs = _training_setup(betas, 6, 1.7, 0.8, 5, rng)
    fast = mmse_estimate_matrix(despread(obs, pilots), pilots, betas, 0.8)
    slow = _mmse_normal_equations(obs, pilots, betas, 0.8)
    assert np.allclose(fast, slow, rtol=1e-10)


def test_mmse_high_energy_limit_recovers_channel():
    rng = np.random.default_rng(5)
    g, pilots, obs = _training_setup([1.0], 8, 1e12, 1e-6, 8, rng)
    est = mmse_estimate_matrix(despread(obs, pilots), pilots, [1.0], 1e-6)
    assert np.allclose(est[:, 0], g[:, 0], rtol=1e-4)


def test_mmse_zero_pilot_power_gives_zero_estimate():
    rng = np.random.default_rng(6)
    g, pilots, obs = _training_setup([1.0], 4, 0.0, 1.0, 4, rng)
    est = mmse_estimate_matrix(despread(obs, pilots), pilots, [1.0], 1.0)
    assert np.all(est == 0)
    stats = mmse_error_stats(1.0, 0.0, 4, 1.0)
    assert stats.error_var == 1.0 and stats.estimate_var == 0.0


@pytest.mark.parametrize("beta,pt_taut,n0,expected", [
    (1.0, 1.0, 1.0, (0.5, 0.5)),
    (2.0, 3.0, 1.0, (12.0 / 7.0, 2.0 / 7.0)),
])
def test_mmse_error_stats_values(beta, pt_taut, n0, expected):
    stats = mmse_error_stats(beta, pt_taut, 1, n0)
    assert stats.estimate_var == pytest.approx(expected[0])
    assert stats.error_var == pytest.approx(expected[1])


@given(
    beta=st.floats(1e-12, 1e3),
    p_t=st.floats(0.0, 1e6),
    tau_t=st.integers(1, 512),
    n0=st.floats(1e-12, 1e3),
)
def test_mmse_stats_sum_to_beta(beta, p_t, tau_t, n0):
    stats = mmse_error_stats(beta, p_t, tau_t, n0)
    assert stats.estimate_var + stats.error_var == pytest.approx(beta, rel=1e-9)
    assert stats.estimate_var >= 0 and stats.error_var >= 0


def test_mmse_stats_weak_link_keeps_relative_accuracy():
    # beta*P_T*tau_t is 1e-14 of N0: beta minus the error variance would
    # lose every digit of the estimate variance
    beta, p_t, tau_t, n0 = 1e-13, 1e-3, 10, 1.0
    stats = mmse_error_stats(np.array([beta, 1.0]), p_t, tau_t, n0)
    expected = beta ** 2 * p_t * tau_t / (n0 + beta * p_t * tau_t)
    assert stats.estimate_var[0] == pytest.approx(expected, rel=1e-12)
    assert stats.estimate_var[1] == pytest.approx(
        mmse_error_stats(1.0, p_t, tau_t, n0).estimate_var, rel=1e-15)


def test_mmse_estimate_error_orthogonality():
    rng = np.random.default_rng(7)
    cross, scale = 0.0, 0.0
    for _ in range(3000):
        g, pilots, obs = _training_setup([1.0], 4, 0.5, 1.0, 2, rng)
        est = mmse_estimate_matrix(despread(obs, pilots), pilots, [1.0], 1.0)[:, 0]
        err = g[:, 0] - est
        cross += np.sum(est.conj() * err).real
        scale += np.sum(np.abs(est) ** 2)
    assert abs(cross) / scale < 0.05


def test_analytic_nmse_values():
    assert analytic_nmse(EstMethod.MMSE, pilot_snr(0.0, 4, 1.0), 1.0) == 0.0
    # rho*beta = 100 -> LS at -20 dB
    assert analytic_nmse(EstMethod.LS, pilot_snr(25.0, 4, 1.0), 1.0) == pytest.approx(-20.0)


@pytest.mark.parametrize("kind,expected", [
    (EstMethod.LS, [-20.0, 0.0, 10.0]),
    (EstMethod.MMSE, [-10 * np.log10(101.0), -10 * np.log10(2.0), -10 * np.log10(1.1)]),
    (EstMethod.DATA_AIDED, [-10 * np.log10(101.0), -10 * np.log10(2.0), -10 * np.log10(1.1)]),
])
def test_analytic_nmse_at_known_rho_beta(kind, expected):
    # rho*beta = 100, 1 and 0.1, one UE each
    nmse = analytic_nmse(kind, 100.0, np.array([1.0, 0.01, 0.001]))
    assert nmse == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_ls_mmse_gap_closes_at_high_snr():
    gap = analytic_nmse(EstMethod.LS, pilot_snr(1e4, 30, 1.0), 1.0) - \
        analytic_nmse(EstMethod.MMSE, pilot_snr(1e4, 30, 1.0), 1.0)
    assert 0.0 < gap < 1e-4
    low_gap = analytic_nmse(EstMethod.LS, pilot_snr(0.01, 1, 1.0), 1.0) - \
        analytic_nmse(EstMethod.MMSE, pilot_snr(0.01, 1, 1.0), 1.0)
    assert low_gap > 10.0


def test_empirical_nmse_tracks_closed_forms():
    # 10^3 realizations must sit within 0.2 dB of the closed forms
    rng = np.random.default_rng(8)
    beta, tau_t, p_t, n0 = 0.7, 8, 4.0, 0.9
    num = {"ls": 0.0, "mmse": 0.0}
    den = 0.0
    for _ in range(1000):
        g, pilots, obs = _training_setup([beta], tau_t, p_t, n0, 16, rng)
        z = despread(obs, pilots)
        num["ls"] += np.sum(np.abs(ls_estimate_matrix(z, pilots)[:, 0] - g[:, 0]) ** 2)
        num["mmse"] += np.sum(
            np.abs(mmse_estimate_matrix(z, pilots, [beta], n0)[:, 0] - g[:, 0]) ** 2)
        den += np.sum(np.abs(g[:, 0]) ** 2)
    for method in ("ls", "mmse"):
        empirical = 10 * np.log10(num[method] / den)
        predicted = analytic_nmse(EstMethod(method), pilot_snr(p_t, tau_t, n0), beta)
        assert abs(empirical - predicted) < 0.2
        if method == "mmse":
            assert empirical <= 10 * np.log10(num["ls"] / den) + 1e-9


def test_stacked_mmse_estimates_equal_per_bs_calls():
    rng = np.random.default_rng(8)
    betas = rng.uniform(0.1, 2.0, size=(3, 4))
    pilots = make_pilots(4, 6, 1.5)
    channels = phy.complex_gaussian(rng, (3, 5, 4)) * np.sqrt(betas)[:, None, :]
    obs = observe(channels, pilots.s, 0.3, phy.awgn([11, 12, 13], (5, 6), 0.3), Phase.TRAINING)
    stacked = mmse_estimate_matrix(despread(obs, pilots), pilots, betas, 0.3)
    for b in range(3):
        alone = observe(channels[b], pilots.s, 0.3, phy.awgn([11 + b], (5, 6), 0.3)[0],
                        Phase.TRAINING)
        np.testing.assert_allclose(
            stacked[b], mmse_estimate_matrix(despread(alone, pilots), pilots, betas[b], 0.3),
            rtol=1e-12)

