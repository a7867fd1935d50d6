import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hetnetsim import phy
from hetnetsim.ber_analytic import (
    SinrGammaModel,
    analytic_ber,
    ber_lower_bound,
    beta_hat,
    effective_rho,
    gamma_model_for_ue,
    q_function,
    sinr_gamma_models,
    sinr_gamma_params,
    stieltjes_moments,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _model(alpha, xi):
    return SinrGammaModel(mu=1.0, sigma2=1.0, mean=alpha * xi,
                          variance=alpha * xi * xi, alpha=alpha, xi=xi,
                          rho_v=1.0, beta_hat=1.0)


def test_effective_rho_example():
    # K=1, beta=1, N0=1, P_T tau_T = 1, P_D = 1 -> 1/(0.5 + 1)
    assert effective_rho([1.0], 1.0, 1, 1.0, 1.0) == pytest.approx(2.0 / 3.0)


def test_effective_rho_perfect_training_limit():
    rho = effective_rho([1.0, 2.0], 1e12, 100, 1.0, 5.0)
    assert rho == pytest.approx(5.0, rel=1e-8)


@given(
    p_d=st.floats(1e-3, 1e6),
    scale=st.floats(1.0, 100.0),
    n0=st.floats(1e-6, 1e2),
)
# raising N0 by one ulp once lowered the MMSE error variance by one ulp
@example(p_d=68.0, scale=1 + 2**-52, n0=25.169057243173146)
def test_effective_rho_monotonicity(p_d, scale, n0):
    betas = [0.5, 1.5]
    base = effective_rho(betas, 2.0, 4, n0, p_d)
    assert effective_rho(betas, 2.0, 4, n0, p_d * scale) >= base
    assert effective_rho(betas, 2.0, 4, n0 * scale, p_d) <= base


def test_stieltjes_no_interferers():
    mu, sigma2 = stieltjes_moments(8, [])
    assert mu == pytest.approx(1.0, abs=1e-12)
    assert sigma2 == pytest.approx(1.0, abs=1e-12)


def _bisect_fixed_point(n, gains, lo=0.0, hi=1.0):
    """Independent bisection oracle for m = 1/(1 + sum v/(1+N v m))."""
    gains = np.asarray(gains, dtype=float)

    def f(m):
        return m - 1.0 / (1.0 + np.sum(gains / (1.0 + n * gains * m)))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_stieltjes_single_interferer_golden_ratio():
    mu, _ = stieltjes_moments(1, [1.0])
    assert mu == pytest.approx(GOLDEN, abs=1e-10)
    assert mu == pytest.approx(_bisect_fixed_point(1, [1.0]), abs=1e-10)


def test_stieltjes_matches_bisection_on_random_instances():
    rng = phy.stream(42)
    for _ in range(20):
        n = int(rng.integers(1, 32))
        gains = 10.0 ** rng.uniform(-2, 3, size=int(rng.integers(1, 20)))
        mu, sigma2 = stieltjes_moments(n, gains)
        assert mu == pytest.approx(_bisect_fixed_point(n, gains), abs=1e-9)
        # Jensen sandwich on the spectral measure
        assert mu ** 2 - 1e-12 <= sigma2 <= mu + 1e-12


def test_stieltjes_residual_within_tolerance():
    gains = [0.3, 10.0, 250.0]
    mu, _ = stieltjes_moments(4, gains, tolerance=1e-13)
    resid = abs(mu - 1.0 / (1.0 + np.sum(np.asarray(gains) / (1.0 + 4 * np.asarray(gains) * mu))))
    assert resid < 1e-13


def test_stieltjes_rejects_negative_gains():
    with pytest.raises(ValueError):
        stieltjes_moments(2, [-1.0])


def test_gamma_params_formula_values():
    model = sinr_gamma_params(8, 2.0, 1.0, 1.0, 1.0)
    assert model.mean == 16.0
    assert model.variance == 32.0
    assert model.alpha == 8.0
    assert model.xi == 2.0


@given(
    n=st.integers(1, 256),
    rb=st.floats(1e-6, 1e4),
    mu=st.floats(0.01, 1.0),
)
def test_gamma_mean_identity(n, rb, mu):
    sigma2 = mu * mu      # any admissible pair works; use the Jensen floor
    model = sinr_gamma_params(n, rb, 1.0, mu, sigma2)
    assert model.alpha * model.xi == pytest.approx(model.mean, rel=1e-12)


def test_gamma_params_reject_bad_moments():
    with pytest.raises(ValueError):
        sinr_gamma_params(8, 1.0, 1.0, 1.5, 1.0)


def test_analytic_ber_exponential_closed_form():
    # alpha = 1 is an exponential SINR: BER = (1 - sqrt(xi/(2+xi)))/2
    expected = 0.5 * (1.0 - math.sqrt(2.0 / 4.0))
    assert analytic_ber(_model(1.0, 2.0)) == pytest.approx(expected, rel=1e-12)


def test_analytic_ber_zero_snr_limit():
    assert analytic_ber(_model(3.0, 1e-9)) == pytest.approx(0.5, abs=1e-4)
    assert analytic_ber(_model(3.0, 0.0)) == 0.5


def test_analytic_ber_monotone_in_parameters():
    xis = [0.1, 0.5, 2.0, 8.0, 32.0]
    bers = [analytic_ber(_model(2.0, x)) for x in xis]
    assert all(a > b for a, b in zip(bers, bers[1:]))
    alphas = [0.5, 1.0, 2.0, 4.0]
    bers = [analytic_ber(_model(a, 2.0)) for a in alphas]
    assert all(a > b for a, b in zip(bers, bers[1:]))


def test_lower_bound_values_and_order():
    assert ber_lower_bound(_model(1.0, 0.0)) == 0.5
    assert ber_lower_bound(_model(8.0, 2.0)) == pytest.approx(3.167124183e-05, rel=1e-8)
    rng = phy.stream(7)
    for _ in range(25):
        alpha = float(10.0 ** rng.uniform(-0.5, 1.5))
        xi = float(10.0 ** rng.uniform(-2.0, 1.5))
        model = _model(alpha, xi)
        assert ber_lower_bound(model) <= analytic_ber(model) + 1e-15


def test_decision_scale_two_is_the_kernel_at_doubled_xi_bit_for_bit():
    # BPSK's decision SNR is twice the SINR; doubling is exact in floating
    # point, so c2 = 2 gives what the kernel gives a model of scale 2 xi
    alpha = np.array([0.5, 4.0, 30.0, 241.03, 1000.0])
    xi = np.array([1e-3, 1.5, 0.184, 0.0123456789, 7.3])
    model, doubled = _model(alpha, xi), _model(alpha, 2.0 * xi)
    assert np.array_equal(analytic_ber(model, 2.0), analytic_ber(doubled))
    assert np.array_equal(ber_lower_bound(model, 2.0), ber_lower_bound(doubled))


def test_gamma_model_for_ue_composes():
    betas = np.array([1e-9, 3e-10, 5e-11])
    model = gamma_model_for_ue(8, betas, 0, 2.0, 30, 8e-11, 200.0)
    bh = beta_hat(betas, 2.0, 30, 8e-11)
    assert model.beta_hat == pytest.approx(bh[0])
    assert model.mean == pytest.approx(8 * model.rho_v * model.beta_hat * model.mu)
    assert 0 < model.mu <= 1 and model.mu ** 2 <= model.sigma2 <= model.mu


def test_q_function_basics():
    assert q_function(0.0) == 0.5
    assert q_function(4.0) == pytest.approx(3.167124183e-05, rel=1e-8)


def _damped_fixed_point(n, gains, tolerance=1e-12):
    """Reference: the scalar damped iteration (damping 1/2, started at m = 1)
    that the vectorised solver replaced."""
    gains = np.asarray(gains, dtype=float)

    def f(m):
        return 1.0 / (1.0 + np.sum(gains / (1.0 + n * gains * m)))

    m = 1.0
    for _ in range(10 ** 4):
        m_next = 0.5 * m + 0.5 * f(m)
        step = abs(m_next - m)
        m = m_next
        if step < 0.5 * tolerance:
            break
    f_prime = -np.sum(n * gains ** 2 / (1.0 + n * gains * m) ** 2)
    return m, m * m / (1.0 + m * m * f_prime)


def test_row_solve_matches_the_damped_scalar_loop():
    rng = phy.stream(43)
    n = rng.integers(1, 300, size=40)
    gains = 10.0 ** rng.uniform(-3, 3, size=(40, 30))
    gains[rng.uniform(size=gains.shape) < 0.2] = 0.0        # absent interferers
    mu, sigma2 = stieltjes_moments(n, gains)
    for r in range(len(n)):
        # both moments lie in (0, 1] and the residual tolerance is absolute,
        # so the match is absolute: where mu is small, the reference loop
        # itself is only relatively accurate to about 1e-9
        ref_mu, ref_sigma2 = _damped_fixed_point(n[r], gains[r])
        assert mu[r] == pytest.approx(ref_mu, rel=0, abs=1e-10)
        assert sigma2[r] == pytest.approx(ref_sigma2, rel=0, abs=1e-10)
        assert (mu[r], sigma2[r]) == stieltjes_moments(n[r], gains[r])


def test_fixed_point_raises_at_the_iteration_cap(monkeypatch):
    from hetnetsim import ber_analytic

    monkeypatch.setattr(ber_analytic, "_MAX_FIXED_POINT_ITERS", 1)
    with pytest.raises(ber_analytic.FixedPointError):
        stieltjes_moments(8, [0.5, 20.0, 300.0])
    with pytest.raises(ber_analytic.FixedPointError):
        stieltjes_moments([8, 8], [[0.0, 0.0], [0.5, 20.0]])


def test_a_row_gives_the_same_bits_alone_and_in_a_stack_of_slower_rows(monkeypatch):
    # a converged row freezes while the others take more Newton steps, and
    # every sum runs along its own row
    from hetnetsim import ber_analytic

    n = np.array([8, 2])
    gains = np.array([[0.001, 0.002, 0.003], [100.0, 100.0, 100.0]])
    mu, sigma2 = stieltjes_moments(n, gains)
    alone = [stieltjes_moments(n[r], gains[r]) for r in range(2)]
    assert [(mu[r], sigma2[r]) for r in range(2)] == alone
    # the rows need different step counts: a cap the first row converges
    # within stops the second
    monkeypatch.setattr(ber_analytic, "_MAX_FIXED_POINT_ITERS", 3)
    assert stieltjes_moments(n[0], gains[0]) == alone[0]
    with pytest.raises(ber_analytic.FixedPointError):
        stieltjes_moments(n[1], gains[1])


def test_gamma_models_of_many_ues_equal_one_ue_at_a_time():
    rng = phy.stream(44)
    betas = 10.0 ** rng.uniform(-13, -9, size=(3, 12))
    args = (2.0, 30, 8e-11, 200.0)
    n_ant = np.array([256, 8, 8])
    serving = rng.integers(0, 3, size=12)
    rho = effective_rho(betas, *args[:3], args[3])
    bh = beta_hat(betas, *args[:3])
    many = sinr_gamma_models(n_ant[serving], rho[serving], bh[serving], np.arange(12))
    for k in range(12):
        one = gamma_model_for_ue(n_ant[serving[k]], betas[serving[k]], k, *args)
        for field in ("mu", "sigma2", "alpha", "xi", "rho_v", "beta_hat"):
            assert getattr(many, field)[k] == pytest.approx(getattr(one, field), rel=1e-12)
        assert analytic_ber(many)[k] == pytest.approx(analytic_ber(one), rel=1e-12)
