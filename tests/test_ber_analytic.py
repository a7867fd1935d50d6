import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import special

from hetnetsim import phy
from hetnetsim.ber_analytic import (
    SinrGammaModel,
    analytic_ber,
    ber_lower_bound,
    effective_rho,
    gamma_model_for_ue,
    q_function,
    stieltjes_moments,
)
from hetnetsim.estimators import mmse_error_stats

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _decimal_fixed_point(n, gains):
    """mu to 40 digits: Newton's method on u = R(u) in decimal arithmetic,
    from the same start right of the root, with the float gains exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        g, n = [decimal.Decimal(float(x)) for x in gains], decimal.Decimal(n)
        u = sum(g)
        for _ in range(100):
            r = sum(x * (1 + u) / (1 + u + n * x) for x in g)
            r_prime = sum(n * x * x / (1 + u + n * x) ** 2 for x in g)
            step = (r - u) / (1 - r_prime)
            u += step
            if abs(step) <= decimal.Decimal("1e-38") * u:
                return 1 / (1 + u)
    raise AssertionError("the decimal Newton iteration did not converge")


@pytest.mark.parametrize("n, gains", [
    (1, [1000.0] * 2), (1, [300.0] * 4), (3, [1e4] * 3), (16, [1e3] * 30)])
def test_a_small_mu_is_relatively_as_accurate_as_a_large_one(n, gains):
    # mu from 7e-5 to 6e-3: an absolute stopping residual of 1e-12 left
    # these 1e-10 to 3e-9 off relatively
    mu, _ = stieltjes_moments(n, gains)
    want = _decimal_fixed_point(n, gains)
    assert mu < 1e-2
    assert abs(decimal.Decimal(mu) - want) <= decimal.Decimal("1e-12") * want


def test_stieltjes_rejects_negative_gains():
    with pytest.raises(ValueError):
        stieltjes_moments(2, [-1.0])


def test_gamma_params_formula_values():
    # a lone UE has no interferer: mu = sigma2 = 1
    model = gamma_model_for_ue(8, 2.0, [1.0], 0)
    assert model.mean == 16.0
    assert model.variance == 32.0
    assert model.alpha == 8.0
    assert model.xi == 2.0


@given(
    n=st.integers(1, 256),
    rb=st.floats(1e-6, 1e4),
    interferer=st.floats(0.0, 10.0),
)
def test_gamma_mean_identity(n, rb, interferer):
    model = gamma_model_for_ue(n, rb, [1.0, interferer], 0)
    mu, _ = stieltjes_moments(n, [rb * interferer])
    assert model.mean == pytest.approx(n * rb * mu, rel=1e-12)


def test_gamma_params_reject_bad_moments(monkeypatch):
    from hetnetsim import ber_analytic

    monkeypatch.setattr(ber_analytic, "stieltjes_moments", lambda n, gains: (1.5, 1.0))
    with pytest.raises(ValueError, match="moments"):
        gamma_model_for_ue(8, 1.0, [1.0, 1.0], 0)


def test_analytic_ber_exponential_closed_form():
    # alpha = 1 is an exponential SINR: BER = (1 - sqrt(xi/(2+xi)))/2
    expected = 0.5 * (1.0 - math.sqrt(2.0 / 4.0))
    assert analytic_ber(SinrGammaModel(1.0, 2.0)) == pytest.approx(expected, rel=1e-12)


def test_analytic_ber_zero_snr_limit():
    assert analytic_ber(SinrGammaModel(3.0, 1e-9)) == pytest.approx(0.5, abs=1e-4)
    assert analytic_ber(SinrGammaModel(3.0, 0.0)) == 0.5


def test_analytic_ber_monotone_in_parameters():
    xis = [0.1, 0.5, 2.0, 8.0, 32.0]
    bers = [analytic_ber(SinrGammaModel(2.0, x)) for x in xis]
    assert all(a > b for a, b in zip(bers, bers[1:]))
    alphas = [0.5, 1.0, 2.0, 4.0]
    bers = [analytic_ber(SinrGammaModel(a, 2.0)) for a in alphas]
    assert all(a > b for a, b in zip(bers, bers[1:]))


def test_lower_bound_values_and_order():
    assert ber_lower_bound(SinrGammaModel(1.0, 0.0)) == 0.5
    assert ber_lower_bound(SinrGammaModel(8.0, 2.0)) == pytest.approx(3.167124183e-05, rel=1e-8)
    rng = phy.stream(7)
    for _ in range(25):
        alpha = float(10.0 ** rng.uniform(-0.5, 1.5))
        xi = float(10.0 ** rng.uniform(-2.0, 1.5))
        model = SinrGammaModel(alpha, xi)
        assert ber_lower_bound(model) <= analytic_ber(model) + 1e-15


def test_the_kernel_matches_scipy_to_1e_12():
    # a fixed grid: alpha over [0.5, 2048] and s = c2 xi / 2 over [1e-6, 1e8]
    alpha, s = (v.ravel() for v in np.meshgrid(np.geomspace(0.5, 2048.0, 57),
                                               np.geomspace(1e-6, 1e8, 71)))
    ber = analytic_ber(SinrGammaModel(alpha, s), 2.0)
    # scipy takes x = 1/(1+s) rounded, which near x = 1 loses the digits of
    # 1 - x; there it is read through the complement at 1 - x = s/(1+s)
    ref = 0.5 * np.where(s < 1.0, special.betaincc(0.5, alpha, s / (1.0 + s)),
                         special.betainc(alpha, 0.5, 1.0 / (1.0 + s)))
    shown = ref > 1e-290
    assert np.all(np.abs(ber[shown] / ref[shown] - 1.0) <= 1e-12)
    assert np.all(ber[~shown] <= 1e-289)
    x = np.linspace(0.0, 37.0, 371)
    q_ref = 0.5 * special.erfc(x / math.sqrt(2.0))
    shown = q_ref > 1e-290
    assert np.all(np.abs(q_function(x)[shown] / q_ref[shown] - 1.0) <= 1e-12)


def test_a_batched_call_gives_each_element_its_bits_alone():
    # the elements take from 1 to 40 continued-fraction terms, or none
    alpha = np.array([[0.5, 4.0, 234.1], [2048.0, 3.7, 1.0]])
    xi = np.array([[1e-5, 50.0, 0.026], [1e-3, 0.0, 1e9]])
    batched = analytic_ber(SinrGammaModel(alpha, xi), 2.0)
    assert batched.shape == alpha.shape
    for i in np.ndindex(alpha.shape):
        assert batched[i] == analytic_ber(SinrGammaModel(alpha[i], xi[i]), 2.0)
    assert np.array_equal(analytic_ber(SinrGammaModel(4.0, xi)),
                          analytic_ber(SinrGammaModel(np.full(xi.shape, 4.0), xi)))


def test_kernel_edge_values():
    # a zero scale is a BER of 1/2, whatever the shape; otherwise an
    # infinite shape or scale is 0
    model = SinrGammaModel(np.array([math.inf, 3.0, 3.0, math.inf, 0.5]),
                           np.array([0.0, 0.0, math.inf, 2.0, math.inf]))
    for kernel in (analytic_ber, ber_lower_bound):
        assert kernel(model).tolist() == [0.5, 0.5, 0.0, 0.0, 0.0]
        empty = kernel(SinrGammaModel(np.array([]), np.array([])))
        assert empty.shape == (0,) and empty.dtype == float


@pytest.mark.parametrize("alpha,xi", [
    (math.nan, 1.0), (1.0, math.nan), (-1.0, 1.0), (0.0, 1.0), (2.0, -0.5)])
@pytest.mark.parametrize("kernel", [analytic_ber, ber_lower_bound])
def test_both_kernels_reject_bad_gamma_parameters(kernel, alpha, xi):
    # a NaN would otherwise run the continued fraction to its term cap
    with pytest.raises(ValueError, match="Gamma parameters"):
        kernel(SinrGammaModel(np.array([2.0, alpha]), np.array([1.0, xi])))


def test_the_continued_fraction_raises_at_its_term_cap(monkeypatch):
    from hetnetsim import ber_analytic

    monkeypatch.setattr(ber_analytic, "_MAX_CF_TERMS", 1)
    with pytest.raises(RuntimeError, match="continued fraction"):
        analytic_ber(SinrGammaModel(234.1, 0.026), 2.0)


def test_decision_scale_two_is_the_kernel_at_doubled_xi_bit_for_bit():
    # BPSK's decision SNR is twice the SINR; doubling is exact in floating
    # point, so c2 = 2 gives what the kernel gives a model of scale 2 xi
    alpha = np.array([0.5, 4.0, 30.0, 241.03, 1000.0])
    xi = np.array([1e-3, 1.5, 0.184, 0.0123456789, 7.3])
    model, doubled = SinrGammaModel(alpha, xi), SinrGammaModel(alpha, 2.0 * xi)
    assert np.array_equal(analytic_ber(model, 2.0), analytic_ber(doubled))
    assert np.array_equal(ber_lower_bound(model, 2.0), ber_lower_bound(doubled))


def test_gamma_model_for_ue_composes():
    betas = np.array([1e-9, 3e-10, 5e-11])
    bh = mmse_error_stats(betas, 2.0, 30, 8e-11).estimate_var
    rho = effective_rho(betas, 2.0, 30, 8e-11, 200.0)
    model = gamma_model_for_ue(8, rho, bh, 0)
    mu, sigma2 = stieltjes_moments(8, rho * bh[1:])
    assert model.mean == pytest.approx(8 * rho * bh[0] * mu)
    assert model.variance == pytest.approx(8 * (rho * bh[0]) ** 2 * sigma2)
    assert 0 < mu <= 1 and mu ** 2 <= sigma2 <= mu


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
    rho = effective_rho(betas, *args)
    bh = mmse_error_stats(betas, *args[:3]).estimate_var
    many = gamma_model_for_ue(n_ant[serving], rho[serving], bh[serving], np.arange(12))
    for k in range(12):
        v = serving[k]
        one = gamma_model_for_ue(n_ant[v], rho[v], bh[v], k)
        for field in ("alpha", "xi"):
            assert getattr(many, field)[k] == pytest.approx(getattr(one, field), rel=1e-12)
        assert analytic_ber(many)[k] == pytest.approx(analytic_ber(one), rel=1e-12)
