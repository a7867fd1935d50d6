"""Closed-form BER of the MMSE detector under imperfect CSI.

The post-combining SINR is approximated by a Gamma law whose two moments
come from a deterministic-equivalent (Stieltjes-transform) fixed point over
the interferers' effective gains.  The resulting BER is a Gamma-weighted
Gaussian tail integral with an incomplete-beta closed form, plus a Jensen
lower bound.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .estimators import mmse_error_stats

_MAX_FIXED_POINT_ITERS = 10 ** 4
_DAMPING = 0.5


class FixedPointError(RuntimeError):
    """Raised when the moment fixed point fails to converge."""


def q_function(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


@dataclass(frozen=True)
class SinrGammaModel:
    """Gamma-matched SINR law of one UE's MMSE-detector output."""

    mu: float            # deterministic equivalent of Tr(Lambda)/N at z = -1
    sigma2: float        # its derivative counterpart, Tr(Lambda^2)/N
    mean: float          # E[SINR]
    variance: float      # Var[SINR]
    alpha: float         # Gamma shape
    xi: float            # Gamma scale
    rho_v: float         # effective inverse noise at the serving BS
    beta_hat: float      # estimate-variance gain of the target UE


def effective_rho(betas, p_t: float, tau_t: int, noise_power: float, p_d: float) -> float:
    """Inverse of the residual noise level seen by the MMSE detector:
    channel-estimation leakage of every UE plus thermal noise over P_D."""
    resid = np.sum(mmse_error_stats(betas, p_t, tau_t, noise_power).error_var)
    return 1.0 / (resid + noise_power / p_d)


def beta_hat(betas, p_t: float, tau_t: int, noise_power: float):
    """Per-element variance of the MMSE channel estimate for each gain."""
    return mmse_error_stats(betas, p_t, tau_t, noise_power).estimate_var


def _fixed_point_map(m: float, n_antennas: int, gains: np.ndarray) -> float:
    return 1.0 / (1.0 + np.sum(gains / (1.0 + n_antennas * gains * m)))


def stieltjes_moments(n_antennas: int, interferer_gains, tolerance: float = 1e-12):
    """Solve the scalar deterministic-equivalent fixed point at z = -1.

    ``interferer_gains`` holds rho_v * beta_hat_i for every interferer. The
    returned pair (mu, sigma2) gives the limits of Tr(Lambda)/N and
    Tr(Lambda^2)/N; sigma2 is the fixed point's derivative
    m' = m^2 / (1 + m^2 F'(m)), obtained by differentiating the
    self-consistency condition m = 1/(F(m) - z) in z.
    """
    gains = np.asarray(interferer_gains, dtype=float)
    if np.any(gains < 0):
        raise ValueError("interferer gains must be non-negative")
    m = 1.0
    converged = False
    for _ in range(_MAX_FIXED_POINT_ITERS):
        m_next = (1.0 - _DAMPING) * m + _DAMPING * _fixed_point_map(m, n_antennas, gains)
        step = abs(m_next - m)
        m = m_next
        if step < 0.5 * tolerance:
            converged = True
            break
    if not converged or abs(m - _fixed_point_map(m, n_antennas, gains)) > tolerance:
        raise FixedPointError(
            f"no convergence after {_MAX_FIXED_POINT_ITERS} damped iterations"
        )
    # F'(m) of the interference term; sigma2 > mu^2 whenever interferers spread
    f_prime = -np.sum(n_antennas * gains ** 2 / (1.0 + n_antennas * gains * m) ** 2)
    sigma2 = m * m / (1.0 + m * m * f_prime)
    return float(m), float(sigma2)


def sinr_gamma_params(
    n_antennas: int, rho_v: float, beta_hat: float, mu: float, sigma2: float
) -> SinrGammaModel:
    """Moment-match a Gamma(alpha, xi) law to the SINR approximations
    E[SINR] = N rho beta_hat mu and Var[SINR] = N (rho beta_hat)^2 sigma2."""
    if not (0.0 < mu <= 1.0 and 0.0 < sigma2 <= 1.0):
        raise ValueError("moments must lie in (0, 1]")
    rb = rho_v * beta_hat
    mean = n_antennas * rb * mu
    variance = n_antennas * rb ** 2 * sigma2
    return SinrGammaModel(
        mu=mu,
        sigma2=sigma2,
        mean=mean,
        variance=variance,
        alpha=n_antennas * mu ** 2 / sigma2,
        xi=rb * sigma2 / mu,
        rho_v=rho_v,
        beta_hat=beta_hat,
    )


def analytic_ber(model: SinrGammaModel) -> float:
    """Ergodic BER of a Gamma(alpha, xi) SINR under the Q(sqrt(x)) kernel.

    E[Q(sqrt(X))] = 1/2 I_{2/(2+xi)}(alpha, 1/2), a regularised incomplete
    beta function.  Q(sqrt(x)) = 1/2 P(Z > x) for an independent Z ~ chi2_1,
    which is 2 G_b with G_b ~ Gamma(1/2, 1); with X = xi G_a the event
    Z > X is G_a/(G_a + G_b) < 2/(2 + xi), and that ratio is
    Beta(alpha, 1/2)-distributed.
    """
    alpha, xi = model.alpha, model.xi
    if alpha <= 0 or xi < 0:
        raise ValueError("Gamma parameters must be positive")
    return float(0.5 * special.betainc(alpha, 0.5, 2.0 / (2.0 + xi)))


def ber_lower_bound(model: SinrGammaModel) -> float:
    """Jensen bound Q(sqrt(E[SINR])); the BER kernel is strictly convex."""
    return float(q_function(math.sqrt(model.alpha * model.xi)))


def gamma_model_for_ue(
    n_antennas: int,
    betas,
    k: int,
    p_t: float,
    tau_t: int,
    noise_power: float,
    p_d: float,
) -> SinrGammaModel:
    """Convenience composition for UE ``k`` at a BS seeing gains ``betas``."""
    rho_v = effective_rho(betas, p_t, tau_t, noise_power, p_d)
    bh = beta_hat(betas, p_t, tau_t, noise_power)
    mu, sigma2 = stieltjes_moments(n_antennas, rho_v * np.delete(bh, k))
    return sinr_gamma_params(n_antennas, rho_v, float(bh[k]), mu, sigma2)


def bpsk_detection_model(model: SinrGammaModel) -> SinrGammaModel:
    """Gamma law of the BPSK decision-point SNR.

    A real BPSK decision only fights the in-phase half of the combiner
    output noise, so the Q-argument variable is twice the complex-output
    SINR; scaling a Gamma variate by two doubles its scale parameter.
    """
    return dataclasses.replace(
        model, mean=2.0 * model.mean, variance=4.0 * model.variance, xi=2.0 * model.xi)
