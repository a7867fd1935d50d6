"""Closed-form BER of the MMSE detector under imperfect CSI.

The post-combining SINR is approximated by a Gamma law whose two moments
come from a deterministic-equivalent (Stieltjes-transform) fixed point over
the interferers' effective gains.  The resulting BER is a Gamma-weighted
Gaussian tail integral with an incomplete-beta closed form, plus a Jensen
lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .estimators import mmse_error_stats

_MAX_FIXED_POINT_ITERS = 10 ** 4


class FixedPointError(RuntimeError):
    """Raised when the moment fixed point fails to converge."""


def q_function(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


@dataclass(frozen=True)
class SinrGammaModel:
    """Gamma-matched SINR law of one UE's MMSE-detector output; with array
    fields, the laws of several UEs elementwise."""

    mu: float            # deterministic equivalent of Tr(Lambda)/N at z = -1
    sigma2: float        # its derivative counterpart, Tr(Lambda^2)/N
    mean: float          # E[SINR]
    variance: float      # Var[SINR]
    alpha: float         # Gamma shape
    xi: float            # Gamma scale
    rho_v: float         # effective inverse noise at the serving BS
    beta_hat: float      # estimate-variance gain of the target UE


def effective_rho(betas, p_t: float, tau_t: int, noise_power: float, p_d: float):
    """Inverse of the residual noise level seen by the MMSE detector:
    channel-estimation leakage of every UE plus thermal noise over P_D.
    One value per row when ``betas`` stacks the gains of several BSs."""
    resid = np.sum(mmse_error_stats(betas, p_t, tau_t, noise_power).error_var, axis=-1)
    return 1.0 / (resid + noise_power / p_d)


def beta_hat(betas, p_t: float, tau_t: int, noise_power: float):
    """Per-element variance of the MMSE channel estimate for each gain."""
    return mmse_error_stats(betas, p_t, tau_t, noise_power).estimate_var


def stieltjes_moments(n_antennas, interferer_gains, tolerance: float = 1e-12):
    """Solve the deterministic-equivalent fixed point at z = -1.

    ``interferer_gains`` holds rho_v * beta_hat_i for every interferer. The
    returned pair (mu, sigma2) gives the limits of Tr(Lambda)/N and
    Tr(Lambda^2)/N; sigma2 is the fixed point's derivative
    m' = m^2 / (1 + m^2 F'(m)), obtained by differentiating the
    self-consistency condition m = 1/(F(m) - z) in z.

    A 2-D ``interferer_gains`` solves one fixed point per row at once, with
    ``n_antennas`` a scalar or one count per row; a zero gain is no
    interferer.  The outputs then are arrays with one entry per row.

    In u = 1/m - 1 the condition reads u = R(u) = sum_i g_i (1+u)/(1+u+N g_i),
    with R increasing and concave, so Newton's method started right of the
    root at u = sum_i g_i, an upper bound on R, falls monotonically onto it.
    Each row stops once its residual |m - F(m)| is within ``tolerance``.
    """
    gains = np.asarray(interferer_gains, dtype=float)
    if np.any(gains < 0):
        raise ValueError("interferer gains must be non-negative")
    rows = np.atleast_2d(gains)
    n = np.broadcast_to(np.asarray(n_antennas, dtype=float), rows.shape[:1])[:, None]
    u = np.sum(rows, axis=1)
    for _ in range(_MAX_FIXED_POINT_ITERS):
        m = 1.0 / (1.0 + u)
        load = 1.0 + n * rows * m[:, None]
        interference = np.sum(rows / load, axis=1)            # R(u) = F(m)^-1 - 1
        active = np.abs(m - 1.0 / (1.0 + interference)) > tolerance
        # F'(m) of the interference term; sigma2 > mu^2 whenever interferers spread
        f_prime = -np.sum(n * rows ** 2 / load ** 2, axis=1)
        if not np.any(active):
            break
        # R'(u) = -m^2 F'(m) < 1 right of the root
        step = (interference - u) / (1.0 + m * m * f_prime)
        u = np.where(active, u + step, u)
    else:
        raise FixedPointError(
            f"no convergence after {_MAX_FIXED_POINT_ITERS} Newton steps"
        )
    sigma2 = m * m / (1.0 + m * m * f_prime)
    if gains.ndim < 2:
        return float(m[0]), float(sigma2[0])
    return m, sigma2


def sinr_gamma_params(
    n_antennas: int, rho_v: float, beta_hat: float, mu: float, sigma2: float
) -> SinrGammaModel:
    """Moment-match a Gamma(alpha, xi) law to the SINR approximations
    E[SINR] = N rho beta_hat mu and Var[SINR] = N (rho beta_hat)^2 sigma2.
    Array arguments give a model whose fields are arrays, elementwise."""
    if not (np.all(0.0 < mu) and np.all(mu <= 1.0)
            and np.all(0.0 < sigma2) and np.all(sigma2 <= 1.0)):
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


def analytic_ber(model: SinrGammaModel, c2: float = 1.0):
    """Ergodic BER of a Gamma(alpha, xi) SINR X under the Q(sqrt(c2 X))
    kernel; c2 turns the SINR into the decision-point SNR (2 for BPSK).

    E[Q(sqrt(X))] = 1/2 I_{2/(2+xi)}(alpha, 1/2), a regularised incomplete
    beta function, and c2 X is Gamma(alpha, c2 xi).  Q(sqrt(x)) = 1/2 P(Z > x)
    for an independent Z ~ chi2_1, which is 2 G_b with G_b ~ Gamma(1/2, 1);
    with X = xi G_a the event Z > X is G_a/(G_a + G_b) < 2/(2 + xi), and
    that ratio is Beta(alpha, 1/2)-distributed.  Elementwise for a model of
    arrays.
    """
    alpha, xi = model.alpha, model.xi
    if np.any(np.asarray(alpha) <= 0) or np.any(np.asarray(xi) < 0):
        raise ValueError("Gamma parameters must be positive")
    return 0.5 * special.betainc(alpha, 0.5, 2.0 / (2.0 + c2 * xi))


def ber_lower_bound(model: SinrGammaModel, c2: float = 1.0):
    """Jensen bound Q(sqrt(c2 E[SINR])); the BER kernel is strictly convex."""
    return q_function(np.sqrt(model.alpha * (c2 * model.xi)))


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
    return sinr_gamma_models(n_antennas, effective_rho(betas, p_t, tau_t, noise_power, p_d),
                             beta_hat(betas, p_t, tau_t, noise_power), k)


def sinr_gamma_models(n_antennas, rho_v, beta_hats, k) -> SinrGammaModel:
    """Gamma models of UEs ``k`` from their serving BSs' effective inverse
    noise ``rho_v`` and estimate variances ``beta_hats`` (one per UE).

    Every UE but the target interferes.  With a leading axis, (R, K)
    ``beta_hats`` and R-long ``n_antennas``, ``rho_v`` and ``k``, one
    fixed point solve covers all R targets; a model of arrays comes back.
    """
    beta_hats = np.asarray(beta_hats, dtype=float)
    rho_v = np.asarray(rho_v, dtype=float)
    target = np.asarray(k)[..., None]
    gains = rho_v[..., None] * beta_hats
    np.put_along_axis(gains, target, 0.0, axis=-1)
    mu, sigma2 = stieltjes_moments(n_antennas, gains)
    own = np.take_along_axis(beta_hats, target, axis=-1)[..., 0]
    return sinr_gamma_params(n_antennas, rho_v[()], own[()], mu, sigma2)

