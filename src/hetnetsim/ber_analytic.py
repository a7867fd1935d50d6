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

from .estimators import mmse_error_stats

_MAX_FIXED_POINT_ITERS = 10 ** 4
_MAX_CF_TERMS = 10 ** 4
_HALF_LOG_PI = 0.5 * math.log(math.pi)


class FixedPointError(RuntimeError):
    """Raised when the moment fixed point fails to converge."""


def q_function(x):
    """Gaussian tail probability Q(x)."""
    erfc = np.vectorize(math.erfc, otypes=[float])
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


@dataclass(frozen=True)
class SinrGammaModel:
    """Gamma(alpha, xi) law matched to one UE's MMSE-detector SINR; with
    array fields, the laws of several UEs elementwise."""

    alpha: float         # Gamma shape
    xi: float            # Gamma scale

    @property
    def mean(self):      # E[SINR]
        return self.alpha * self.xi

    @property
    def variance(self):  # Var[SINR]
        return self.alpha * self.xi ** 2


def effective_rho(betas, p_t: float, tau_t: int, noise_power: float, p_d: float):
    """Inverse of the residual noise level seen by the MMSE detector:
    channel-estimation leakage of every UE plus thermal noise over P_D.
    One value per row when ``betas`` stacks the gains of several BSs."""
    resid = np.sum(mmse_error_stats(betas, p_t, tau_t, noise_power).error_var, axis=-1)
    return 1.0 / (resid + noise_power / p_d)


def stieltjes_moments(n_antennas, interferer_gains, tolerance: float = 1e-13):
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
    Each row stops once its residual |m - F(m)| is within ``tolerance`` * m.
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
        active = np.abs(m - 1.0 / (1.0 + interference)) > tolerance * m
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
    alpha, scale = _gamma_params(model, c2)
    return 0.5 * np.vectorize(_half_beta, otypes=[float])(alpha, 0.5 * scale)


def ber_lower_bound(model: SinrGammaModel, c2: float = 1.0):
    """Jensen bound Q(sqrt(c2 E[SINR])); the BER kernel is strictly convex.
    A zero scale is SINR = 0 whatever the shape, so an infinite shape there
    gives 1/2, as ``analytic_ber`` does."""
    alpha, scale = _gamma_params(model, c2)
    return q_function(np.sqrt(np.where(scale > 0, alpha, 0.0) * scale))


def _gamma_params(model: SinrGammaModel, c2: float):
    """(alpha, c2 xi) of a valid model; a NaN fails both tests."""
    alpha = np.asarray(model.alpha, dtype=float)
    scale = c2 * np.asarray(model.xi, dtype=float)
    if not (np.all(alpha > 0) and np.all(scale >= 0)):
        raise ValueError("Gamma parameters must be positive")
    return alpha, scale


def _half_beta(a: float, s: float) -> float:
    """I_x(a, 1/2) at x = 1/(1+s), so that neither x nor 1 - x = s/(1+s)
    is formed by a subtraction: the continued fraction of DiDonato & Morris
    (ACM TOMS Algorithm 708, 1992), reflected through 1 - I_{1-x}(1/2, a)
    where x > (a+1)/(a+2.5), i.e. s (a+1) < 3/2.  One element in Python
    floats: a batch's slowest element costs only its own terms, and no
    element's bits depend on the rest of the batch."""
    if s == 0.0:
        return 1.0
    if math.isinf(s) or math.isinf(a):
        return 0.0
    # x^a (1-x)^(1/2) / B(a, 1/2), with B(a, 1/2) = sqrt(pi) Gamma(a)/Gamma(a + 1/2)
    front = math.exp(0.5 * math.log(s) - (a + 0.5) * math.log1p(s)
                     + _log_gamma_half_ratio(a) - _HALF_LOG_PI)
    if s * (a + 1.0) < 1.5:
        return 1.0 - 2.0 * front * _lentz(0.5, a, s / (1.0 + s))
    return front * _lentz(a, 0.5, 1.0 / (1.0 + s)) / a


def _log_gamma_half_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a): its asymptotic series from a = 20 on,
    where the two lgamma values would cancel, and math.lgamma below."""
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z = 1.0 / a
    z2 = z * z
    return 0.5 * math.log(a) - z * (
        1 / 8 - z2 * (1 / 192 - z2 * (1 / 640 - z2 * (17 / 14336 - z2 * (31 / 18432)))))


def _lentz(p: float, q: float, z: float) -> float:
    """p B(p, q) I_z(p, q) / (z^p (1-z)^q) as the continued fraction
    1/(1 + d1/(1 + d2/(1 + ...))), d_{2m} = m(q-m)z/((p+2m-1)(p+2m)) and
    d_{2m+1} = -(p+m)(p+q+m)z/((p+2m)(p+2m+1)), by Lentz's method.  The
    first denominator is positive on both sides of the reflection; a later
    one that vanishes is moved off zero."""
    c, d = 1.0, 1.0 / (1.0 - (p + q) * z / (p + 1.0))
    h = d
    for m in range(1, _MAX_CF_TERMS + 1):
        k = p + 2 * m
        for coef in (m * (q - m) * z / ((k - 1.0) * k),
                     -(p + m) * (p + q + m) * z / (k * (k + 1.0))):
            d = 1.0 + coef * d
            c = 1.0 + coef / c
            d = 1.0 / (d if abs(d) > 1e-300 else 1e-300)
            c = c if abs(c) > 1e-300 else 1e-300
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise RuntimeError(
        f"incomplete beta continued fraction: no convergence after {_MAX_CF_TERMS} terms")


def gamma_model_for_ue(n_antennas, rho_v, beta_hats, k) -> SinrGammaModel:
    """Gamma models of UEs ``k`` from their serving BSs' effective inverse
    noise ``rho_v`` and estimate variances ``beta_hats`` (one per UE).

    Every UE but the target interferes.  The deterministic-equivalent
    moments (mu, sigma2) of its SINR, E[SINR] = N rho beta_hat mu and
    Var[SINR] = N (rho beta_hat)^2 sigma2, fix alpha and xi.  With a
    leading axis, (R, K) ``beta_hats`` and R-long ``n_antennas``, ``rho_v``
    and ``k``, one fixed point solve covers all R targets; a model of
    arrays comes back.
    """
    beta_hats = np.asarray(beta_hats, dtype=float)
    rho_v = np.asarray(rho_v, dtype=float)
    target = np.asarray(k)[..., None]
    gains = rho_v[..., None] * beta_hats
    np.put_along_axis(gains, target, 0.0, axis=-1)
    mu, sigma2 = stieltjes_moments(n_antennas, gains)
    own = np.take_along_axis(beta_hats, target, axis=-1)[..., 0]
    if not (np.all(0.0 < mu) and np.all(mu <= 1.0)
            and np.all(0.0 < sigma2) and np.all(sigma2 <= 1.0)):
        raise ValueError("moments must lie in (0, 1]")
    return SinrGammaModel(alpha=n_antennas * mu ** 2 / sigma2,
                          xi=rho_v[()] * own[()] * sigma2 / mu)
