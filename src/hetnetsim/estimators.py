"""Pilot-only LS and MMSE channel estimators, the pilot SNR-like term and the NMSE map."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .phy import Observation, Phase, PilotMatrix


class EstMethod(str, enum.Enum):
    LS = "ls"
    MMSE = "mmse"
    DATA_AIDED = "da"


@dataclass(frozen=True)
class EstimateStats:
    """Per-element variances of the MMSE estimate and of its error, for one
    gain or elementwise for an array of gains.

    The two always sum to the channel gain beta (MMSE orthogonality).
    """

    estimate_var: float | np.ndarray
    error_var: float | np.ndarray


def despread(obs: Observation, pilots: PilotMatrix) -> np.ndarray:
    """The training block correlated with each pilot, y S^H: tau_t*P_T*g_k
    plus N s_k^H in column k.  The pilot-only estimators scale it, and the
    data-aided estimate takes it as its pilot term."""
    if obs.phase is not Phase.TRAINING:
        raise ValueError("despreading needs a training-phase observation")
    return obs.y @ pilots.s.conj().T


def ls_estimate_matrix(obs: Observation, pilots: PilotMatrix) -> np.ndarray:
    """LS estimates of all UEs at once, one column per UE."""
    return despread(obs, pilots) / (pilots.tau_t * pilots.power)


def mmse_estimate_matrix(
    obs: Observation, pilots: PilotMatrix, betas, noise_power: float
) -> np.ndarray:
    """Per-UE MMSE estimates for orthogonal pilots: a scalar shrinkage
    beta/(N0 + beta*tau_t*P_T) applied to the despread observation.

    An observation with leading axes, such as (T, B, antennas, tau_t),
    takes one row of ``betas`` per BS, (B, K), and gives (T, B, antennas, K).
    """
    return despread(obs, pilots) * mmse_shrinkage(
        betas, pilots.power, pilots.tau_t, noise_power)[..., None, :]


def mmse_shrinkage(betas, p_t: float, tau_t: int, noise_power: float) -> np.ndarray:
    """Scalar MMSE filter beta/(N0 + beta*P_T*tau_t) of each gain under
    orthogonal pilots."""
    betas = np.asarray(betas, dtype=float)
    return betas / (noise_power + betas * p_t * tau_t)


def mmse_error_stats(beta, p_t: float, tau_t: int, noise_power: float) -> EstimateStats:
    """Estimate and error variances of the MMSE estimate of gain(s) beta.

    The estimate variance is beta*P_T*tau_t*s with the shrinkage s, and the
    error, the residual leakage beta*N0/(N0 + beta*P_T*tau_t), is taken as
    beta/(1 + beta*P_T*tau_t/N0): each rounded step of that form is monotone
    in N0, so the error never shrinks when the noise grows, not even by an
    ulp.  Neither is taken as beta minus the other, which cancels
    catastrophically for weak links.
    """
    beta = np.asarray(beta, dtype=float)
    energy = beta * p_t * tau_t
    if noise_power == 0.0:
        # noiseless training: exact wherever the pilots carry energy, and
        # exactly zero where they carry none
        exact = energy > 0.0
        return EstimateStats(estimate_var=np.where(exact, beta, 0.0)[()],
                             error_var=np.where(exact, 0.0, beta)[()])
    shrink = mmse_shrinkage(beta, p_t, tau_t, noise_power)
    return EstimateStats(estimate_var=energy * shrink,
                         error_var=beta / (1.0 + energy / noise_power))


def pilot_snr(p_t: float, tau_t: int, noise_power: float) -> float:
    """The pilot SNR-like term rho = tau_t*P_T/N0 that every estimator starts from."""
    return tau_t * p_t / noise_power


def analytic_nmse(kind: EstMethod, rho, beta) -> float | np.ndarray:
    """Closed-form NMSE in dB at SNR-like term(s) rho and gain(s) beta,
    elementwise over UEs: 1/(rho*beta) for LS and 1/(1 + rho*beta) for MMSE
    and DA.  MMSE takes ``pilot_snr``; DA takes ``data_aided.rho_data_aided``."""
    snr = np.asarray(rho, dtype=float) * np.asarray(beta, dtype=float)
    if EstMethod(kind) is EstMethod.LS:
        return 10.0 * np.log10(1.0 / snr)
    return 10.0 * np.log10(1.0 / (1.0 + snr))
