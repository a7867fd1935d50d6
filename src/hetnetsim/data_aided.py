"""Data-aided MMSE channel estimation at the macro BS.

Decoded uplink payloads act as extra quasi-pilots: the joint training+data
observation is combined with a BER-aware MMSE filter whose error model
shrinks each decoded row by (1 - 2 BER) and adds a residual-interference
diagonal on the data block.  The wide solve collapses to a K x K system
through the Woodbury identity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .estimators import mmse_estimate_matrix, pilot_snr
from .phy import Observation, Phase, PilotMatrix


class BerSource(str, enum.Enum):
    ANALYTIC_PROP1 = "analytic"
    EMPIRICAL_ORACLE = "empirical"
    ZERO_ERROR = "zero_error"          # oracle mode: decoded data taken error-free


@dataclass(frozen=True)
class DecodedSideInfo:
    """What the serving BSs forward over backhaul: decoded symbols plus a
    per-UE BER figure describing how much to trust them."""

    x_hat: np.ndarray                  # ([T,] K, tau_d) decoded symbols
    ber: np.ndarray                    # ([T,] K) in [0, 0.5]
    power: float                       # nominal symbol power P_D


def fold_ber(ber) -> np.ndarray:
    """Fold sign-ambiguous BER reports into [0, 0.5]."""
    b = np.asarray(ber, dtype=float)
    return np.clip(np.minimum(b, 1.0 - b), 0.0, 0.5)


def delta_s_x(bers, betas, p_d: float) -> float | np.ndarray:
    """Residual interference injected by decoding errors, P_D-weighted;
    one value per row of a stack of BER vectors."""
    bers = fold_ber(bers)
    betas = np.asarray(betas, dtype=float)
    return p_d * np.sum(betas * (1.0 - (1.0 - 2.0 * bers) ** 2), axis=-1)


def da_combiner_matrix(
    pilots: PilotMatrix, side: DecodedSideInfo, betas, noise_power: float
) -> np.ndarray:
    """Columns are the per-UE combiners applied to the joint observation.

    Solved in the K x K Woodbury form: with D the diagonal regulariser
    (N0 on pilots, Delta_S + N0 on data) and Wbar the shrunk joint rows,
    C = D^-1 Wbar^H (diag(1/beta) + Wbar D^-1 Wbar^H)^-1.

    Side information with a leading trial axis, x_hat (T, K, tau_d) and
    BERs (K,) or (T, K), gives one combiner, and one Delta_S, per trial.
    """
    betas = np.asarray(betas, dtype=float)
    bers = fold_ber(side.ber)
    tau_t = pilots.tau_t
    decoded = side.x_hat * (1.0 - 2.0 * bers)[..., None]
    lead = decoded.shape[:-2]
    w_bar = np.concatenate([np.broadcast_to(pilots.s, (*lead, *pilots.s.shape)), decoded],
                           axis=-1)
    ds = delta_s_x(bers, betas, side.power)
    d_inv = np.concatenate(
        [np.full((*lead, tau_t), 1.0 / noise_power),
         np.full((*lead, decoded.shape[-1]), (1.0 / (ds + noise_power))[..., None])], axis=-1)
    w_bar_h = w_bar.conj().swapaxes(-1, -2)
    a = (w_bar * d_inv[..., None, :]) @ w_bar_h
    middle = np.linalg.solve(np.diag(1.0 / betas) + a, np.eye(len(betas)))
    return (d_inv[..., :, None] * w_bar_h) @ middle


def da_estimate_matrix(
    joint_obs: Observation,
    pilots: PilotMatrix,
    side: DecodedSideInfo,
    betas,
    noise_power: float,
) -> np.ndarray:
    """Data-aided estimates of every UE's channel to this BS (one column
    each).  A leading trial axis on the observation and the side
    information gives one estimate matrix per trial."""
    if joint_obs.phase is not Phase.JOINT:
        raise ValueError("data-aided estimation needs the joint observation")
    tau_d = side.x_hat.shape[-1]
    expected_cols = pilots.tau_t + tau_d
    if joint_obs.y.shape[-1] != expected_cols:
        raise ValueError(
            f"joint observation has {joint_obs.y.shape[-1]} columns, "
            f"expected tau_t + tau_d = {expected_cols}"
        )
    if tau_d == 0:
        # no data columns: the scheme is exactly the pilot-only MMSE estimator
        train = Observation(y=joint_obs.y, phase=Phase.TRAINING,
                            noise_power=joint_obs.noise_power)
        return mmse_estimate_matrix(train, pilots, betas, noise_power)
    c = da_combiner_matrix(pilots, side, betas, noise_power)
    return joint_obs.y @ c


def rho_data_aided(
    bers, betas, p_t: float, p_d: float, tau_t: int, tau_d: int, noise_power: float,
) -> np.ndarray:
    """Each UE's DA SNR-like term: the pilot term plus the decoded-data increment
    discounted by the BER shrinkage and residual interference."""
    bers = fold_ber(bers)
    ds = delta_s_x(bers, betas, p_d)
    increment = tau_d * p_d * (1.0 - 2.0 * bers) ** 2 / (ds + noise_power)
    return pilot_snr(p_t, tau_t, noise_power) + increment


def da_power_floor(tau_d: int, bers, betas) -> np.ndarray:
    """Limit of each UE's DA increment as the data power grows without bound;
    with every BER at zero there is no floor, and every UE gets inf."""
    bers = fold_ber(bers)
    denom = float(delta_s_x(bers, betas, 1.0))
    if denom == 0.0:
        return np.full(bers.shape, math.inf)
    return tau_d * (1.0 - 2.0 * bers) ** 2 / denom
