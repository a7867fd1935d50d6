"""Data-aided MMSE channel estimation at the macro BS.

Decoded uplink payloads act as extra quasi-pilots: the training and data
blocks are combined with a BER-aware MMSE filter whose error model shrinks
each decoded row by (1 - 2 BER) and adds a residual-interference diagonal
on the data block.  The wide solve collapses to a K x K system through the
Woodbury identity.
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


def da_estimate_matrix(
    z: np.ndarray,
    data: Observation,
    pilots: PilotMatrix,
    side: DecodedSideInfo,
    betas,
    noise_power: float,
) -> np.ndarray:
    """Data-aided estimates of every UE's channel to this BS (one column
    each) from its despread training block ``z`` (``estimators.despread``)
    and the data block it recorded next.  A leading trial axis on the
    blocks and the side information, x_hat (T, K, tau_d) and BERs (K,) or
    (T, K), gives one estimate matrix, and one Delta_S, per trial.

    With D the diagonal regulariser (N0 on pilots, Delta_S + N0 on data)
    and Wbar = [S, Xd] the pilots beside the decoded rows shrunk by
    (1 - 2 BER), the MMSE combiner of the joined block [Y_t, Y_d] is
    D^-1 Wbar^H M with the K x K Woodbury core
    M = (diag(1/beta) + Wbar D^-1 Wbar^H)^-1, so the estimate is the pilot
    term plus the decoded-data increment, (z/N0 + Y_d Xd^H/(Delta_S + N0)) M.
    """
    if data.phase is not Phase.DATA:
        raise ValueError("data-aided estimation needs a data-phase block")
    if z.shape[:-1] != data.y.shape[:-1]:
        raise ValueError("training and data blocks disagree on antenna count")
    betas = np.asarray(betas, dtype=float)
    tau_d = side.x_hat.shape[-1]
    if (z.shape[-1], data.y.shape[-1]) != (len(betas), tau_d):
        raise ValueError(f"blocks have {z.shape[-1]} despread + {data.y.shape[-1]} data "
                         f"columns, expected K + tau_d = {len(betas)} + {tau_d}")
    if tau_d == 0:
        # no data columns: the scheme is exactly the pilot-only MMSE estimator
        return mmse_estimate_matrix(z, pilots, betas, noise_power)
    bers = fold_ber(side.ber)
    decoded = side.x_hat * (1.0 - 2.0 * bers)[..., None]
    decoded_h = decoded.conj().swapaxes(-1, -2)
    data_reg = (delta_s_x(bers, betas, side.power) + noise_power)[..., None, None]
    gram = pilots.s @ pilots.s.conj().T / noise_power + decoded @ decoded_h / data_reg
    core = np.linalg.inv(np.diag(1.0 / betas) + gram)
    return (z / noise_power + data.y @ decoded_h / data_reg) @ core


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
