"""Zero-forcing downlink beamforming and the ergodic-rate metric."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .phy import ChannelSet
from .scenario import Association


@dataclass(frozen=True)
class Precoder:
    """One BS's precoding matrix, a column per served UE, with the power
    budget split equally across columns."""

    w: np.ndarray                      # ([T,] antennas, served)
    power: float
    ue_indices: tuple


@dataclass(frozen=True)
class DownlinkRates:
    sinr: np.ndarray                   # ([T,] K) linear SINR
    rate: np.ndarray                   # ([T,] K) log2(1 + SINR)


def zf_precode(estimates: np.ndarray, power: float, ue_indices=None) -> Precoder:
    """ZF beamformer from estimated channels: pseudo-inverse directions,
    columns rescaled to power/served.  A leading trial axis,
    (T, antennas, served), gives one precoder matrix per trial."""
    est = np.asarray(estimates)
    if est.ndim < 2:
        raise ValueError("estimates must be an (antennas, served) matrix")
    n_ant, served = est.shape[-2:]
    if served > n_ant:
        raise ValueError(f"ZF cannot serve {served} UEs with {n_ant} antennas")
    if ue_indices is None:
        ue_indices = tuple(range(served))
    est_t = est.swapaxes(-1, -2)
    gram = est_t.conj() @ est
    try:
        raw = np.linalg.solve(gram.swapaxes(-1, -2), est_t).swapaxes(-1, -2)   # est @ inv(gram)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("rank-deficient estimated channel matrix") from exc
    norms = np.linalg.norm(raw, axis=-2)
    if np.any(norms == 0):
        raise np.linalg.LinAlgError("degenerate ZF direction")
    w = raw * (np.sqrt(power / served) / norms)[..., None, :]
    return Precoder(w=w, power=float(power), ue_indices=tuple(int(i) for i in ue_indices))


def dl_rate(
    channels: ChannelSet,
    precoders: Mapping[int, Precoder],
    assoc: Association,
    noise_power: float,
) -> DownlinkRates:
    """Per-UE downlink SINR against the true channels.

    Every stream of every BS interferes (full frequency reuse); the desired
    stream is the serving BS's column for that UE.  Channels and precoders
    with a leading trial axis give one row of rates per trial.
    """
    desired = np.zeros(channels.h_mbs.shape[:-2] + channels.h_mbs.shape[-1:])
    interference = np.zeros_like(desired)
    for bs, pre in precoders.items():
        chan = channels.h_mbs if bs == 0 else channels.g_sbs[..., bs - 1, :, :]
        powers = np.abs(chan.conj().swapaxes(-1, -2) @ pre.w) ** 2   # ([T,] K, streams)
        cols = np.arange(len(pre.ue_indices))
        ues = np.asarray(pre.ue_indices, dtype=int)
        own = assoc.dl_serving[ues] == bs
        desired[..., ues[own]] = powers[..., ues[own], cols[own]]
        powers[..., ues[own], cols[own]] = 0.0
        interference += np.sum(powers, axis=-1)
    sinr = desired / (interference + noise_power)
    return DownlinkRates(sinr=sinr, rate=np.log2(1.0 + sinr))
