"""Zero-forcing downlink beamforming and the ergodic-rate metric."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .detectors import zf_rows
from .phy import ChannelSet
from .scenario import Association


@dataclass(frozen=True)
class Precoder:
    """One BS's precoding matrix, a column per served UE, with the power
    budget split equally across columns."""

    w: np.ndarray                      # ([T,] antennas, served)
    ue_indices: tuple


def zf_precode(estimates: np.ndarray, power: float, ue_indices=None) -> Precoder:
    """ZF beamformer from estimated channels: the conjugate transpose of the
    ZF rows, columns rescaled to power/served.  A leading trial axis,
    (T, antennas, served), gives one precoder matrix per trial."""
    raw = zf_rows(estimates).conj().swapaxes(-1, -2)
    served = raw.shape[-1]
    norms = np.linalg.norm(raw, axis=-2)
    if np.any(norms == 0):
        raise np.linalg.LinAlgError("degenerate ZF direction")
    w = raw * (np.sqrt(power / served) / norms)[..., None, :]
    ue_indices = range(served) if ue_indices is None else ue_indices
    return Precoder(w=w, ue_indices=tuple(int(i) for i in ue_indices))


def dl_rate(
    channels: ChannelSet,
    precoders: Mapping[int, Precoder],
    assoc: Association,
    noise_power: float,
) -> np.ndarray:
    """Per-UE downlink rate, log2(1 + SINR), against the true channels.

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
    return np.log2(1.0 + desired / (interference + noise_power))
