"""Small-scale fading, orthogonal pilots, and noisy received-signal blocks."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .scenario import SystemConfig, Topology


class Phase(str, enum.Enum):
    TRAINING = "training"
    DATA = "data"
    JOINT = "joint"


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible substream for (topology, trial, phase, ...).

    Counter-based: the key becomes the SeedSequence spawn key, so distinct
    keys never collide and results do not depend on draw order elsewhere.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def complex_gaussian(rng: np.random.Generator, shape, var=1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian draws, E|x|^2 = var.

    Real and imaginary parts each carry var/2; BER-level results are
    sensitive to this factor of two, so it lives in exactly one place.
    """
    x = np.empty(shape, dtype=complex)
    x.real = rng.standard_normal(shape)
    x.imag = rng.standard_normal(shape)
    x *= np.sqrt(np.asarray(var, dtype=float) / 2.0)
    return x


@dataclass(frozen=True)
class ChannelSet:
    """One coherence block of channels: UEs -> MBS and UEs -> each SBS."""

    h_mbs: np.ndarray                  # (M, K)
    g_sbs: tuple                       # S matrices, each (N, K)


@dataclass(frozen=True)
class PilotMatrix:
    s: np.ndarray                      # (K, tau_t)
    power: float                       # per-symbol power P_T

    @property
    def tau_t(self) -> int:
        return self.s.shape[1]


@dataclass(frozen=True)
class Observation:
    y: np.ndarray                      # ([BS,] antennas, columns)
    phase: Phase
    noise_power: float


def draw_channels(topology: Topology, config: SystemConfig, seed) -> ChannelSet:
    """i.i.d. Rayleigh small-scale fading scaled by the large-scale gains."""
    rng = as_rng(seed)
    h = complex_gaussian(rng, (config.mbs_antennas, topology.num_ue))
    h = h * np.sqrt(topology.beta_mbs)[None, :]
    g = []
    for s_idx in range(topology.num_sbs):
        w = complex_gaussian(rng, (config.sbs_antennas, topology.num_ue))
        g.append(w * np.sqrt(topology.beta_sbs[s_idx])[None, :])
    return ChannelSet(h_mbs=h, g_sbs=tuple(g))


def make_pilots(k: int, tau_t: int, p_t: float) -> PilotMatrix:
    """First k rows of the tau_t-point DFT matrix, scaled so that
    S S^H = tau_t * p_t * I_k and every symbol has power p_t."""
    if tau_t < k:
        raise ValueError(f"orthogonal pilots impossible: tau_t={tau_t} < k={k}")
    rows = np.arange(k)[:, None] * np.arange(tau_t)[None, :]
    s = np.exp(-2j * np.pi * rows / tau_t) * np.sqrt(p_t)
    return PilotMatrix(s=s, power=float(p_t))


def awgn(seeds, shape, noise_power: float) -> np.ndarray:
    """Complex AWGN of per-element variance noise_power: one block of
    ``shape`` from a seed, or a list of seeds stacked along a leading axis,
    block b drawn from ``seeds[b]``.  Zero noise power draws nothing."""
    stacked = isinstance(seeds, (list, tuple))
    noise = np.zeros((len(seeds) if stacked else 1, *shape), dtype=complex)
    if noise_power > 0:
        for block, seed in zip(noise, seeds if stacked else [seeds]):
            block[...] = complex_gaussian(as_rng(seed), shape, noise_power)
    return noise if stacked else noise[0]


def observe(channel: np.ndarray, signal: np.ndarray, noise_power: float, noise,
            phase: Phase = Phase.TRAINING) -> Observation:
    """y = channel @ signal + noise, the AWGN block ``awgn`` drew at
    variance noise_power.

    ``channel`` may carry a leading BS axis, (B, antennas, K); ``noise``
    then carries it too, and BS b hears what a 2-D call with ``noise[b]``
    would.
    """
    channel = np.asarray(channel)
    signal = np.asarray(signal)
    if channel.shape[-1] != signal.shape[0]:
        raise ValueError(
            f"dimension mismatch: channel is {channel.shape}, signal is {signal.shape}"
        )
    y = (channel @ signal).astype(complex, copy=False)
    if np.shape(noise) != y.shape:
        raise ValueError(f"noise is {np.shape(noise)}, the observation {y.shape}")
    y += noise
    return Observation(y=y, phase=phase, noise_power=float(noise_power))


def joint_observation(train: Observation, data: Observation) -> Observation:
    """Stack the training and data blocks the DL BS recorded back-to-back."""
    if train.phase is not Phase.TRAINING or data.phase is not Phase.DATA:
        raise ValueError("joint_observation expects a (training, data) pair")
    if train.y.shape[:-1] != data.y.shape[:-1]:
        raise ValueError("training and data blocks disagree on antenna count")
    return Observation(
        y=np.concatenate([train.y, data.y], axis=-1),
        phase=Phase.JOINT,
        noise_power=train.noise_power,
    )
