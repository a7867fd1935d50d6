"""Small-scale fading, orthogonal pilots, and noisy received-signal blocks."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .scenario import SystemConfig, Topology


class Phase(str, enum.Enum):
    TRAINING = "training"
    DATA = "data"


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


def complex_gaussian(rng: np.random.Generator, shape, var=1.0, out=None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian draws, E|x|^2 = var, written
    into ``out`` when given.

    Real and imaginary parts each carry var/2; BER-level results are
    sensitive to this factor of two, so it lives in exactly one place.
    """
    x = np.empty(shape, dtype=complex) if out is None else out
    x.real = rng.standard_normal(shape)
    x.imag = rng.standard_normal(shape)
    x *= np.sqrt(np.asarray(var, dtype=float) / 2.0)
    return x


@dataclass(frozen=True)
class ChannelSet:
    """One coherence block of channels: UEs -> MBS and UEs -> each SBS."""

    h_mbs: np.ndarray                  # ([T,] M, K)
    g_sbs: np.ndarray                  # ([T,] S, N, K), one (N, K) matrix per SBS


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


def draw_channels(topology: Topology, config: SystemConfig, seeds) -> ChannelSet:
    """i.i.d. Rayleigh small-scale fading scaled by the large-scale gains:
    one channel set per seed of the list ``seeds``, stacked along a leading
    axis, set t drawn into place from ``seeds[t]``."""
    k = topology.num_ue
    h = np.empty((len(seeds), config.mbs_antennas, k), dtype=complex)
    g = np.empty((len(seeds), topology.num_sbs, config.sbs_antennas, k), dtype=complex)
    for t, s in enumerate(seeds):
        rng = as_rng(s)
        complex_gaussian(rng, h.shape[1:], out=h[t])
        for s_idx in range(topology.num_sbs):
            complex_gaussian(rng, g.shape[2:], out=g[t, s_idx])
    h *= np.sqrt(topology.beta_mbs)
    g *= np.sqrt(topology.beta_sbs)[:, None, :]
    return ChannelSet(h_mbs=h, g_sbs=g)


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
    ``shape`` per seed of the list ``seeds``, stacked along a leading axis.
    Each block is drawn straight into place; zero noise power draws
    nothing."""
    if noise_power <= 0:
        return np.zeros((len(seeds), *shape), dtype=complex)
    noise = np.empty((len(seeds), *shape), dtype=complex)
    for i, seed in enumerate(seeds):
        complex_gaussian(as_rng(seed), shape, noise_power, out=noise[i])
    return noise


def observe(channel: np.ndarray, signal: np.ndarray, noise_power: float, noise,
            phase: Phase) -> Observation:
    """y = channel @ signal + noise, the AWGN block ``awgn`` drew at
    variance noise_power, labelled with its ``phase``.

    ``channel`` may carry leading axes, such as trials and BSs,
    (T, B, antennas, K); ``signal`` is shared across the BS axis, (K, n)
    or (..., 1, K, n), and ``noise`` carries the product's shape.  The B
    channel matrices meet the signal stacked as one (T, B * antennas, K)
    product; each slice hears what a 2-D call on its own noise block
    would.
    """
    channel = np.asarray(channel)
    signal = np.asarray(signal)
    if channel.shape[-1] != signal.shape[-2] or (signal.ndim > 2 and signal.shape[-3] != 1):
        raise ValueError(
            f"dimension mismatch: channel is {channel.shape}, signal is {signal.shape}"
        )
    shared = signal if signal.ndim == 2 else signal[..., 0, :, :]
    y = channel.reshape(*channel.shape[:-3], -1, channel.shape[-1]) @ shared
    y = y.reshape(*y.shape[:-2], *channel.shape[-3:-1], y.shape[-1])
    y = y.astype(complex, copy=False)
    if np.shape(noise) != y.shape:
        raise ValueError(f"noise is {np.shape(noise)}, the observation {y.shape}")
    y += noise
    return Observation(y=y, phase=phase, noise_power=float(noise_power))

