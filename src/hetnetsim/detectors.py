"""Uplink data modulation, linear combining with imperfect CSI, and decoding."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .ber_analytic import effective_rho
from .phy import Observation, Phase, as_rng


class Modulation(str, enum.Enum):
    BPSK = "bpsk"
    QAM4 = "qam4"
    QAM16 = "qam16"

    @property
    def bits_per_symbol(self) -> int:
        return _GRAY[self].bits.shape[1]


class CombinerKind(str, enum.Enum):
    MRC = "mrc"
    ZF = "zf"
    MMSE = "mmse"


# Gray PAM per axis: unit levels in listing order, which is monotone, and
# the bit code of each level
_PAM2 = (np.array([1.0, -1.0]), np.array([0, 1]))
_PAM4 = (np.array([-3.0, -1.0, 1.0, 3.0]), np.array([0, 1, 3, 2]))


class _Gray:
    """A modulation at unit scale from its axes, I then Q.  Points list the
    I level major and the Q level minor; a point's bit pattern is its I
    code's bits, then its Q code's, most significant first."""

    def __init__(self, *axes):
        levels = [lv for lv, _ in axes]
        grid = np.indices([len(lv) for lv in levels]).reshape(len(axes), -1)
        self.points = sum((unit * lv[i] for unit, lv, i in zip((1, 1j), levels, grid)), 0j)
        self.bits = np.hstack([codes[i, None] >> np.arange(len(codes).bit_length() - 1)[::-1] & 1
                               for (_, codes), i in zip(axes, grid)])
        self.place = 1 << np.arange(self.bits.shape[1])[::-1]      # a pattern read as binary
        self.coded = self.points[np.argsort(self.bits @ self.place)]   # the points by code
        self.energy = sum(np.mean(lv ** 2) for lv in levels)       # mean |point|^2
        # per axis, the comparison that carries a value past an edge, and the edges
        self.axes = [(np.greater if lv[1] > lv[0] else np.less, (lv[:-1] + lv[1:]) / 2)
                     for lv in levels]


_GRAY = {Modulation.BPSK: _Gray(_PAM2), Modulation.QAM4: _Gray(_PAM2, _PAM2),
         Modulation.QAM16: _Gray(_PAM4, _PAM4)}


@dataclass(frozen=True)
class DataBlock:
    bits: np.ndarray                   # ([T,] K, tau_d * bits_per_symbol)
    symbols: np.ndarray                # ([T,] K, tau_d)
    modulation: Modulation
    power: float


@dataclass(frozen=True)
class Combiner:
    """Rows applied to a data observation; row i belongs to ue_indices[i].

    Each row has unit gain on its own estimated channel, c_i . g_i = 1, so
    the MMSE bias (a positive real factor) never reaches the slicer of an
    amplitude-coded constellation.  A stacked combiner, one per BS along a
    leading axis (after any trial axis), shares one ``ue_indices`` tuple or
    holds one row of UEs per BS.
    """

    c: np.ndarray                      # ([T,] [BS,] n, antennas)
    ue_indices: tuple


def modulate(bits, scheme: Modulation, p_d: float) -> DataBlock:
    """Map a (K, n_bits) binary matrix, or a stack of them, onto
    constellation symbols with average power p_d.  Random payloads come
    from ``random_bits``."""
    scheme = Modulation(scheme)
    bits = np.asarray(bits, dtype=int)
    bps = scheme.bits_per_symbol
    if bits.ndim < 2 or bits.shape[-1] % bps:
        raise ValueError(
            f"bit count per UE must be a multiple of {bps} for {scheme.value}"
        )
    gray = _GRAY[scheme]
    groups = bits.reshape(*bits.shape[:-1], -1, bps)
    symbols = (np.sqrt(p_d / gray.energy) * gray.coded)[groups @ gray.place]
    return DataBlock(bits=bits, symbols=symbols, modulation=scheme, power=float(p_d))


def random_bits(num_ue: int, tau_d: int, scheme: Modulation, seed) -> np.ndarray:
    scheme = Modulation(scheme)
    rng = as_rng(seed)
    return rng.integers(0, 2, size=(num_ue, tau_d * scheme.bits_per_symbol))


def zf_rows(estimates: np.ndarray) -> np.ndarray:
    """Zero-forcing rows (G^H G)^-1 G^H of an estimated channel matrix G,
    (antennas, n), or of each matrix in a stack (..., antennas, n): row i
    passes column i and nulls the others.  The n x n inverse is applied
    by a product.  The ZF combiner is these rows; the ZF precoder is their
    conjugate transpose, column-normalised.  ZF needs no more columns than
    antennas, and a full-rank G.
    """
    est = np.asarray(estimates)
    if est.ndim < 2:
        raise ValueError("estimates must be an (antennas, n) matrix or a stack of them")
    n_ant, n_ue = est.shape[-2:]
    if n_ue > n_ant:
        raise ValueError(f"ZF cannot separate {n_ue} UEs with {n_ant} antennas")
    est_h = est.conj().swapaxes(-1, -2)
    try:
        return np.linalg.inv(est_h @ est) @ est_h
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("rank-deficient estimate matrix for ZF") from exc


def _take(a: np.ndarray, keep, axis: int) -> np.ndarray:
    """The columns (axis -1) or rows (axis -2) ``keep`` of each matrix of
    the stack ``a``: (m,) positions for all, or one row of positions per
    matrix along the stack's trailing lead axes; ``a`` itself for None."""
    if keep is None:
        return a
    idx = keep[..., None, :] if axis == -1 else keep[..., :, None]
    return np.take_along_axis(a, idx.reshape((1,) * (a.ndim - idx.ndim) + idx.shape), axis)


def build_combiner(
    kind: CombinerKind,
    estimates: np.ndarray,
    betas,
    p_t: float,
    tau_t: int,
    p_d: float,
    noise_power: float,
    keep=None,
    ue_indices=None,
) -> Combiner:
    """Linear receive combiner from estimated channels.

    ``estimates`` holds one column per covered UE.  MRC/ZF expect only the
    UEs served by this BS; the MMSE rows regularise with the full residual
    interference level, so ``betas`` must list every co-channel UE's gain.
    A leading BS axis, (B, antennas, n) estimates with (B, K) ``betas``,
    builds B combiners at once; ``c`` then carries that axis.  A trial
    axis may lead the BS axis, (T, B, antennas, n): each trial then gets
    what a call on its own slice would.

    Only the rows of the columns ``keep`` are built: (m,) positions, or
    (B, m) with one row of positions per BS; all n by default.
    ``ue_indices`` names the UE of each built row, as ``Combiner`` keeps
    it: 0..n-1 by default, and needed with ``keep``, whose positions
    index the columns given, not UEs.  MMSE works from the n x n Gram
    matrix while n is below the antenna count, and from the antenna
    covariance with one right-hand side per kept column otherwise.  Every
    row is scaled to unit gain on its own column, which for MRC is the
    whole normalisation; a kept column with zero gain is a ``ValueError``.
    """
    kind = CombinerKind(kind)
    est = np.asarray(estimates)
    n_ant, n_ue = est.shape[-2:]
    if keep is not None:
        keep = np.asarray(keep, dtype=int)
        if ue_indices is None:
            raise ValueError("keep needs the ue_indices of the rows it keeps")
    kept = _take(est, keep, -1)

    if kind is CombinerKind.MRC:
        rows = kept.conj().swapaxes(-1, -2)
    elif kind is CombinerKind.ZF:
        rows = _take(zf_rows(est), keep, -2)
    else:
        reg = 1.0 / np.asarray(effective_rho(betas, p_t, tau_t, noise_power, p_d))
        # rows G^H (G G^H + r I)^-1 = (G^H G + r I)^-1 G^H: invert in the
        # smaller of the two dimensions
        if n_ue < n_ant:
            est_h = est.conj().swapaxes(-1, -2)
            inv = np.linalg.inv(est_h @ est + reg[..., None, None] * np.eye(n_ue))
            rows = _take(inv, keep, -2) @ est_h
        else:
            cov = est @ est.conj().swapaxes(-1, -2) + reg[..., None, None] * np.eye(n_ant)
            rows = np.linalg.solve(cov, kept).conj().swapaxes(-1, -2)

    gain = np.einsum("...ij,...ji->...i", rows, kept)
    if np.any(gain == 0):
        raise ValueError(f"{kind.name} needs non-zero channel estimates")
    ue_indices = tuple(range(n_ue)) if ue_indices is None else ue_indices
    return Combiner(c=rows / gain[..., None], ue_indices=ue_indices)


def _slice(symbols: np.ndarray, scheme: Modulation, p_d: float):
    """Nearest-point decisions; returns (bits, constellation symbols).

    Each axis is decided on its own against the midpoints between its
    levels.  A symbol on a boundary goes to the constellation point listed
    first, as an argmin over the constellation would break the tie.
    """
    gray = _GRAY[scheme]
    scale = np.sqrt(p_d / gray.energy)
    idx = 0
    for (passed, edges), x in zip(gray.axes, (symbols.real, symbols.imag)):
        idx = idx * (len(edges) + 1) + sum(passed(x, e) for e in scale * edges)
    bits = np.take(gray.bits, idx, axis=0).reshape(*idx.shape[:-1], -1)
    return bits, np.take(scale * gray.points, idx)


def detect(obs: Observation, combiner: Combiner, block: DataBlock, k: int):
    """Combine, slice, and score one UE's uplink data.

    Returns (decoded bits, empirical BER) where BER counts bit flips against
    the transmitted payload in ``block``.
    """
    try:
        i = combiner.ue_indices.index(k)
    except ValueError:
        raise IndexError(f"UE {k} is not covered by this combiner") from None
    bits_hat, _, ber = detect_all(obs, Combiner(c=combiner.c[i:i + 1], ue_indices=(k,)), block)
    return bits_hat[0], float(ber[0])


def detect_all(obs: Observation, combiner: Combiner, block: DataBlock):
    """Vectorised detect over every UE the combiner covers.

    Returns (bits matrix, decoded symbol matrix, per-UE BER) aligned with
    ``combiner.ue_indices``.  A stacked combiner and observation, one per
    BS along a leading axis, give stacked results; so does a leading trial
    axis, with one payload per trial in ``block``.
    """
    if obs.phase is not Phase.DATA:
        raise ValueError("detect needs a data-phase observation")
    bits_hat, symbols_hat = _slice(combiner.c @ obs.y, block.modulation, block.power)
    truth = np.take(block.bits, np.asarray(combiner.ue_indices, dtype=int), axis=-2)
    ber = np.mean(bits_hat != truth, axis=-1)
    return bits_hat, symbols_hat, ber


def mmse_sinr(estimates: np.ndarray, rho_v: float) -> np.ndarray:
    """Post-combining SINR of the MMSE receiver for every column of the
    estimated channel matrix: 1/[(I + rho G^H G)^{-1}]_kk - 1.  A stack of
    matrices, (..., antennas, K), gives one row of SINRs per matrix."""
    est = np.asarray(estimates)
    k = est.shape[-1]
    a = np.eye(k) + rho_v * (est.conj().swapaxes(-1, -2) @ est)
    inv = np.linalg.inv(a)
    return 1.0 / np.real(np.diagonal(inv, axis1=-2, axis2=-1)) - 1.0
