"""Uplink data modulation, linear combining with imperfect CSI, and decoding."""

from __future__ import annotations

import dataclasses
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

    @property
    def tau_d(self) -> int:
        return self.symbols.shape[-1]


@dataclass(frozen=True)
class Combiner:
    """Rows applied to a data observation; row i belongs to ue_indices[i].

    ``gain[i]`` is the row's response to its own estimated channel; detect
    divides it out before slicing so amplitude-coded constellations are not
    hurt by the MMSE bias (a positive real factor, harmless for BPSK/QAM4).
    A stacked combiner, one per BS along a leading axis (after any trial
    axis), shares one ``ue_indices`` tuple or holds one row of UEs per BS.
    """

    c: np.ndarray                      # ([T,] [BS,] n, antennas)
    kind: CombinerKind
    ue_indices: tuple
    gain: np.ndarray                   # ([T,] [BS,] n) complex

    def row_for(self, k: int) -> int:
        try:
            return self.ue_indices.index(k)
        except ValueError:
            raise IndexError(f"UE {k} is not covered by this combiner") from None


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


def zf_rows(estimates: np.ndarray, pad=None) -> np.ndarray:
    """Zero-forcing rows (G^H G)^-1 G^H of an estimated channel matrix G,
    (antennas, n), or of each matrix in a stack (..., antennas, n): row i
    passes column i and nulls the others.  The ZF combiner is these rows;
    the ZF precoder is their conjugate transpose, column-normalised.

    ``pad``, a boolean mask over the columns, (n,) or (..., n), marks
    zeroed columns that stand in for no UE: an identity block keeps them
    out of the solve, and their rows are zero.  ZF needs no more columns
    than antennas, and a full-rank G.
    """
    est = np.asarray(estimates)
    if est.ndim < 2:
        raise ValueError("estimates must be an (antennas, n) matrix or a stack of them")
    n_ant, n_ue = est.shape[-2:]
    if n_ue > n_ant:
        raise ValueError(f"ZF cannot separate {n_ue} UEs with {n_ant} antennas")
    est_h = est.conj().swapaxes(-1, -2)
    gram = est_h @ est
    if pad is not None:
        gram = gram + np.asarray(pad)[..., None] * np.eye(n_ue)
    try:
        return np.linalg.solve(gram, est_h)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("rank-deficient estimate matrix for ZF") from exc


def build_combiner(
    kind: CombinerKind,
    estimates: np.ndarray,
    betas,
    p_t: float,
    tau_t: int,
    p_d: float,
    noise_power: float,
    ue_indices=None,
    pad=None,
) -> Combiner:
    """Linear receive combiner from estimated channels.

    ``estimates`` holds one column per covered UE.  MRC/ZF expect only the
    UEs served by this BS; the MMSE rows regularise with the full residual
    interference level, so ``betas`` must list every co-channel UE's gain.
    A leading BS axis, (B, antennas, n) estimates with (B, K) ``betas``,
    builds B combiners at once; ``c`` and ``gain`` then carry that axis.
    A trial axis may lead the BS axis, (T, B, antennas, n): each trial
    then gets what a call on its own slice would.

    ``pad``, a boolean mask over the columns, (n,) or (B, n), marks columns
    that stand in for no UE, so that BSs serving fewer UEs share one stack.
    Padded columns are zeroed and kept out of the ZF solve (``zf_rows``)
    and out of the MRC norms by a unit norm; their rows are zero.
    """
    kind = CombinerKind(kind)
    est = np.asarray(estimates)
    n_ant, n_ue = est.shape[-2:]
    ue_indices = tuple(range(n_ue)) if ue_indices is None else tuple(int(i) for i in ue_indices)
    pad = np.zeros(n_ue, dtype=bool) if pad is None else np.asarray(pad, dtype=bool)
    if pad.any():
        est = np.where(pad[..., None, :], 0.0, est)

    est_h = est.conj().swapaxes(-1, -2)
    if kind is CombinerKind.MRC:
        norms = np.sum(np.abs(est) ** 2, axis=-2) + pad
        if np.any(norms == 0):
            raise ValueError("MRC needs non-zero channel estimates")
        rows = est_h / norms[..., None]
    elif kind is CombinerKind.ZF:
        rows = zf_rows(est, pad)
    else:
        reg = 1.0 / np.asarray(effective_rho(betas, p_t, tau_t, noise_power, p_d))
        # rows G^H (G G^H + r I)^-1 = (G^H G + r I)^-1 G^H: solve in the
        # smaller of the two dimensions; padded columns give zero rows
        if n_ue < n_ant:
            rows = np.linalg.solve(est_h @ est + reg[..., None, None] * np.eye(n_ue), est_h)
        else:
            cov = est @ est_h + reg[..., None, None] * np.eye(n_ant)
            rows = np.linalg.solve(cov, est).conj().swapaxes(-1, -2)

    gain = np.einsum("...ij,...ji->...i", rows, est)
    return Combiner(c=rows, kind=kind, ue_indices=ue_indices, gain=gain)


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
    i = combiner.row_for(k)
    single = dataclasses.replace(
        combiner, c=combiner.c[i:i + 1], ue_indices=(k,), gain=combiner.gain[i:i + 1])
    bits_hat, _, ber = detect_all(obs, single, block)
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
    out = (combiner.c @ obs.y) / combiner.gain[..., None]
    bits_hat, symbols_hat = _slice(out, block.modulation, block.power)
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
