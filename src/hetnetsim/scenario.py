"""Cell geometry, large-scale path gains, and UL/DL cell association.

A single macro cell of radius ``cell_radius_m`` holds one macro BS (MBS) at
the origin, ``num_sbs`` small-cell BSs (SBS) and ``num_ue`` single-antenna
UEs, all placed uniformly on the disc.  Association follows a modified
maximum-average-received-power rule that weighs large-scale gain by antenna
count (and, in the downlink, by BS transmit power).  UEs whose uplink and
downlink argmax differ are "decoupled": uplink to an SBS, downlink from the
MBS.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Gains are clamped at this distance before evaluation.
MIN_DISTANCE_M = 1.0

# 3GPP NLoS (MBS-UE) / LoS (SBS-UE) model constants, referenced at 1 km
# (the 103.8/145.4 dB intercepts of the standard urban model).
ALPHA_MBS_NLOS = 3.75
ALPHA_SBS_LOS = 2.09
A_MBS_NLOS = 10.0 ** -14.54
A_SBS_LOS = 10.0 ** -10.38
_KM = 1000.0


class PathLossModel(str, enum.Enum):
    SIMPLE_NLOS = "simple_nlos"
    THREE_GPP = "3gpp"


class Link(str, enum.Enum):
    MBS_UE = "mbs_ue"
    SBS_UE = "sbs_ue"


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def is_number(value, whole: bool) -> bool:
    """Whether ``value`` is a finite real, and a whole number if ``whole``.
    Booleans are neither."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or math.isfinite(value) and (not whole or float(value).is_integer()))


# each linear power and the configured fields it derives from
_MW_SOURCES = (
    ("p_mbs_mw", ("p_mbs_dbm",)),
    ("p_sbs_mw", ("p_sbs_dbm",)),
    ("p_train_mw", ("p_train_dbm",)),
    ("p_data_mw", ("p_data_dbm",)),
    ("noise_power_mw", ("noise_density_dbm_hz", "bandwidth_hz")),
)


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.  Powers are stored in dBm as configured;
    everything downstream works on the linear-milliwatt properties."""

    cell_radius_m: float = 1000.0
    num_sbs: int = 30
    num_ue: int = 30
    mbs_antennas: int = 256
    sbs_antennas: int = 8
    p_mbs_dbm: float = 46.0
    p_sbs_dbm: float = 24.0
    p_train_dbm: float = 3.0
    p_data_dbm: float = 23.0
    noise_density_dbm_hz: float = -174.0
    bandwidth_hz: float = 20e6
    alpha: float = 4.0
    tau_t: int = 30
    tau_d: int = 128
    pathloss_model: PathLossModel = PathLossModel.SIMPLE_NLOS

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value, whole = getattr(self, f.name), f.type == "int"
            if f.type in ("int", "float") and not is_number(value, whole):
                raise ValueError(f"{f.name} takes {'whole' if whole else 'finite'} numbers, "
                                 f"got {value!r}")
            if whole:
                object.__setattr__(self, f.name, int(value))
        if self.num_sbs < 0 or self.num_ue < 1:
            raise ValueError("UE count must be >= 1 and SBS count >= 0")
        if min(self.mbs_antennas, self.sbs_antennas, self.tau_t) < 1:
            raise ValueError("antenna and symbol counts must be >= 1")
        if self.tau_d < 0:
            raise ValueError("tau_d must be >= 0")
        if self.tau_t < self.num_ue:
            raise ValueError(
                f"pilot orthogonality needs tau_t >= num_ue, got "
                f"tau_t={self.tau_t} < num_ue={self.num_ue}"
            )
        if self.cell_radius_m <= 0:
            raise ValueError("cell_radius_m must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        # a finite dBm value can still over- or underflow in milliwatts
        for mw_name, fields in _MW_SOURCES:
            try:
                mw = getattr(self, mw_name)
            except OverflowError:
                mw = math.inf
            if not 0.0 < mw < math.inf:
                given = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
                raise ValueError(f"{mw_name}={mw!r} from {given}: "
                                 f"every power must be positive and finite in mW")
        # accept plain strings from config files
        object.__setattr__(self, "pathloss_model", PathLossModel(self.pathloss_model))

    # linear-scale views (mW)
    @property
    def p_mbs_mw(self) -> float:
        return dbm_to_mw(self.p_mbs_dbm)

    @property
    def p_sbs_mw(self) -> float:
        return dbm_to_mw(self.p_sbs_dbm)

    @property
    def p_train_mw(self) -> float:
        return dbm_to_mw(self.p_train_dbm)

    @property
    def p_data_mw(self) -> float:
        return dbm_to_mw(self.p_data_dbm)

    @property
    def noise_power_mw(self) -> float:
        """Thermal noise over the configured bandwidth."""
        return dbm_to_mw(self.noise_density_dbm_hz + 10.0 * math.log10(self.bandwidth_hz))

    def replace(self, **changes) -> "SystemConfig":
        return dataclasses.replace(self, **changes)


def desk_config(**overrides) -> SystemConfig:
    """Shrunk default grid (fewer antennas/UEs/SBSs) that keeps the full
    sweep-and-validate cycle in the minutes range."""
    base = dict(num_sbs=10, num_ue=10, mbs_antennas=64, sbs_antennas=8)
    base.update(overrides)
    return SystemConfig(**base)


@dataclass(frozen=True)
class Topology:
    """Fixed placement and the large-scale gains derived from it."""

    sbs_positions: np.ndarray         # (S, 2)
    ue_positions: np.ndarray          # (K, 2)
    beta_mbs: np.ndarray              # (K,)   gain UE k -> MBS
    beta_sbs: np.ndarray              # (S, K) gain UE k -> SBS s

    @property
    def num_sbs(self) -> int:
        return self.sbs_positions.shape[0]

    @property
    def num_ue(self) -> int:
        return self.ue_positions.shape[0]


@dataclass(frozen=True)
class Association:
    """Serving-BS indices per UE; 0 is the MBS, s in 1..S is SBS s-1."""

    dl_serving: np.ndarray            # (K,) int
    ul_serving: np.ndarray            # (K,) int
    decoupled: np.ndarray             # indices where dl != ul


def path_loss(distance, model: PathLossModel, link: Link, alpha: float = 4.0):
    """Linear large-scale gain at ``distance`` metres (scalar or array).

    The single-slope model evaluates d^-alpha on the metre scale; the 3GPP
    NLoS/LoS pair is referenced at 1 km, so its distances are km-normalised.
    Callers clamp distances to MIN_DISTANCE_M first; shorter distances are
    rejected to avoid silently unbounded gains.
    """
    d = np.asarray(distance, dtype=float)
    if np.any(d < MIN_DISTANCE_M):
        raise ValueError(f"distance below the {MIN_DISTANCE_M} m clamp")
    model = PathLossModel(model)
    if model is PathLossModel.SIMPLE_NLOS:
        gain = d ** -alpha
    elif link is Link.MBS_UE:
        gain = A_MBS_NLOS * (d / _KM) ** -ALPHA_MBS_NLOS
    else:
        gain = A_SBS_LOS * (d / _KM) ** -ALPHA_SBS_LOS
    return gain if gain.ndim else float(gain)


def _uniform_disc(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    # radius sqrt(u) makes the density uniform over the disc area
    r = radius * np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


def _path_gains(sbs: np.ndarray, ue: np.ndarray, model: PathLossModel, alpha: float):
    """(K,) UE->MBS and (S, K) UE->SBS gains of a placement under ``model``."""
    d_mbs = np.maximum(np.linalg.norm(ue, axis=1), MIN_DISTANCE_M)
    d_sbs = np.maximum(np.linalg.norm(sbs[:, None, :] - ue[None, :, :], axis=2),
                       MIN_DISTANCE_M)
    return (path_loss(d_mbs, model, Link.MBS_UE, alpha),
            path_loss(d_sbs, model, Link.SBS_UE, alpha))


def topology_from_positions(
    config: SystemConfig, sbs_positions, ue_positions
) -> Topology:
    """Build a Topology from explicit placements (gains recomputed)."""
    sbs = np.atleast_2d(np.asarray(sbs_positions, dtype=float)).reshape(-1, 2)
    ue = np.atleast_2d(np.asarray(ue_positions, dtype=float)).reshape(-1, 2)
    beta_mbs, beta_sbs = _path_gains(sbs, ue, config.pathloss_model, config.alpha)
    return Topology(
        sbs_positions=sbs,
        ue_positions=ue,
        beta_mbs=np.asarray(beta_mbs, dtype=float),
        beta_sbs=np.asarray(beta_sbs, dtype=float),
    )


def build_topology(config: SystemConfig, seed) -> Topology:
    """Draw SBS and UE positions uniformly on the cell disc.

    ``seed`` is an integer seed or a numpy Generator; the same seed always
    yields a bitwise-identical topology.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sbs = _uniform_disc(rng, config.num_sbs, config.cell_radius_m)
    ue = _uniform_disc(rng, config.num_ue, config.cell_radius_m)
    return topology_from_positions(config, sbs, ue)


def associate(topology: Topology, config: SystemConfig) -> Association:
    """Modified-MARP association, evaluated separately for DL and UL.

    The DL metric weighs each candidate by antennas x transmit power; in the
    UL the common UE power cancels, leaving antennas x gain.  Ties resolve to
    the lowest BS index (argmax keeps the first maximum).

    Cell selection always scores candidates with the d^-alpha law the
    association rule is stated in, whatever model shapes the channel gains;
    under the single-slope model the two coincide exactly.
    """
    m, n = config.mbs_antennas, config.sbs_antennas
    gain_mbs, gain_sbs = _path_gains(
        topology.sbs_positions, topology.ue_positions, PathLossModel.SIMPLE_NLOS,
        config.alpha)
    dl_metric = np.vstack(
        [m * config.p_mbs_mw * gain_mbs[None, :], n * config.p_sbs_mw * gain_sbs]
    )
    ul_metric = np.vstack([m * gain_mbs[None, :], n * gain_sbs])
    dl = np.argmax(dl_metric, axis=0)
    ul = np.argmax(ul_metric, axis=0)
    return Association(dl_serving=dl, ul_serving=ul, decoupled=np.where(dl != ul)[0])


def ue_classes(assoc: Association) -> np.ndarray:
    """Label every UE as 'decoupled', 'mue' (MBS both links) or 'sue'."""
    labels = np.where(assoc.dl_serving == 0, "mue", "sue").astype(object)
    labels[assoc.decoupled] = "decoupled"
    return labels
