"""Seeded Monte Carlo sweep harness for the three-stage estimation scheme.

A sweep regenerates topologies and channel realizations from counter-based
substreams of one master seed, runs the stages its rows read (training,
uplink detection, data-aided estimation, the downlink for rate), then
aggregates per UE class into a tidy table.  Results are a pure function of
the ExperimentSpec; the worker count never changes the output.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import enum
import functools
import logging
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ber_analytic, data_aided, detectors, downlink, estimators, phy, scenario
from .data_aided import BerSource
from .detectors import CombinerKind, Modulation
from .phy import Phase
from .scenario import SystemConfig

log = logging.getLogger(__name__)

# substream purposes (first tuple slot after topology/trial indices)
PH_TOPOLOGY = 0
PH_CHANNELS = 1
PH_NOISE_TRAIN = 2
PH_NOISE_DATA = 3
PH_BITS = 4

DETECTOR_CHOICES = tuple(kind.value for kind in CombinerKind)
ESTIMATOR_CHOICES = tuple(method.value for method in estimators.EstMethod)


class Metric(str, enum.Enum):
    BER = "ber"
    NMSE = "nmse"
    RATE = "rate"


# each metric's CSV column and the UE classes it reports
_METRICS = {
    Metric.NMSE: ("nmse_db", ("decoupled", "mue")),
    Metric.BER: ("ber", ("decoupled",)),
    Metric.RATE: ("rate_bps_hz", ("decoupled", "mue", "sue", "all")),
}


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as an int, if it is a whole number >= ``least``."""
    if not scenario.is_number(value, whole=True) or value < least:
        raise ValueError(f"{name} takes a whole number >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentSpec:
    base: SystemConfig
    sweep_param: str
    sweep_values: tuple
    metric: Metric
    detectors: tuple = DETECTOR_CHOICES
    estimators: tuple = ESTIMATOR_CHOICES
    modulation: Modulation = Modulation.BPSK
    trials: int = 100
    topologies: int = 20
    master_seed: int = 1
    ber_source: BerSource = BerSource.ANALYTIC_PROP1

    def __post_init__(self):
        # a list or array spec equals and hashes like its tuple spec
        for name in ("sweep_values", "detectors", "estimators"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.sweep_values:
            raise ValueError("sweep value list must be non-empty")
        for name, least in (("trials", 1), ("topologies", 1), ("master_seed", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), least))
        if self.sweep_param not in {f.name for f in dataclasses.fields(SystemConfig)}:
            raise ValueError(f"unknown sweep parameter {self.sweep_param!r}")
        object.__setattr__(self, "metric", Metric(self.metric))
        object.__setattr__(self, "modulation", Modulation(self.modulation))
        object.__setattr__(self, "ber_source", BerSource(self.ber_source))
        for name, choices in (("detector", DETECTOR_CHOICES), ("estimator", ESTIMATOR_CHOICES)):
            chosen = getattr(self, f"{name}s")
            if not chosen or len(set(chosen)) < len(chosen):
                raise ValueError(f"{name}s must be distinct and non-empty, got {chosen!r}")
            for c in chosen:
                if c not in choices:
                    raise ValueError(f"unknown {name} {c!r}")
        # build every point's config and check the grid before any topology is drawn
        values = list(self.sweep_values)
        cfgs = [_apply_sweep(self.base, self.sweep_param, value) for value in values]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be sorted and distinct")
        for i, (cfg, value) in enumerate(zip(cfgs, values)):
            if self.metric is Metric.BER and 0 in (cfg.num_sbs, cfg.tau_d):
                raise ValueError(
                    f"the BER metric scores the data bits of decoupled UEs, which need an "
                    f"SBS and tau_d >= 1, but {self.sweep_param}={value} has "
                    f"num_sbs={cfg.num_sbs}, tau_d={cfg.tau_d}")
            # points that share the layout share the association
            if i == 0 or self.sweep_param not in _BLIND["layout"]:
                self._check_associations(cfg, value)

    def _check_associations(self, cfg: SystemConfig, value) -> None:
        """A BER point needs a decoupled UE in some topology; at a rate
        point, downlink ZF serves no more UEs than antennas at any BS."""
        assocs = (sweep_topology(cfg, self.master_seed, t)[1] for t in range(self.topologies))
        if self.metric is Metric.BER and not any(len(a.decoupled) for a in assocs):
            raise ValueError(
                f"the BER metric scores decoupled UEs, but at {self.sweep_param}={value} "
                f"none of the {self.topologies} topologies has one")
        if self.metric is not Metric.RATE:
            return
        antennas = np.r_[cfg.mbs_antennas, np.full(cfg.num_sbs, cfg.sbs_antennas)]
        for t, assoc in enumerate(assocs):
            load = np.bincount(assoc.dl_serving, minlength=len(antennas))
            over = np.flatnonzero(load > antennas)
            if len(over):
                b = over[0]
                raise ValueError(
                    f"sweep {self.sweep_param}={value}, topology {t}: "
                    f"{'the MBS' if b == 0 else f'SBS {b}'} serves {load[b]} DL UEs "
                    f"with {antennas[b]} antennas, more than downlink ZF can separate")


@dataclass(frozen=True)
class ResultRow:
    sweep_param: str
    sweep_value: float
    method: str
    ue_class: str
    metric: str
    mean: float
    stderr: float
    n: int


@dataclass(frozen=True)
class ResultTable:
    rows: tuple

    def filtered(self, **match) -> list:
        out = []
        for row in self.rows:
            if all(getattr(row, key) == val for key, val in match.items()):
                out.append(row)
        return out

    def value(self, **match) -> float:
        rows = self.filtered(**match)
        if len(rows) != 1:
            raise KeyError(f"expected exactly one row for {match}, found {len(rows)}")
        return rows[0].mean


def _apply_sweep(base: SystemConfig, name: str, value) -> SystemConfig:
    # SystemConfig checks the value against the field's type
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} takes finite numbers, got {value!r}")
    return base.replace(**{name: value})


@dataclass(frozen=True)
class _Plan:
    """The stages a sweep runs after training: exactly those its rows read."""

    detect: bool                       # detection at the UL serving BSs
    da: bool                           # the data-aided solve at the MBS
    analytic: bool                     # the analytic BER, derived for BPSK only


def _plan(spec: ExperimentSpec) -> _Plan:
    """The stages the rows of ``spec`` read.  The BER metric's analytic rows
    score the MMSE detector; ``zero_error`` feeds the DA solve no decisions."""
    ber, bpsk = spec.metric is Metric.BER, spec.modulation is Modulation.BPSK
    da = spec.metric is Metric.RATE or (not ber and "da" in spec.estimators)
    detect = ber or (da and spec.ber_source is not BerSource.ZERO_ERROR)
    analytic = ("mmse" in spec.detectors if ber
                else da and spec.ber_source is BerSource.ANALYTIC_PROP1)
    if analytic and not (ber or bpsk):
        log.debug("non-binary modulation: combiner falls back to empirical BER")
    return _Plan(detect, da, analytic and bpsk)


def _bs_betas(topo) -> np.ndarray:
    """Per-UE gains of every BS, one row each; row 0 is the MBS."""
    return np.vstack([topo.beta_mbs, topo.beta_sbs])


def analytic_ber_vector(cfgs, topo, assoc) -> tuple:
    """Predicted uplink BPSK BER of every UE at its UL serving BS under
    each config in ``cfgs``, and the Jensen lower bound of each: two
    (len(cfgs), K) arrays, row p from ``cfgs[p]``.

    effective_rho and the estimate variances are taken once per config and
    BS; one fixed point solve then covers every UE under every config, each
    row seeing its serving BS's gains.  A row's Newton steps and sums read
    that row alone, so each config's rows are bit for bit what a call with
    that config alone gives.
    """
    betas = _bs_betas(topo)
    v = assoc.ul_serving
    rho, bh, n_ant = [], [], []
    for cfg in cfgs:
        args = (cfg.p_train_mw, cfg.tau_t, cfg.noise_power_mw)
        rho.append(ber_analytic.effective_rho(betas, *args, cfg.p_data_mw)[v])
        bh.append(estimators.mmse_error_stats(betas, *args).estimate_var[v])
        n_ant.append(np.where(v == 0, cfg.mbs_antennas, cfg.sbs_antennas))
    model = ber_analytic.gamma_model_for_ue(
        np.concatenate(n_ant), np.concatenate(rho), np.concatenate(bh),
        np.tile(np.arange(topo.num_ue), len(cfgs)))
    shape = (len(cfgs), topo.num_ue)
    # a real BPSK decision sees only the in-phase half of the output noise
    return (ber_analytic.analytic_ber(model, 2.0).reshape(shape),
            ber_analytic.ber_lower_bound(model, 2.0).reshape(shape))


# trials stacked along a leading axis in every stage call; two keep a
# full-scale chunk's working set within a few MB
_CHUNK = 2

# the config fields each part of a sweep point never reads.  The layout is
# the topology, the association and their bookkeeping: placement and
# association read neither the UE powers, the symbol counts nor the noise.
# The pilot side is the training observations, the estimates, the MRC and
# ZF combiners, the SBS precoders and the pilot-only MBS precoder and
# rates; the data side is the payload and the data observations.  Each
# side's set lies within the layout's, so a shared side sees one layout.
_BLIND = {
    "layout": ("p_train_dbm", "p_data_dbm", "tau_t", "tau_d", "noise_density_dbm_hz",
               "bandwidth_hz"),
    "pilot": ("p_data_dbm", "tau_d"),
    "data": ("p_train_dbm", "tau_t"),
}


def _frozen(value):
    """``value`` with every array it holds made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (list, tuple)):
        for item in value:
            _frozen(item)
    elif isinstance(value, dict):
        _frozen(list(value.values()))
    elif dataclasses.is_dataclass(value):
        _frozen([getattr(value, f.name) for f in dataclasses.fields(value)])
    return value


@dataclass(frozen=True)
class _Part:
    """One stacked combiner of kind ``kind`` at the BSs ``rows`` of listener
    group ``group``, keeping each BS's own scored UEs; its rows are
    reported as method ``label``."""

    group: int
    rows: slice | list                 # positions in the group
    kind: CombinerKind                 # MMSE for ZF BSs that serve more UEs than antennas
    label: str                         # the detector, or "zf->mmse"
    cols: np.ndarray | None            # (B, n) estimate columns of each BS; None for all
    pick: np.ndarray                   # (B, m) combiner rows each BS keeps
    ues: np.ndarray                    # (B, m) the UEs of those rows


@dataclass(frozen=True)
class _Layout:
    """What a topology's sweep points share unless they differ in a field
    it reads: the topology, the association, the stage plan, what the
    trials listen to and the index bookkeeping of their stages."""

    plan: _Plan
    topo: scenario.Topology
    assoc: scenario.Association
    betas: np.ndarray                  # (S + 1, K) gains, row 0 the MBS
    labels: np.ndarray                 # UE class of each UE
    groups: list                       # (BS ids, antennas) of each listener group
    parts: list                        # the _Part of each stacked combiner
    dl_sets: list                      # (BS, group, position, served UEs), SBSs then MBS


@dataclass(frozen=True)
class _TopologyRun:
    """One sweep point of one topology: its config and layout, what its
    trials share, and the per-UE (numerator, denominator) sums of each
    method in ``acc``."""

    cfg: SystemConfig
    layout: _Layout
    pilots: phy.PilotMatrix
    analytic: tuple | None             # analytic BERs and their lower bounds, if used
    acc: dict


class _TrialMemo:
    """One chunk of a topology's trials: their random draws, and the stages
    that sweep points share, for every point (common random numbers).

    Draws are stacked along a leading trial axis, trial t from its own
    substreams.  A draw is kept under its substream key and every argument
    that shapes it, so a repeat request gets exactly what a fresh draw
    would give; a sweep that changes a shape (``num_ue``, the antenna
    counts) misses and draws afresh.  A stage is kept under its side and
    name, and only when every point shares that side; the noise a shared
    side reads is then read once, and not kept.  Kept arrays are read-only.
    """

    def __init__(self, master_seed: int, topo_idx: int, trials, shared=frozenset()):
        self._streams = [functools.partial(phy.stream, master_seed, topo_idx, t)
                         for t in trials]
        self._shared = shared
        self._kept = {}

    def _get(self, key, make, keep=True):
        if key in self._kept:
            return self._kept[key]
        value = _frozen(make())
        if keep:
            self._kept[key] = value
        return value

    def stage(self, side: str, name, make):
        """Stage ``name`` of ``side``, computed once per chunk if every
        sweep point shares ``side``, else afresh."""
        return self._get((side, name), make, side in self._shared)

    def channels(self, topo, cfg: SystemConfig) -> phy.ChannelSet:
        key = (PH_CHANNELS, cfg.mbs_antennas, cfg.sbs_antennas, topo.beta_mbs.tobytes(),
               topo.beta_sbs.shape, topo.beta_sbs.tobytes())
        return self._get(key, lambda: phy.draw_channels(
            topo, cfg, [s(PH_CHANNELS) for s in self._streams]))

    def bits(self, cfg: SystemConfig, modulation: Modulation) -> np.ndarray:
        return self._get((PH_BITS, cfg.num_ue, cfg.tau_d, modulation), lambda: np.stack([
            detectors.random_bits(cfg.num_ue, cfg.tau_d, modulation, s(PH_BITS))
            for s in self._streams]))

    def noise(self, phase: int, ids, shape, noise_power: float) -> np.ndarray:
        """The AWGN blocks of BSs ``ids``, (T, B, *shape), each from its own
        substream; kept unless the side that reads them is shared."""
        keep = ("pilot" if phase == PH_NOISE_TRAIN else "data") not in self._shared
        key = (phase, tuple(int(v) for v in ids), tuple(shape), noise_power)
        return self._get(key, lambda: phy.awgn(
            [s(phase, v) for s in self._streams for v in ids], shape, noise_power
        ).reshape(len(self._streams), len(ids), *shape), keep)


def _group_channels(run: _TopologyRun, channels, count=None):
    """Each listener group's BS ids and channels, (T, B, antennas, K), or the first ``count``'s."""
    for ids, _ in run.layout.groups[:count]:
        yield ids, (channels.h_mbs[:, None] if ids[0] == 0 else channels.g_sbs[:, ids - 1])


@dataclass(frozen=True)
class _Pilot:
    """The pilot side of one listener group, stacked (T, B, ...)."""

    z: np.ndarray                      # despread training blocks
    est: np.ndarray                    # MMSE estimates


def _pilot_side(run: _TopologyRun, memo: _TrialMemo, channels) -> list:
    """Stage 1, pilot side: the despread training blocks and MMSE
    estimates at every listener, one stacked call per antenna group (the
    MBS, then the SBSs).  It reads neither p_data_dbm nor tau_d."""
    cfg, n0, betas = run.cfg, run.cfg.noise_power_mw, run.layout.betas

    def make():
        out = []
        for ids, chan in _group_channels(run, channels):
            noise = memo.noise(PH_NOISE_TRAIN, ids, (chan.shape[-2], cfg.tau_t), n0)
            z = estimators.despread(
                phy.observe(chan, run.pilots.s, n0, noise, Phase.TRAINING), run.pilots)
            out.append(_Pilot(z, estimators.mmse_estimate_matrix(z, run.pilots, betas[ids], n0)))
        return out
    return memo.stage("pilot", "pilot", make)


def _data_side(spec: ExperimentSpec, run: _TopologyRun, memo: _TrialMemo, channels):
    """Stage 1, data side: the payload and its observations at each listener
    (the MBS alone if nothing is detected); reads no p_train_dbm or tau_t."""
    cfg, n0 = run.cfg, run.cfg.noise_power_mw
    count = None if run.layout.plan.detect else 1

    def make():
        block = detectors.modulate(memo.bits(cfg, spec.modulation), spec.modulation,
                                   cfg.p_data_mw)
        data = [phy.observe(chan, block.symbols[:, None], n0, memo.noise(
                    PH_NOISE_DATA, ids, (chan.shape[-2], cfg.tau_d), n0), Phase.DATA)
                for ids, chan in _group_channels(run, channels, count)]
        return block, data
    return memo.stage("data", "data", make)


def _detect(run: _TopologyRun, memo: _TrialMemo, pilot, data, block):
    """Stage 2: detection at each UL serving BS, one stacked combiner per
    entry of the layout's ``parts``.  MRC and ZF combiners read the
    estimates alone and come from the pilot side.  Returns the MMSE
    decisions and each combiner's per-UE empirical BER of the scored UEs,
    (T, K), NaN where it decided nothing."""
    cfg, layout = run.cfg, run.layout
    args = (cfg.p_train_mw, cfg.tau_t, cfg.p_data_mw, cfg.noise_power_mw)
    x_hat = np.zeros(block.symbols.shape, dtype=complex)
    bers = {}
    for i, part in enumerate(layout.parts if cfg.tau_d else ()):
        ids = layout.groups[part.group][0][part.rows]

        def build(part=part, ids=ids):
            est = pilot[part.group].est[:, part.rows]
            if part.cols is not None:
                est = np.take_along_axis(est, part.cols[None, :, None], -1)
            return detectors.build_combiner(part.kind, est, layout.betas[ids], *args,
                                            keep=part.pick,
                                            ue_indices=tuple(map(tuple, part.ues.tolist())))
        if part.kind is CombinerKind.MMSE:         # reads the data power
            comb = build()
        else:
            comb = memo.stage("pilot", ("combiner", i), build)
        obs = data[part.group]
        obs = dataclasses.replace(obs, y=obs.y[:, part.rows])
        _, symbols, ber = detectors.detect_all(obs, comb, block)
        bers.setdefault(part.label, np.full(block.symbols.shape[:-1], np.nan))[:, part.ues] = ber
        if part.label == "mmse":
            x_hat[:, part.ues] = symbols
    return x_hat, bers


def _downlink(run: _TopologyRun, memo: _TrialMemo, channels, pilot, h_da) -> dict:
    """Stage 4: per-UE downlink rates, (T, K), under pilot-only and
    data-aided ZF.  The SBS precoders and the pilot-only rates come from
    the pilot side."""
    cfg, n0, assoc = run.cfg, run.cfg.noise_power_mw, run.layout.assoc

    def pilot_only():
        precoders = {}
        for v, group, pos, idx in run.layout.dl_sets:
            power = cfg.p_mbs_mw if v == 0 else cfg.p_sbs_mw
            precoders[v] = downlink.zf_precode(pilot[group].est[:, pos][..., idx], power,
                                               ue_indices=idx)
        return precoders, downlink.dl_rate(channels, precoders, assoc, n0).rate
    precoders, po = memo.stage("pilot", "downlink", pilot_only)
    if 0 not in precoders:
        return {"po": po, "da": po}
    idx = np.asarray(precoders[0].ue_indices)
    precoders = {**precoders, 0: downlink.zf_precode(h_da[..., idx], cfg.p_mbs_mw,
                                                     ue_indices=idx)}
    return {"po": po, "da": downlink.dl_rate(channels, precoders, assoc, n0).rate}


def _add(acc: dict, method: str, num, den) -> None:
    """Add each trial's per-UE (numerator, denominator) pair to
    ``acc[method]``, one trial after another as unstacked trials would."""
    total = acc.setdefault(method, np.zeros((2, num.shape[-1])))
    for pair in zip(num, den):
        total += pair


def _fold(metric: Metric, acc: dict, labels) -> dict:
    """Per-class values from the per-UE (numerator, denominator) sums."""
    out = {}
    for method, (num, den) in acc.items():
        for cls in _METRICS[metric][1]:
            mask = ((labels == cls) | (cls == "all")) & (den > 0)
            if not np.any(mask):
                continue
            if metric is Metric.NMSE:      # mean over UEs of each UE's NMSE in dB
                value = np.mean(10.0 * np.log10(np.maximum(num[mask], 1e-300) / den[mask]))
            else:                          # pooled over the class's UEs and trials
                value = np.sum(num[mask]) / np.sum(den[mask])
            out[(method, cls)] = float(value)
    return out


def _part(group: int, rows, det: str, served: list, scored, n_ant: int) -> _Part:
    """The combiner of detector ``det`` at BSs serving ``served``: ZF on
    each BS's served columns, equal in number (MMSE where they outnumber
    the ``n_ant`` antennas), MRC and MMSE on every UE's column.  Each BS
    keeps the rows of its own scored UEs; shorter row sets repeat their
    last UE, so every BS keeps the same row count."""
    mine = [s[scored[s]] for s in served]
    span = np.arange(max(map(len, mine)))
    ues = np.array([m[np.minimum(span, len(m) - 1)] for m in mine])
    kind, cols, pick = CombinerKind(det), None, ues
    if det == "zf":
        cols = np.array(served)
        pick = np.array([np.searchsorted(s, u) for s, u in zip(served, ues)])
        if cols.shape[1] > n_ant:
            kind = CombinerKind.MMSE
    label = det if kind.value == det else f"{det}->{kind.value}"
    return _Part(group, rows, kind, label, cols, pick, ues)


def _parts(assoc, scored, dets, groups) -> list:
    """The stacked combiners of each listener group: MRC and MMSE on every
    UE's column (an MRC row depends on its own column alone; MMSE rows
    regularise with all of them), ZF on each BS's served columns, one stack
    per served count.  BSs that serve more UEs than antennas cannot
    zero-force them: their stack is MMSE, reported as ``zf->mmse``."""
    ul_bs = assoc.ul_serving[scored]
    parts = []
    for g, (ids, n_ant) in enumerate(groups):
        listening = np.flatnonzero(np.isin(ids, ul_bs))
        served = [np.flatnonzero(assoc.ul_serving == v) for v in ids[listening]]
        sizes = np.array([len(s) for s in served])
        for det in dets:
            key = sizes if det == "zf" else np.zeros_like(sizes)
            for n in sorted(set(key.tolist())):     # np.unique would load numpy.ma
                stack = np.flatnonzero(key == n)
                rows = slice(None) if len(stack) == len(ids) else list(listening[stack])
                parts.append(_part(g, rows, det, [served[i] for i in stack], scored, n_ant))
    return parts


def sweep_topology(cfg: SystemConfig, master_seed: int, topo_idx: int = 0) -> tuple:
    """(topology, association) of topology ``topo_idx`` in a sweep with
    ``master_seed`` at ``cfg``: the one every trial there simulates."""
    topo = scenario.build_topology(cfg, phy.stream(master_seed, topo_idx, PH_TOPOLOGY))
    return topo, scenario.associate(topo, cfg)


def _layout(spec: ExperimentSpec, cfg: SystemConfig, topo_idx: int) -> _Layout:
    """The layout of topology ``topo_idx`` at ``cfg``: the topology, the
    stage plan, what its trials listen to and the index bookkeeping of
    their stages.  It reads no field of ``_BLIND["layout"]``."""
    metric, plan = spec.metric, _plan(spec)
    topo, assoc = sweep_topology(cfg, spec.master_seed, topo_idx)

    # detection scores decoupled UEs for BER, every UE or none for the DA solve
    labels = scenario.ue_classes(assoc)
    scored = labels == "decoupled" if metric is Metric.BER else np.full(cfg.num_ue, plan.detect)
    dl_sbs = sorted({int(b) for b in assoc.dl_serving if b != 0})
    listeners = {int(v) for v in assoc.ul_serving[scored]}
    if metric is not Metric.BER:
        listeners.add(0)
    if metric is Metric.RATE:
        listeners.update(dl_sbs)
    sbs = sorted(v for v in listeners if v)
    groups = [(np.array([0]), cfg.mbs_antennas)] if 0 in listeners else []
    if sbs:
        groups.append((np.array(sbs), cfg.sbs_antennas))
    dets = spec.detectors if metric is Metric.BER else ("mmse",)
    dl_sets = []
    if metric is Metric.RATE:
        dl_sets = [(v, len(groups) - 1, sbs.index(v), np.flatnonzero(assoc.dl_serving == v))
                   for v in dl_sbs]
        mbs_idx = np.flatnonzero(assoc.dl_serving == 0)
        if len(mbs_idx):
            dl_sets.append((0, 0, 0, mbs_idx))
    return _Layout(plan, topo, assoc, _bs_betas(topo), labels, groups,
                   _parts(assoc, scored, dets, groups), dl_sets)


def _point_runs(spec: ExperimentSpec, layout: _Layout, cfgs) -> list:
    """The sweep points ``cfgs`` of one layout: each one's pilots and sums,
    with the analytic BERs of all of them from one solve where the sweep
    uses them.  The sums start with the analytic rows alone; each trial
    adds its own methods."""
    analytic = (list(zip(*analytic_ber_vector(cfgs, layout.topo, layout.assoc)))
                if layout.plan.analytic else [None] * len(cfgs))
    runs = []
    for cfg, rows in zip(cfgs, analytic):
        acc = {}
        if spec.metric is Metric.BER and rows is not None:
            ones = np.ones(cfg.num_ue)
            acc = {"mmse-analytic": np.stack([rows[0], ones]),
                   "mmse-lower": np.stack([rows[1], ones])}
        runs.append(_TopologyRun(
            cfg, layout, phy.make_pilots(cfg.num_ue, cfg.tau_t, cfg.p_train_mw), rows, acc))
    return runs


def _trial(spec: ExperimentSpec, run: _TopologyRun, memo: _TrialMemo) -> None:
    """One chunk of trials at one sweep point, summed into ``run.acc``: the
    stages in order, each run where the layout's plan asks for it."""
    cfg, metric, acc, plan = run.cfg, spec.metric, run.acc, run.layout.plan
    channels = memo.channels(run.layout.topo, cfg)
    # stage 1: training at every listener, then the data side
    pilot = _pilot_side(run, memo, channels)
    if plan.detect or plan.da:
        block, data = _data_side(spec, run, memo, channels)
        # stage 2: detection at the UL serving BSs
        x_hat, emp_bers = (_detect(run, memo, pilot, data, block) if plan.detect
                           else (block.symbols, {}))
    # stage 3: the DA solve at the MBS; unless shared, the SBSs' data observations go first
    if plan.da:
        data = data[0]
        ber = run.analytic[0] if plan.analytic else emp_bers.get("mmse", np.zeros(cfg.num_ue))
        side = data_aided.DecodedSideInfo(x_hat=x_hat, ber=ber, power=cfg.p_data_mw)
        h_da = data_aided.da_estimate_matrix(
            pilot[0].z[:, 0], dataclasses.replace(data, y=data.y[:, 0]),
            run.pilots, side, run.layout.topo.beta_mbs, cfg.noise_power_mw)
    if metric is Metric.BER:
        nbits = cfg.tau_d * spec.modulation.bits_per_symbol
        for label, ber in emp_bers.items():
            decided = ~np.isnan(ber)
            _add(acc, label, np.where(decided, ber, 0.0) * nbits, decided * nbits)
        return
    if metric is Metric.NMSE:
        truth = channels.h_mbs

        def pilot_only():
            errors = {"power": np.sum(np.abs(truth) ** 2, axis=-2)}
            if "mmse" in spec.estimators:
                errors["mmse"] = np.sum(np.abs(pilot[0].est[:, 0] - truth) ** 2, axis=-2)
            if "ls" in spec.estimators:
                h_ls = estimators.ls_estimate_matrix(pilot[0].z[:, 0], run.pilots)
                errors["ls"] = np.sum(np.abs(h_ls - truth) ** 2, axis=-2)
            return errors
        errors = memo.stage("pilot", "nmse", pilot_only)
        for m in spec.estimators:
            err = np.sum(np.abs(h_da - truth) ** 2, axis=-2) if m == "da" else errors[m]
            _add(acc, m, err, errors["power"])
        return
    # stage 4: the downlink
    for mode, rate in _downlink(run, memo, channels, pilot, h_da).items():
        _add(acc, mode, rate, np.ones_like(rate))


def _topology_metrics(spec: ExperimentSpec, topo_idx: int) -> dict:
    """One topology's contribution at every sweep point:
    {sweep_value: {(method, ue_class): value}}.

    Where every point shares the layout, it is built once, with one
    analytic solve for all of them.  Trials run outer, in stacked chunks of
    ``_CHUNK``, and sweep points inner, so every point takes a chunk's
    draws, and the stages of the sides all points share, from one
    ``_TrialMemo``; each point sums a per-UE (numerator, denominator) pair
    per method over the trials.  A failure names the sweep value, the
    topology and the master seed.
    """
    values = spec.sweep_values
    # points differ in the swept field alone, so with more than one point a
    # part is shared exactly when it never reads that field
    shared = frozenset(part for part, blind in _BLIND.items()
                       if len(values) > 1 and spec.sweep_param in blind)
    value = values[0]
    try:
        cfgs = [_apply_sweep(spec.base, spec.sweep_param, v) for v in values]
        step = len(cfgs) if "layout" in shared else 1
        runs = []
        for i in range(0, len(cfgs), step):
            value = values[i]
            runs += _point_runs(spec, _layout(spec, cfgs[i], topo_idx), cfgs[i:i + step])
        for start in range(0, spec.trials, _CHUNK):
            trials = range(start, min(start + _CHUNK, spec.trials))
            memo = _TrialMemo(spec.master_seed, topo_idx, trials, shared)
            for value, run in zip(values, runs):
                _trial(spec, run, memo)
    except Exception as exc:
        raise RuntimeError(
            f"sweep {spec.sweep_param}={value}, topology {topo_idx}, "
            f"master seed {spec.master_seed}: {exc}"
        ) from exc
    return {value: _fold(spec.metric, run.acc, run.layout.labels)
            for value, run in zip(values, runs)}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity mask on this platform
        return os.cpu_count() or 1


def run_sweep(spec: ExperimentSpec, threads: int = 1) -> ResultTable:
    """Run the configured sweep and aggregate per (value, method, class).

    One task per topology covers every sweep point, on at most ``threads``
    worker processes, and never more than there are topologies or usable
    CPUs.  Per-topology means feed the reported mean and standard error;
    trial and topology substreams are keyed by index, so output is
    identical for any worker count.
    """
    topologies = range(spec.topologies)
    workers = min(_count("threads", threads), spec.topologies, _usable_cpus())
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_topo = list(pool.map(functools.partial(_topology_metrics, spec), topologies))
    else:
        per_topo = [_topology_metrics(spec, p) for p in topologies]

    column = _METRICS[spec.metric][0]
    rows = []
    for value in spec.sweep_values:
        results = [metrics[value] for metrics in per_topo]
        for method, cls in sorted({key for metrics in results for key in metrics}):
            samples = [metrics[(method, cls)] for metrics in results
                       if (method, cls) in metrics]
            mean = float(np.mean(samples))
            stderr = (
                float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
                if len(samples) > 1 else 0.0
            )
            rows.append(ResultRow(
                sweep_param=spec.sweep_param,
                sweep_value=float(value),
                method=method,
                ue_class=cls,
                metric=column,
                mean=mean,
                stderr=stderr,
                n=len(samples) * spec.trials,
            ))
    return ResultTable(rows=tuple(rows))


CSV_HEADER = "sweep_param,sweep_value,method,ue_class,metric,mean,stderr,n"


def _format_value(value: float) -> str:
    """``:g`` where it reads back as the same float, else the exact repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def write_csv(table: ResultTable, path) -> None:
    """Deterministic fixed-precision CSV, one row per table entry."""
    lines = [CSV_HEADER]
    for row in sorted(table.rows, key=lambda r: (r.sweep_value, r.method, r.ue_class)):
        lines.append(
            f"{row.sweep_param},{_format_value(row.sweep_value)},{row.method},{row.ue_class},"
            f"{row.metric},{row.mean:.10e},{row.stderr:.10e},{row.n}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> ResultTable:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} is not a sweep result file")
    rows = []
    for line in lines[1:]:
        param, value, method, cls, metric, mean, stderr, n = line.split(",")
        rows.append(ResultRow(
            sweep_param=param, sweep_value=float(value), method=method,
            ue_class=cls, metric=metric, mean=float(mean),
            stderr=float(stderr), n=int(n),
        ))
    return ResultTable(rows=tuple(rows))
