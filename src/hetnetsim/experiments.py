"""Seeded Monte Carlo sweep harness for the three-stage estimation scheme.

A sweep regenerates topologies and channel realizations from counter-based
substreams of one master seed, runs training, uplink detection, data-aided
estimation and (for the rate metric) downlink evaluation, then aggregates
per UE class into a tidy table.  Results are a pure function of the
ExperimentSpec; the worker count never changes the output.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import enum
import functools
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate, special

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

DETECTOR_CHOICES = ("mrc", "zf", "mmse")
ESTIMATOR_CHOICES = ("ls", "mmse", "da")


class Metric(str, enum.Enum):
    BER = "ber"
    NMSE = "nmse"
    RATE = "rate"


# UE classes each metric reports
_CLASSES = {
    Metric.NMSE: ("decoupled", "mue"),
    Metric.BER: ("decoupled",),
    Metric.RATE: ("decoupled", "mue", "sue", "all"),
}


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
        if not self.sweep_values:
            raise ValueError("sweep value list must be non-empty")
        values = list(self.sweep_values)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep values must be sorted and distinct")
        for name in ("trials", "topologies"):
            count = getattr(self, name)
            if not isinstance(count, (int, float, np.integer)) or not float(count).is_integer():
                raise ValueError(f"{name} takes whole numbers, got {count!r}")
            object.__setattr__(self, name, int(count))
        if self.trials < 1 or self.topologies < 1:
            raise ValueError("trials and topologies must be >= 1")
        if self.sweep_param not in {f.name for f in dataclasses.fields(SystemConfig)}:
            raise ValueError(f"unknown sweep parameter {self.sweep_param!r}")
        object.__setattr__(self, "metric", Metric(self.metric))
        object.__setattr__(self, "modulation", Modulation(self.modulation))
        object.__setattr__(self, "ber_source", BerSource(self.ber_source))
        for d in self.detectors:
            if d not in DETECTOR_CHOICES:
                raise ValueError(f"unknown detector {d!r}")
        for e in self.estimators:
            if e not in ESTIMATOR_CHOICES:
                raise ValueError(f"unknown estimator {e!r}")
        # build every point's config now, so a bad grid fails before any work
        for value in self.sweep_values:
            cfg = _apply_sweep(self.base, self.sweep_param, value)
            if self.metric is Metric.BER and cfg.num_sbs == 0:
                raise ValueError(
                    f"the BER metric scores decoupled UEs, which need an SBS, "
                    f"but {self.sweep_param}={value} has num_sbs=0")


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
    if name in ("tau_t", "tau_d", "num_sbs", "num_ue", "mbs_antennas", "sbs_antennas"):
        if not float(value).is_integer():
            raise ValueError(f"{name} takes whole numbers, got {value!r}")
        value = int(value)
    return base.replace(**{name: value})


def _effective_ber_source(spec: ExperimentSpec) -> BerSource:
    # the Gamma-matched prediction is derived for binary modulation only
    if (spec.modulation is not Modulation.BPSK
            and spec.ber_source is BerSource.ANALYTIC_PROP1):
        log.debug("non-binary modulation: combiner falls back to empirical BER")
        return BerSource.EMPIRICAL_ORACLE
    return spec.ber_source


def _bs_betas(topo) -> np.ndarray:
    """Per-UE gains of every BS, one row each; row 0 is the MBS."""
    return np.vstack([topo.beta_mbs, topo.beta_sbs])


def analytic_ber_vector(cfg: SystemConfig, topo, assoc) -> tuple:
    """Predicted uplink BPSK BER of every UE at its UL serving BS, and the
    Jensen lower bound of each.

    effective_rho and beta_hat are taken once per BS; one fixed point solve
    then covers every UE, each row seeing its serving BS's gains.
    """
    betas = _bs_betas(topo)
    args = (cfg.p_train_mw, cfg.tau_t, cfg.noise_power_mw)
    rho = ber_analytic.effective_rho(betas, *args, cfg.p_data_mw)
    bh = ber_analytic.beta_hat(betas, *args)
    v = assoc.ul_serving
    n_ant = np.where(v == 0, cfg.mbs_antennas, cfg.sbs_antennas)
    model = ber_analytic.bpsk_detection_model(
        ber_analytic.sinr_gamma_models(n_ant, rho[v], bh[v], np.arange(topo.num_ue)))
    return ber_analytic.analytic_ber(model), ber_analytic.ber_lower_bound(model)


@dataclass(frozen=True)
class _TopologyRun:
    """One sweep point of one topology: what its trials share, and the
    per-UE (numerator, denominator) sums of each method in ``acc``."""

    cfg: SystemConfig
    topo: scenario.Topology
    assoc: scenario.Association
    pilots: phy.PilotMatrix
    betas: np.ndarray                  # (S + 1, K) gains, row 0 the MBS
    labels: np.ndarray                 # UE class of each UE
    scored: np.ndarray                 # UEs the metric scores
    ul_bs: list                        # UL serving BSs of the scored UEs
    dl_sbs: list                       # SBSs that serve a DL UE
    listeners: set                     # BSs whose observations a trial needs
    dets: tuple                        # detectors run at the UL serving BSs
    ber_source: BerSource
    analytic: tuple | None             # analytic BERs and their lower bounds
    acc: dict


class _TrialDraws:
    """One trial's random draws, shared by every sweep point of a topology
    (common random numbers).

    A draw is kept under its substream key and every argument that shapes
    it, so a repeat request gets exactly what a fresh draw from that
    substream would give, whatever the sweep parameter; a sweep that
    changes a shape (``num_ue``, the antenna counts) misses and draws
    afresh.  Kept arrays are read-only.
    """

    def __init__(self, master_seed: int, topo_idx: int, t: int):
        self.stream = functools.partial(phy.stream, master_seed, topo_idx, t)
        self._kept = {}

    def _get(self, key, draw):
        if key not in self._kept:
            value = draw()
            arrays = (value.h_mbs, *value.g_sbs) if isinstance(value, phy.ChannelSet) else (value,)
            for a in arrays:
                a.flags.writeable = False
            self._kept[key] = value
        return self._kept[key]

    def channels(self, topo, cfg: SystemConfig) -> phy.ChannelSet:
        key = (PH_CHANNELS, cfg.mbs_antennas, cfg.sbs_antennas, topo.beta_mbs.tobytes(),
               topo.beta_sbs.shape, topo.beta_sbs.tobytes())
        return self._get(key, lambda: phy.draw_channels(topo, cfg, self.stream(PH_CHANNELS)))

    def bits(self, cfg: SystemConfig, modulation: Modulation) -> np.ndarray:
        key = (PH_BITS, cfg.num_ue, cfg.tau_d, modulation)
        return self._get(key, lambda: detectors.random_bits(
            cfg.num_ue, cfg.tau_d, modulation, self.stream(PH_BITS)))

    def noise(self, phase: int, ids, shape, noise_power: float) -> np.ndarray:
        """The AWGN blocks of BSs ``ids``, stacked, each from its own substream."""
        key = (phase, tuple(ids), shape, noise_power)
        return self._get(key, lambda: phy.awgn(
            [self.stream(phase, v) for v in ids], shape, noise_power))


@dataclass(frozen=True)
class _Heard:
    """Pilot and data observations and MMSE estimates of listening BSs that
    share an antenna count, stacked along a leading axis in ``ids`` order
    (0 is the MBS, s + 1 SBS s)."""

    ids: np.ndarray
    train: phy.Observation
    data: phy.Observation
    est: np.ndarray

    def at(self, rows) -> "_Heard":
        """The BSs at ``rows``: a list keeps the leading axis, an int drops it.
        Sorted distinct rows that cover every BS give the group itself."""
        if np.ndim(rows) and len(rows) == len(self.ids):
            return self
        return _Heard(self.ids[rows], dataclasses.replace(self.train, y=self.train.y[rows]),
                      dataclasses.replace(self.data, y=self.data.y[rows]), self.est[rows])


def _listen(run: _TopologyRun, draws: _TrialDraws, channels, block) -> list:
    """Stage 1: observations and MMSE estimates at every listener, one
    stacked call per antenna count: the MBS, then the SBSs."""
    cfg, n0 = run.cfg, run.cfg.noise_power_mw
    sbs = sorted(v for v in run.listeners if v)
    groups = [([0], channels.h_mbs[None])] if 0 in run.listeners else []
    if sbs:
        groups.append((sbs, np.stack([channels.g_sbs[v - 1] for v in sbs])))
    heard = []
    for ids, chan in groups:
        n_ant = chan.shape[1]
        train = phy.observe(chan, run.pilots.s, n0,
                            draws.noise(PH_NOISE_TRAIN, ids, (n_ant, cfg.tau_t), n0),
                            Phase.TRAINING)
        data = phy.observe(chan, block.symbols, n0,
                           draws.noise(PH_NOISE_DATA, ids, (n_ant, cfg.tau_d), n0), Phase.DATA)
        est = estimators.mmse_estimate_matrix(train, run.pilots, run.betas[ids], n0)
        heard.append(_Heard(np.array(ids), train, data, est))
    return heard


def _own_rows(comb: detectors.Combiner, mine) -> detectors.Combiner:
    """Each BS's rows of its own UEs ``mine[b]``; shorter row sets repeat
    their last UE, so every BS keeps the same row count."""
    ues = np.broadcast_to(np.asarray(comb.ue_indices), comb.gain.shape)
    span = np.arange(max(map(len, mine)))
    pick = np.array([np.searchsorted(u, m[np.minimum(span, len(m) - 1)])
                     for u, m in zip(ues, mine)])
    return dataclasses.replace(
        comb, c=np.take_along_axis(comb.c, pick[..., None], axis=1),
        gain=np.take_along_axis(comb.gain, pick, axis=1),
        ue_indices=tuple(map(tuple, np.take_along_axis(ues, pick, axis=1).tolist())))


def _detect(run: _TopologyRun, heard, block):
    """Stage 2: detection at each UL serving BS.

    Each detector makes one stacked combiner per antenna group and decides
    only each BS's own scored UEs.  MRC and MMSE build on every UE's
    column (an MRC row depends on its own column alone; MMSE rows
    regularise with all of them), ZF on each BS's served columns.  A BS
    that serves more UEs than it has antennas cannot zero-force them: its
    ZF combiner falls back to MMSE on its own and files its UEs under
    ``zf->mmse``.  Returns the MMSE decisions and each combiner's per-UE
    empirical BER of the scored UEs, NaN where it decided nothing.
    """
    cfg, ul = run.cfg, run.assoc.ul_serving
    args = (cfg.p_train_mw, cfg.tau_t, cfg.p_data_mw, cfg.noise_power_mw)
    x_hat = np.zeros((cfg.num_ue, cfg.tau_d), dtype=complex)
    bers = {}
    for group in heard if cfg.tau_d else ():
        listening = group.at(np.flatnonzero(np.isin(group.ids, run.ul_bs)))
        if not len(listening.ids):
            continue
        served = [np.flatnonzero(ul == v) for v in listening.ids]
        mine = [s[run.scored[s]] for s in served]
        wide = np.array([len(s) > listening.est.shape[-2] for s in served])
        for det in run.dets:
            stacks = [np.arange(len(mine))]
            if det == "zf":
                stacks = [np.flatnonzero(~wide), *([i] for i in np.flatnonzero(wide))]
            for rows in (list(r) for r in stacks if len(r)):
                part = listening.at(rows)
                comb = detectors.build_combiner(
                    CombinerKind(det), part.est, run.betas[part.ids], *args,
                    ue_indices=[served[i] for i in rows] if det == "zf" else None)
                comb = _own_rows(comb, [mine[i] for i in rows])
                _, symbols, ber = detectors.detect_all(part.data, comb, block)
                ues = np.array(comb.ue_indices)
                label = det if comb.kind.value == det else f"{det}->{comb.kind.value}"
                bers.setdefault(label, np.full(cfg.num_ue, np.nan))[ues] = ber
                if det == "mmse":
                    x_hat[ues] = symbols
    return x_hat, bers


def _downlink(run: _TopologyRun, channels, heard, h_da):
    """Stage 4: per-UE downlink rate under pilot-only and data-aided ZF."""
    cfg, assoc = run.cfg, run.assoc
    est = {int(v): group.est[i] for group in heard for i, v in enumerate(group.ids)}
    precoders = {}
    for v in run.dl_sbs:
        idx = np.flatnonzero(assoc.dl_serving == v)
        precoders[v] = downlink.zf_precode(est[v][:, idx], cfg.p_sbs_mw, ue_indices=idx)
    mbs_idx = np.flatnonzero(assoc.dl_serving == 0)
    rates = {}
    for mode, h_est in (("po", est[0]), ("da", h_da)):
        if len(mbs_idx):
            precoders[0] = downlink.zf_precode(
                h_est[:, mbs_idx], cfg.p_mbs_mw, ue_indices=mbs_idx)
        rates[mode] = downlink.dl_rate(channels, precoders, assoc, cfg.noise_power_mw).rate
    return rates


def _fold(metric: Metric, acc: dict, labels) -> dict:
    """Per-class values from the per-UE (numerator, denominator) sums."""
    out = {}
    for method, (num, den) in acc.items():
        for cls in _CLASSES[metric]:
            mask = ((labels == cls) | (cls == "all")) & (den > 0)
            if not np.any(mask):
                continue
            if metric is Metric.NMSE:      # mean over UEs of each UE's NMSE in dB
                value = np.mean(10.0 * np.log10(np.maximum(num[mask], 1e-300) / den[mask]))
            else:                          # pooled over the class's UEs and trials
                value = np.sum(num[mask]) / np.sum(den[mask])
            out[(method, cls)] = float(value)
    return out


def _prepare(spec: ExperimentSpec, sweep_value, topo_idx: int) -> _TopologyRun:
    """The topology at one sweep point, what its trials listen to, and the
    analytic BER where the metric or the side information needs it."""
    cfg = _apply_sweep(spec.base, spec.sweep_param, sweep_value)
    metric = spec.metric
    topo = scenario.build_topology(cfg, phy.stream(spec.master_seed, topo_idx, PH_TOPOLOGY))
    assoc = scenario.associate(topo, cfg)
    ber_source = _effective_ber_source(spec)
    ones = np.ones(cfg.num_ue)

    # the BER metric scores decoupled UEs only and never listens at the MBS
    labels = scenario.ue_classes(assoc)
    scored = labels == "decoupled" if metric is Metric.BER else ones > 0
    ul_bs = sorted({int(v) for v in assoc.ul_serving[scored]})
    dl_sbs = sorted({int(b) for b in assoc.dl_serving if b != 0})
    listeners = set(ul_bs)
    if metric is not Metric.BER:
        listeners.add(0)
    if metric is Metric.RATE:
        listeners.update(dl_sbs)

    analytic = None
    if spec.modulation is Modulation.BPSK and (
            metric is Metric.BER or ber_source is BerSource.ANALYTIC_PROP1):
        analytic = analytic_ber_vector(cfg, topo, assoc)

    methods = {Metric.NMSE: spec.estimators, Metric.BER: spec.detectors,
               Metric.RATE: ("po", "da")}[metric]
    acc = {m: np.zeros((2, cfg.num_ue)) for m in methods}
    if metric is Metric.BER and analytic is not None and "mmse" in spec.detectors:
        acc["mmse-analytic"] = np.stack([analytic[0], ones])
        acc["mmse-lower"] = np.stack([analytic[1], ones])
    return _TopologyRun(
        cfg, topo, assoc, phy.make_pilots(cfg.num_ue, cfg.tau_t, cfg.p_train_mw),
        _bs_betas(topo), labels, scored, ul_bs, dl_sbs, listeners,
        spec.detectors if metric is Metric.BER else ("mmse",), ber_source, analytic, acc)


def _trial(spec: ExperimentSpec, run: _TopologyRun, draws: _TrialDraws) -> None:
    """One trial at one sweep point: the stages its metric needs (training
    at each listening BS, detection at the UL serving BSs, the data-aided
    solve at the MBS, the downlink), summed into ``run.acc``."""
    cfg, metric, acc = run.cfg, spec.metric, run.acc
    ones = np.ones(cfg.num_ue)
    channels = draws.channels(run.topo, cfg)
    block = detectors.modulate(draws.bits(cfg, spec.modulation), spec.modulation,
                               cfg.p_data_mw)
    heard = _listen(run, draws, channels, block)
    x_hat, emp_bers = _detect(run, heard, block)
    if metric is Metric.BER:
        nbits = block.bits.shape[1]
        for label, ber in emp_bers.items():
            decided = ~np.isnan(ber)
            acc.setdefault(label, np.zeros((2, cfg.num_ue)))
            acc[label] += (np.where(decided, ber, 0.0) * nbits, decided * nbits)
        return
    # stage 3: data-aided solve at the MBS, which every other metric hears
    mbs = heard[0].at(0)
    if run.ber_source is BerSource.ZERO_ERROR:
        x_hat, side_ber = block.symbols, 0.0 * ones
    elif run.ber_source is BerSource.ANALYTIC_PROP1:
        side_ber = run.analytic[0]
    else:
        side_ber = emp_bers.get("mmse", 0.0 * ones)
    side = data_aided.DecodedSideInfo(
        x_hat=x_hat, ber=side_ber, source=run.ber_source, power=cfg.p_data_mw)
    h_da = data_aided.da_estimate_matrix(phy.joint_observation(mbs.train, mbs.data),
                                         run.pilots, side, run.topo.beta_mbs,
                                         cfg.noise_power_mw)
    if metric is Metric.NMSE:
        truth = channels.h_mbs
        power = np.sum(np.abs(truth) ** 2, axis=0)
        for m in spec.estimators:
            h_est = (mbs.est if m == "mmse" else h_da if m == "da"
                     else estimators.ls_estimate_matrix(mbs.train, run.pilots))
            acc[m] += (np.sum(np.abs(h_est - truth) ** 2, axis=0), power)
        return
    for mode, rate in _downlink(run, channels, heard, h_da).items():
        acc[mode] += (rate, ones)


def _topology_metrics(spec: ExperimentSpec, topo_idx: int) -> dict:
    """One topology's contribution at every sweep point:
    {sweep_value: {(method, ue_class): value}}.

    Trials run outer and sweep points inner, so every point takes a trial's
    channels, bits and noise from one ``_TrialDraws``; each point sums a
    per-UE (numerator, denominator) pair per method over the trials.  A
    failure names the sweep value, the topology and the master seed.
    """
    value = spec.sweep_values[0]
    try:
        runs = {}
        for value in spec.sweep_values:
            runs[value] = _prepare(spec, value, topo_idx)
        for t in range(spec.trials):
            draws = _TrialDraws(spec.master_seed, topo_idx, t)
            for value, run in runs.items():
                _trial(spec, run, draws)
    except Exception as exc:
        raise RuntimeError(
            f"sweep {spec.sweep_param}={value}, topology {topo_idx}, "
            f"master seed {spec.master_seed}: {exc}"
        ) from exc
    return {value: _fold(spec.metric, run.acc, run.labels) for value, run in runs.items()}


def run_sweep(spec: ExperimentSpec, threads: int = 1) -> ResultTable:
    """Run the configured sweep and aggregate per (value, method, class).

    One task per topology covers every sweep point.  Per-topology means
    feed the reported mean and standard error; trial and topology
    substreams are keyed by index, so output is identical for any
    ``threads`` value.
    """
    topologies = range(spec.topologies)
    if threads > 1:
        workers = min(threads, spec.topologies)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_topo = list(pool.map(functools.partial(_topology_metrics, spec), topologies))
    else:
        per_topo = [_topology_metrics(spec, p) for p in topologies]

    metric_name = {
        Metric.NMSE: "nmse_db", Metric.BER: "ber", Metric.RATE: "rate_bps_hz"
    }[spec.metric]
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
                metric=metric_name,
                mean=mean,
                stderr=stderr,
                n=len(samples) * spec.trials,
            ))
    return ResultTable(rows=tuple(rows))


CSV_HEADER = "sweep_param,sweep_value,method,ue_class,metric,mean,stderr,n"


def write_csv(table: ResultTable, path) -> None:
    """Deterministic fixed-precision CSV, one row per table entry."""
    lines = [CSV_HEADER]
    for row in sorted(table.rows, key=lambda r: (r.sweep_value, r.method, r.ue_class)):
        lines.append(
            f"{row.sweep_param},{row.sweep_value:g},{row.method},{row.ue_class},"
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


ORACLE_EPSREL = 1e-11      # the oracle's relative error target
_ORACLE_TAIL = 1e-16       # Gamma mass left out above and (times the bound) below


def oracle_ber_numeric(alpha: float, xi: float) -> float:
    """Adaptive quadrature of the Gamma-weighted Gaussian tail integral;
    the independent cross-check for the incomplete-beta closed form.

    It integrates between Gamma quantiles with a break at the peak t = alpha,
    so QUADPACK cannot step over the narrow mass of a large shape.  The
    kernel is at most 1/2 below the range and at most the Jensen bound
    Q(sqrt(alpha*xi)) above it, so the cut costs under _ORACLE_TAIL of a
    result that is never below the bound; a result below it raises.
    """
    if alpha <= 0 or xi < 0:
        raise ValueError("Gamma parameters must be positive")
    if xi == 0.0:
        return 0.5

    # substitute x = xi * t so the Gamma mass sits near t = alpha for any xi
    def integrand(t):
        log_pdf = (alpha - 1.0) * np.log(t) - t - special.gammaln(alpha)
        return np.exp(log_pdf) * ber_analytic.q_function(np.sqrt(xi * t))

    bound = float(ber_analytic.q_function(math.sqrt(alpha * xi)))
    lo = special.gammaincinv(alpha, _ORACLE_TAIL * bound)
    hi = special.gammainccinv(alpha, _ORACLE_TAIL)    # 1 - tail would round to 1
    value, err = integrate.quad(integrand, lo, hi, points=[alpha], epsabs=0.0,
                                epsrel=ORACLE_EPSREL, limit=400)
    if not math.isfinite(value) or err > 1e-6 * abs(value):
        raise RuntimeError(f"quadrature failed at alpha={alpha}, xi={xi} (err={err})")
    if value < bound:
        raise RuntimeError(
            f"quadrature gave {value:.3e} at alpha={alpha}, xi={xi}, "
            f"below the Jensen bound {bound:.3e}")
    return float(value)


def validate(master_seed: int = 1, threads: int = 1):
    """Run the full desk-scale validation suite; see hetnetsim.validation."""
    from . import validation

    return validation.run_validation(master_seed=master_seed, threads=threads)


# ---------------------------------------------------------------------------
# configuration files (flat JSON, keys mirror the dataclass fields)

_SYSTEM_KEYS = {f.name for f in dataclasses.fields(SystemConfig)}
_EXPERIMENT_KEYS = {
    "trials", "topologies", "modulation", "ber_source", "detectors", "estimators",
}


def split_config(raw: dict):
    """Separate a flat config dict into SystemConfig kwargs and experiment
    kwargs, rejecting unknown keys."""
    unknown = set(raw) - _SYSTEM_KEYS - _EXPERIMENT_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    system = {k: v for k, v in raw.items() if k in _SYSTEM_KEYS}
    experiment = {k: v for k, v in raw.items() if k in _EXPERIMENT_KEYS}
    for key in ("detectors", "estimators"):
        if key in experiment:
            experiment[key] = tuple(experiment[key])
    return system, experiment


def load_config(path) -> tuple:
    """Load a flat JSON config file into (SystemConfig, experiment kwargs)."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a flat JSON object")
    system, experiment = split_config(raw)
    return SystemConfig(**system), experiment


def dump_config(cfg: SystemConfig, experiment: dict | None = None) -> str:
    """Round-trippable JSON view of the effective configuration."""
    data = dataclasses.asdict(cfg)
    data["pathloss_model"] = cfg.pathloss_model.value
    if experiment:
        data.update({
            k: (list(v) if isinstance(v, tuple) else
                v.value if isinstance(v, enum.Enum) else v)
            for k, v in experiment.items()
        })
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
