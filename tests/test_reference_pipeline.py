"""An independent loop reference of one topology's whole pipeline.

``run_sweep`` stacks trials, BSs and sweep points, shares draws and stages
between points, and solves each receiver in whichever dimension is
smaller.  This file recomputes what it reports for a one-topology sweep
from the scheme's equations, with plain loops over trials, BSs and UEs:
the LS and MMSE pilot estimates, each UL serving BS's MRC, ZF or MMSE
combiner and its decisions, the BER fed to the data-aided (DA) stage, the
DA estimate at the MBS in its wide (tau_t + tau_d) form, and the ZF
downlink precoders and rates.

The only contract the two share is the substream keys of ``phy.stream``
(named below) and the draws made from each: the reference draws from
them with the generator's own calls.  The topology and association come
from ``experiments.sweep_topology``, and the analytic BER from
``ber_analytic``'s Gamma law, one UE at a time; both are checked in their
own tests.
"""

import numpy as np
import pytest

from hetnetsim import ber_analytic, experiments, phy, scenario
from hetnetsim.data_aided import BerSource
from hetnetsim.detectors import Modulation
from hetnetsim.experiments import ExperimentSpec, Metric, run_sweep
from hetnetsim.scenario import desk_config

REL = 1e-12

# the substream keys: (master seed, topology, PH_TOPOLOGY) places the
# topology; (seed, topology, trial, purpose[, BS]) draws a trial's channels,
# payload bits and each BS's training and data noise
PH_TOPOLOGY, PH_CHANNELS, PH_NOISE_TRAIN, PH_NOISE_DATA, PH_BITS = 0, 1, 2, 3, 4

# Gray-coded unit-scale constellations: each symbol's bits, most
# significant first, and its point; 16-QAM is I bits then Q bits
_PAM4 = {(0, 0): -3.0, (0, 1): -1.0, (1, 1): 1.0, (1, 0): 3.0}
CONSTELLATIONS = {
    Modulation.BPSK: {(0,): 1.0 + 0j, (1,): -1.0 + 0j},
    Modulation.QAM16: {i + q: complex(_PAM4[i], _PAM4[q]) for i in _PAM4 for q in _PAM4},
}


def _gaussian(rng, shape, var):
    """Complex Gaussian of variance ``var``: all real parts, then all imaginary."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) * np.sqrt(var / 2.0)


def _draws(spec, cfg, topo, t):
    """Trial t's channels (one (antennas, K) matrix per BS, MBS first),
    payload bits and each BS's training and data noise."""
    key = (spec.master_seed, 0, t)
    rng = phy.stream(*key, PH_CHANNELS)
    chans = [_gaussian(rng, (cfg.mbs_antennas, cfg.num_ue), 1.0) * np.sqrt(topo.beta_mbs)]
    for s in range(cfg.num_sbs):
        chans.append(_gaussian(rng, (cfg.sbs_antennas, cfg.num_ue), 1.0)
                     * np.sqrt(topo.beta_sbs[s]))
    bps = spec.modulation.bits_per_symbol
    bits = phy.stream(*key, PH_BITS).integers(0, 2, size=(cfg.num_ue, cfg.tau_d * bps))
    n0 = cfg.noise_power_mw
    noise = {phase: [_gaussian(phy.stream(*key, phase, v), (len(h), tau), n0)
                     for v, h in enumerate(chans)]
             for phase, tau in ((PH_NOISE_TRAIN, cfg.tau_t), (PH_NOISE_DATA, cfg.tau_d))}
    return chans, bits, noise


def _modulate(bits, scheme, p_d):
    table = CONSTELLATIONS[scheme]
    bps = len(next(iter(table)))
    energy = np.mean([abs(p) ** 2 for p in table.values()])
    out = np.empty((bits.shape[0], bits.shape[1] // bps), dtype=complex)
    for k in range(out.shape[0]):
        for n in range(out.shape[1]):
            out[k, n] = table[tuple(bits[k, n * bps:(n + 1) * bps])]
    return out * np.sqrt(p_d / energy)


def _decide(z, scheme, p_d):
    """Nearest-point decisions of the combined samples z: (bits, symbols)."""
    table = CONSTELLATIONS[scheme]
    patterns = list(table)
    points = np.array([table[p] for p in patterns])
    points *= np.sqrt(p_d / np.mean(np.abs(points) ** 2))
    idx = [int(np.argmin(np.abs(x - points))) for x in z]
    return np.concatenate([patterns[i] for i in idx]), points[idx]


def _pilots(cfg):
    n = np.arange(cfg.tau_t)
    return np.array([np.exp(-2j * np.pi * k * n / cfg.tau_t) for k in range(cfg.num_ue)]) \
        * np.sqrt(cfg.p_train_mw)


def _error_var(beta, cfg):
    """Per-element MMSE estimation error of a link of gain beta."""
    return beta / (1.0 + beta * cfg.tau_t * cfg.p_train_mw / cfg.noise_power_mw)


def _estimates(y, s, betas, cfg):
    """LS and MMSE estimates of every UE's channel from one BS's training block."""
    ls = np.empty((y.shape[0], len(betas)), dtype=complex)
    mmse = np.empty_like(ls)
    energy = cfg.tau_t * cfg.p_train_mw
    for k, beta in enumerate(betas):
        despread = y @ s[k].conj()
        ls[:, k] = despread / energy
        mmse[:, k] = despread * beta / (cfg.noise_power_mw + beta * energy)
    return ls, mmse


def _combiner_row(kind, est, k, reg):
    """Unit-gain row of UE column k of ``est`` (the columns the combiner
    sees): MRC its own column, ZF the pseudo-inverse row, MMSE
    g_k^H (G G^H + reg I)^-1."""
    g = est[:, k]
    if kind == "mrc":
        row = g.conj()
    elif kind == "zf":
        row = np.linalg.pinv(est)[k]
    else:
        row = np.linalg.solve(est @ est.conj().T + reg * np.eye(len(g)), g).conj()
    return row / (row @ g)


def _analytic(cfg, topo, assoc, betas):
    """Each UE's analytic BPSK BER at its UL serving BS, and its lower bound."""
    ber, lower = np.empty(cfg.num_ue), np.empty(cfg.num_ue)
    for k in range(cfg.num_ue):
        v = assoc.ul_serving[k]
        b = betas[v]
        rho = 1.0 / (sum(_error_var(bj, cfg) for bj in b) + cfg.noise_power_mw / cfg.p_data_mw)
        energy = cfg.tau_t * cfg.p_train_mw
        bh = b * energy * b / (cfg.noise_power_mw + b * energy)
        model = ber_analytic.gamma_model_for_ue(
            cfg.mbs_antennas if v == 0 else cfg.sbs_antennas, rho, bh, k)
        ber[k] = ber_analytic.analytic_ber(model, 2.0)
        lower[k] = ber_analytic.ber_lower_bound(model, 2.0)
    return ber, lower


def _data_aided(y_train, y_data, s, x_hat, bers, beta, cfg):
    """Wide-form BER-aware LMMSE estimate of the MBS channel from the joined
    blocks: each antenna's row hears g W + e, with W the pilots joined to
    the decoded data shrunk by (1 - 2 BER), and e of variance N0 on pilots
    and Delta_S + N0 on data.  G_hat = Y (W^H B W + D)^-1 W^H B."""
    n0, b = cfg.noise_power_mw, np.minimum(bers, 1.0 - bers)
    shrink = 1.0 - 2.0 * b
    delta_s = cfg.p_data_mw * sum(beta[k] * (1.0 - shrink[k] ** 2) for k in range(len(b)))
    w = np.hstack([s, x_hat * shrink[:, None]])
    d = np.diag(np.r_[np.full(cfg.tau_t, n0), np.full(cfg.tau_d, delta_s + n0)])
    cov = w.conj().T @ np.diag(beta) @ w + d
    y = np.hstack([y_train, y_data])
    return y @ np.linalg.solve(cov, w.conj().T @ np.diag(beta))


def _downlink_rates(chans, est, assoc, cfg):
    """Each UE's DL rate under ZF precoders built on ``est`` (one estimate
    matrix per BS), every stream of every BS interfering."""
    streams = []                           # (BS, UE, precoding vector)
    for v, g_hat in enumerate(est):
        served = np.flatnonzero(assoc.dl_serving == v)
        if not len(served):
            continue
        power = cfg.p_mbs_mw if v == 0 else cfg.p_sbs_mw
        raw = np.linalg.pinv(g_hat[:, served]).conj().T
        for j, k in enumerate(served):
            w = raw[:, j]
            streams.append((v, k, w * np.sqrt(power / len(served)) / np.linalg.norm(w)))
    rates = np.empty(cfg.num_ue)
    for k in range(cfg.num_ue):
        desired, interference = 0.0, 0.0
        for v, j, w in streams:
            p = abs(chans[v][:, k].conj() @ w) ** 2
            if j == k:
                desired = p
            else:
                interference += p
        rates[k] = np.log2(1.0 + desired / (interference + cfg.noise_power_mw))
    return rates


def reference_point(spec, cfg):
    """{(method, class): value} of topology 0 at config ``cfg``, by loops."""
    topo, assoc = experiments.sweep_topology(cfg, spec.master_seed, 0)
    labels = scenario.ue_classes(assoc)
    betas = np.vstack([topo.beta_mbs, topo.beta_sbs])
    n0, p_d, mod = cfg.noise_power_mw, cfg.p_data_mw, spec.modulation
    s = _pilots(cfg)
    analytic = mod is Modulation.BPSK and (
        spec.ber_source is BerSource.ANALYTIC_PROP1 if spec.metric is not Metric.BER
        else "mmse" in spec.detectors)
    ber_an, ber_lo = _analytic(cfg, topo, assoc, betas) if analytic else (None, None)
    sums = {}                              # (method, UE) -> [numerator, denominator]

    def add(method, k, num, den):
        pair = sums.setdefault((method, k), [0.0, 0.0])
        pair[0] += num
        pair[1] += den

    for t in range(spec.trials):
        chans, bits, noise = _draws(spec, cfg, topo, t)
        x = _modulate(bits, mod, p_d)
        ls, mmse, y_data = [], [], []
        for v, h in enumerate(chans):
            est = _estimates(h @ s + noise[PH_NOISE_TRAIN][v], s, betas[v], cfg)
            ls.append(est[0])
            mmse.append(est[1])
            y_data.append(h @ x + noise[PH_NOISE_DATA][v])

        # uplink detection at each UE's UL serving BS
        x_hat = np.zeros_like(x)
        emp = np.zeros(cfg.num_ue)
        for k in range(cfg.num_ue):
            v = assoc.ul_serving[k]
            if spec.metric is Metric.BER and labels[k] != "decoupled":
                continue
            reg = sum(_error_var(bj, cfg) for bj in betas[v]) + n0 / p_d
            for det in spec.detectors if spec.metric is Metric.BER else ("mmse",):
                label, cols = det, np.arange(cfg.num_ue)
                if det == "zf":
                    cols = np.flatnonzero(assoc.ul_serving == v)
                    if len(cols) > len(chans[v]):
                        label = "zf->mmse"
                kind = "mmse" if label == "zf->mmse" else det
                row = _combiner_row(kind, mmse[v][:, cols], int(np.flatnonzero(cols == k)[0]),
                                    reg)
                bits_hat, symbols = _decide(row @ y_data[v], mod, p_d)
                errors = np.sum(bits_hat != bits[k])
                if spec.metric is Metric.BER:
                    add(label, k, errors, bits.shape[1])
                if det == "mmse":
                    x_hat[k], emp[k] = symbols, errors / bits.shape[1]
        if spec.metric is Metric.BER:
            continue

        # data-aided estimate at the MBS
        if spec.ber_source is BerSource.ZERO_ERROR:
            x_hat, side = x, np.zeros(cfg.num_ue)
        else:
            side = ber_an if analytic else emp
        h_da = _data_aided(chans[0] @ s + noise[PH_NOISE_TRAIN][0], y_data[0], s, x_hat, side,
                           topo.beta_mbs, cfg)

        if spec.metric is Metric.NMSE:
            for k in range(cfg.num_ue):
                truth = chans[0][:, k]
                power = np.sum(np.abs(truth) ** 2)
                for m, h_hat in (("ls", ls[0]), ("mmse", mmse[0]), ("da", h_da)):
                    if m in spec.estimators:
                        add(m, k, np.sum(np.abs(h_hat[:, k] - truth) ** 2), power)
        else:
            po = _downlink_rates(chans, mmse, assoc, cfg)
            da = _downlink_rates(chans, [h_da] + mmse[1:], assoc, cfg)
            for k in range(cfg.num_ue):
                add("po", k, po[k], 1.0)
                add("da", k, da[k], 1.0)

    if spec.metric is Metric.BER and analytic:
        for k in np.flatnonzero(labels == "decoupled"):
            add("mmse-analytic", k, ber_an[k], 1.0)
            add("mmse-lower", k, ber_lo[k], 1.0)

    out = {}
    classes = {Metric.NMSE: ("decoupled", "mue"), Metric.BER: ("decoupled",),
               Metric.RATE: ("decoupled", "mue", "sue", "all")}[spec.metric]
    for method in sorted({m for m, _ in sums}):
        for cls in classes:
            ues = [k for k in range(cfg.num_ue)
                   if (cls == "all" or labels[k] == cls) and (method, k) in sums]
            if not ues:
                continue
            if spec.metric is Metric.NMSE:
                out[(method, cls)] = float(np.mean(
                    [10.0 * np.log10(sums[method, k][0] / sums[method, k][1]) for k in ues]))
            else:
                out[(method, cls)] = (sum(sums[method, k][0] for k in ues)
                                      / sum(sums[method, k][1] for k in ues))
    return out


TINY = dict(num_sbs=3, num_ue=4, mbs_antennas=8, sbs_antennas=4, tau_t=4, tau_d=8)
SIMPLE, GPP = scenario.PathLossModel.SIMPLE_NLOS, scenario.PathLossModel.THREE_GPP
BPSK, QAM16 = Modulation.BPSK, Modulation.QAM16

# (metric, modulation, BER source, path-loss model, master seed, sweep
# values of p_data_dbm, extra config): seeds 11, 16 and 1 place a
# decoupled UE, an MUE and an SUE; seed 29 has an SBS serving two UL UEs,
# so ZF stacks two widths; with one SBS antenna, seed 6 has an SBS whose ZF
# falls back to MMSE
CASES = {
    "nmse-bpsk-analytic": (Metric.NMSE, BPSK, BerSource.ANALYTIC_PROP1, SIMPLE, 11,
                           (13.0, 23.0), {}),
    "nmse-bpsk-zero-error": (Metric.NMSE, BPSK, BerSource.ZERO_ERROR, GPP, 11, (13.0,), {}),
    "nmse-qam16-empirical": (Metric.NMSE, QAM16, BerSource.EMPIRICAL_ORACLE, GPP, 16,
                             (23.0,), {}),
    "ber-bpsk": (Metric.BER, BPSK, BerSource.ANALYTIC_PROP1, SIMPLE, 29, (3.0, 13.0), {}),
    "ber-qam16": (Metric.BER, QAM16, BerSource.EMPIRICAL_ORACLE, GPP, 29, (23.0,), {}),
    "ber-zf-fallback": (Metric.BER, BPSK, BerSource.ANALYTIC_PROP1, SIMPLE, 6, (13.0,),
                        {"sbs_antennas": 1}),
    "rate-bpsk-empirical": (Metric.RATE, BPSK, BerSource.EMPIRICAL_ORACLE, SIMPLE, 11,
                            (3.0, 23.0), {}),
    "rate-bpsk-analytic": (Metric.RATE, BPSK, BerSource.ANALYTIC_PROP1, GPP, 1, (23.0,), {}),
    "rate-qam16": (Metric.RATE, QAM16, BerSource.EMPIRICAL_ORACLE, SIMPLE, 16, (23.0,), {}),
}


@pytest.mark.parametrize("case", list(CASES))
def test_run_sweep_equals_the_loop_reference(case):
    metric, mod, source, model, seed, values, extra = CASES[case]
    base = desk_config(**{**TINY, **extra}, pathloss_model=model)
    spec = ExperimentSpec(base=base, sweep_param="p_data_dbm", sweep_values=values,
                          metric=metric, detectors=("mrc", "zf", "mmse"), modulation=mod,
                          ber_source=source, trials=2, topologies=1, master_seed=seed)
    table = run_sweep(spec)
    for value in values:
        want = reference_point(spec, base.replace(p_data_dbm=value))
        rows = table.filtered(sweep_value=value)
        assert {(r.method, r.ue_class) for r in rows} == set(want)
        for r in rows:
            assert (r.n, r.stderr) == (spec.trials, 0.0)
            assert r.mean == pytest.approx(want[r.method, r.ue_class], rel=REL, abs=0.0), \
                (r.method, r.ue_class)
    if case == "ber-zf-fallback":
        assert {"zf", "zf->mmse"} <= {r.method for r in table.rows}
