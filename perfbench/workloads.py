"""The benchmark's workloads: one full-scale ExperimentSpec plus a worker count each.

Every spec runs at ``SystemConfig()`` (256/8 antennas, 30 SBSs, 30 UEs), the
scale the paper's claims come from.  The master seed is the only input that
varies between runs; the counts below are fixed so that one sweep takes a few
seconds on a 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from hetnetsim.data_aided import BerSource
from hetnetsim.detectors import Modulation
from hetnetsim.experiments import ExperimentSpec, Metric
from hetnetsim.scenario import SystemConfig

# master seed of the committed reference CSVs under reference/
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    # layers the spec must never call; the traced run fails if one does
    bypassed: tuple
    make: Callable[[SystemConfig, int], ExperimentSpec]

    def spec(self, master_seed: int) -> ExperimentSpec:
        return self.make(SystemConfig(), int(master_seed))


def trial_count(spec: ExperimentSpec) -> int:
    """Monte Carlo trials of one sweep: (sweep point, topology, trial) triples."""
    return len(spec.sweep_values) * spec.topologies * spec.trials


def _nmse_full(cfg, seed):
    return ExperimentSpec(
        base=cfg, sweep_param="p_train_dbm", sweep_values=(-7.0, 3.0, 13.0),
        metric=Metric.NMSE, estimators=("ls", "mmse", "da"),
        modulation=Modulation.BPSK, ber_source=BerSource.ANALYTIC_PROP1,
        trials=8, topologies=8, master_seed=seed)


def _rate_full(cfg, seed):
    return ExperimentSpec(
        base=cfg, sweep_param="p_data_dbm", sweep_values=(3.0, 23.0),
        metric=Metric.RATE, modulation=Modulation.BPSK,
        ber_source=BerSource.EMPIRICAL_ORACLE,
        trials=10, topologies=8, master_seed=seed)


def _ber_topo_full(cfg, seed):
    return ExperimentSpec(
        base=cfg, sweep_param="p_data_dbm", sweep_values=(3.0, 13.0, 23.0),
        metric=Metric.BER, detectors=("mrc", "zf", "mmse"),
        modulation=Modulation.BPSK, ber_source=BerSource.ANALYTIC_PROP1,
        trials=2, topologies=30, master_seed=seed)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "nmse_full",
            "the paper's headline NMSE sweep; per-trial detection and channel "
            "draws dominate",
            threads=1, bypassed=("downlink",), make=_nmse_full),
        Workload(
            "rate_full",
            "the only workload that runs downlink; the empirical BER source "
            "keeps ber_analytic at zero calls",
            threads=1, bypassed=("ber_analytic",), make=_rate_full),
        Workload(
            "ber_topo_full",
            "many topologies, so per-topology analytic BER and per-UE "
            "combiners dominate; 90 small tasks through the 2-process pool",
            threads=2, bypassed=("downlink", "data_aided"), make=_ber_topo_full),
    )
}
