"""The benchmark under perfbench/ reads the library by function name.

``perfbench/tracing.py`` wraps each of its ``TARGETS`` by module attribute,
and ``BENCHMARK.json`` declares the metrics those spans feed.  A library
function renamed or deleted drops its metrics from the result line without
any error, so these tests pin the names from the library's side.  They read
perfbench/ and BENCHMARK.json and change neither.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import hetnetsim
from hetnetsim import experiments
from hetnetsim.experiments import ExperimentSpec, Metric, run_sweep
from hetnetsim.scenario import desk_config

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# per_layer adds these two itself, from untraced sweeps
_UNTRACED_METRICS = {"experiments.parallel_efficiency", "trace_overhead"}


def _traced_sweep(monkeypatch, spec):
    """The tracer of ``spec``'s sweep, run in this process."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    with tracing.Tracer() as tracer:
        tracer.call(tracing.ROOT, run_sweep, spec, threads=1)
    return tracer


def _traced_ber_sweep(monkeypatch):
    """The tracer of a one-topology, one-trial desk BER sweep."""
    return _traced_sweep(monkeypatch, ExperimentSpec(
        base=desk_config(), sweep_param="p_data_dbm", sweep_values=(3.0,),
        metric=Metric.BER, trials=1, topologies=1))


def test_traced_sweep_yields_every_declared_per_layer_metric(monkeypatch):
    tracer = _traced_ber_sweep(monkeypatch)
    import run as bench_run

    produced = set(bench_run.layer_metrics([tracer.summary()])) | _UNTRACED_METRICS
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared <= produced, sorted(declared - produced)


def test_the_sweep_builds_each_sinr_law_through_the_traced_builder(monkeypatch):
    # ber_analytic.gamma_model.calls counts these spans: a sweep that built
    # its Gamma models through another function would leave it at 0
    spans = Counter(span[0] for span in _traced_ber_sweep(monkeypatch).spans)
    builds = spans["ber_analytic.gamma_model_for_ue"]
    assert builds >= 1 and builds == spans["ber_analytic.analytic_ber_vector"]


def test_the_pilot_stage_runs_through_the_traced_estimators(monkeypatch):
    # estimators.calls counts these spans: a sweep that scaled the despread
    # blocks itself would leave it at 0.  One trial chunk of one topology
    # makes one MMSE call per listener group and point, and one LS call per
    # point for the NMSE row
    spec = ExperimentSpec(base=desk_config(), sweep_param="p_train_dbm",
                          sweep_values=(-7.0, 3.0), metric=Metric.NMSE, trials=1, topologies=1)
    spans = Counter(span[0] for span in _traced_sweep(monkeypatch, spec).spans)
    cfgs = [experiments._apply_sweep(spec.base, spec.sweep_param, v) for v in spec.sweep_values]
    groups = sum(len(experiments._layout(spec, cfg, 0).groups) for cfg in cfgs)
    assert spans["estimators.mmse_estimate_matrix"] == groups > len(cfgs)
    assert spans["estimators.ls_estimate_matrix"] == len(cfgs)


def test_import_leaves_scipy_integrate_unloaded():
    # the quadrature oracle lives in validation, which the library never imports
    src = str(Path(hetnetsim.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hetnetsim; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
