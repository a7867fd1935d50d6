"""What ``import hetnetsim`` and a sweep load: no sweep imports scipy, whose
``scipy.special`` alone adds about 22 MB of resident memory; only the
quadrature oracle in ``hetnetsim.validation`` does, when it runs.

Each test runs in a fresh interpreter, since this one has long since
imported scipy for the other tests.  Sweeps that should solve the analytic
BER count their kernel calls, so a sweep that skipped it proves nothing.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hetnetsim

_SRC = str(Path(hetnetsim.__file__).resolve().parent.parent)

_SPECS = """
import sys
from hetnetsim import ber_analytic
from hetnetsim.data_aided import BerSource
from hetnetsim.experiments import ExperimentSpec, Metric
from hetnetsim.scenario import desk_config

def spec(metric, ber_source, topologies=1, **kw):
    return ExperimentSpec(base=desk_config(), sweep_param="p_train_dbm", sweep_values=(3.0,),
                          metric=Metric(metric), ber_source=BerSource(ber_source),
                          trials=1, topologies=topologies, **kw)

def scipy_modules():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')

calls = []
_kernel = ber_analytic.analytic_ber

def counted(*args, **kw):
    calls.append(1)
    return _kernel(*args, **kw)

ber_analytic.analytic_ber = counted
"""


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_import_leaves_scipy_special_unloaded():
    assert _fresh(_SPECS + "import hetnetsim\nprint(scipy_modules())") == "[]"


def test_validation_loads_scipy_only_when_the_oracle_runs():
    assert _fresh(_SPECS + """
from hetnetsim import validation
print(scipy_modules())
validation.oracle_ber_numeric(2.0, 1.0)
print('scipy.integrate' in sys.modules, 'scipy.special' in sys.modules)
""").split("\n") == ["[]", "True True"]


def test_an_empirical_rate_sweep_leaves_scipy_special_unloaded():
    assert _fresh(_SPECS + """
from hetnetsim.experiments import run_sweep
run_sweep(spec("rate", "empirical"), threads=1)
print(scipy_modules(), len(calls))
""") == "[] 0"


@pytest.mark.parametrize("metric", ["nmse", "ber"])
def test_an_analytic_sweep_leaves_scipy_unloaded_and_returns_finite_rows(metric):
    # the BER sweep scores every detector, mmse among them
    assert _fresh(_SPECS + f"""
import math
from hetnetsim.experiments import run_sweep
rows = run_sweep(spec({metric!r}, "analytic"), threads=1).rows
print(scipy_modules(), bool(calls), bool(rows), all(math.isfinite(r.mean) for r in rows))
""") == "[] True True True"


def test_a_ber_sweep_without_mmse_leaves_scipy_special_unloaded():
    # the analytic rows score the MMSE detector alone
    assert _fresh(_SPECS + """
import math
from hetnetsim.experiments import run_sweep
rows = run_sweep(spec("ber", "analytic", topologies=3, detectors=("mrc", "zf")), threads=1).rows
print(scipy_modules(), len(calls), bool(rows), all(math.isfinite(r.mean) for r in rows))
""") == "[] 0 True True"


@pytest.mark.parametrize("metric,ber_source", [("ber", "analytic"), ("rate", "empirical")])
def test_a_pooled_sweep_leaves_scipy_unloaded(metric, ber_source):
    # a forked worker inherits what the parent has loaded when the pool starts
    assert _fresh(_SPECS + f"""
from hetnetsim import experiments

at_start = []

class Inline:
    def __init__(self, max_workers):
        at_start.append(scipy_modules())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)

experiments._usable_cpus = lambda: 2
experiments.concurrent.futures.ProcessPoolExecutor = Inline
experiments.run_sweep(spec({metric!r}, {ber_source!r}, topologies=2), threads=2)
print(at_start, scipy_modules(), bool(calls))
""") == f"[[]] [] {ber_source == 'analytic'}"
