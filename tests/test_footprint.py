"""What ``import hetnetsim`` and a sweep load: scipy.special, about 24 MB
of resident memory, loads only where an analytic BER is computed.

Each test runs in a fresh interpreter, since this one has long since
imported scipy.special for the other tests.
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
from hetnetsim.data_aided import BerSource
from hetnetsim.experiments import ExperimentSpec, Metric
from hetnetsim.scenario import desk_config

def spec(metric, ber_source, topologies=1, **kw):
    return ExperimentSpec(base=desk_config(), sweep_param="p_train_dbm", sweep_values=(3.0,),
                          metric=Metric(metric), ber_source=BerSource(ber_source),
                          trials=1, topologies=topologies, **kw)
"""


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this source tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_import_leaves_scipy_special_unloaded():
    assert _fresh("import sys, hetnetsim; print('scipy.special' in sys.modules)") == "False"


def test_an_empirical_rate_sweep_leaves_scipy_special_unloaded():
    assert _fresh(_SPECS + """
import sys
from hetnetsim.experiments import run_sweep
run_sweep(spec("rate", "empirical"), threads=1)
print('scipy.special' in sys.modules)
""") == "False"


def test_an_analytic_nmse_sweep_loads_scipy_special_and_returns_finite_rows():
    assert _fresh(_SPECS + """
import math, sys
from hetnetsim.experiments import run_sweep
rows = run_sweep(spec("nmse", "analytic"), threads=1).rows
print('scipy.special' in sys.modules, bool(rows), all(math.isfinite(r.mean) for r in rows))
""") == "True True True"


def test_a_ber_sweep_without_mmse_leaves_scipy_special_unloaded():
    # the analytic rows score the MMSE detector alone
    assert _fresh(_SPECS + """
import math, sys
from hetnetsim.experiments import run_sweep
rows = run_sweep(spec("ber", "analytic", topologies=3, detectors=("mrc", "zf")), threads=1).rows
print('scipy.special' in sys.modules, bool(rows), all(math.isfinite(r.mean) for r in rows))
""") == "False True True"


@pytest.mark.parametrize("metric,ber_source,preloaded", [
    ("ber", "analytic", True), ("rate", "empirical", False)])
def test_a_pool_starts_with_scipy_special_loaded_only_where_the_sweep_needs_it(
        metric, ber_source, preloaded):
    # a forked worker inherits what the parent has loaded when the pool starts
    assert _fresh(_SPECS + f"""
import sys
from hetnetsim import experiments

loaded = []

class Inline:
    def __init__(self, max_workers):
        loaded.append('scipy.special' in sys.modules)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)

experiments._usable_cpus = lambda: 2
experiments.concurrent.futures.ProcessPoolExecutor = Inline
experiments.run_sweep(spec({metric!r}, {ber_source!r}, topologies=2), threads=2)
print(loaded)
""") == str([preloaded])
