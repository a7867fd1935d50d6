"""Pinned per-topology output of the trial pipeline at desk scale.

The values were recorded with master seed 1 on ``desk_config()``.  Each
spec runs three trials on topologies 0 and 1.  The 4-QAM and 16-QAM cases
pin the slicer's decisions and bit mapping, which the BPSK-only benchmark
references do not reach.  A refactor of the trial
stages must reproduce them to REL_TOL: the random draws are keyed by
(topology, trial, phase, BS) substreams, so only floating-point round-off
may move them.
"""

import pytest

from hetnetsim import desk_config
from hetnetsim.data_aided import BerSource
from hetnetsim.detectors import Modulation
from hetnetsim.experiments import ExperimentSpec, Metric, _topology_metrics

REL_TOL = 1e-9

SPECS = {
    "nmse": dict(sweep_param="p_train_dbm", sweep_values=(-7.0,), metric=Metric.NMSE,
                 estimators=("ls", "mmse", "da"), ber_source=BerSource.ANALYTIC_PROP1),
    "ber": dict(sweep_param="p_data_dbm", sweep_values=(13.0,), metric=Metric.BER,
                detectors=("mrc", "zf", "mmse"), ber_source=BerSource.ANALYTIC_PROP1),
    "rate": dict(sweep_param="p_data_dbm", sweep_values=(23.0,), metric=Metric.RATE,
                 ber_source=BerSource.EMPIRICAL_ORACLE),
    **{f"ber_{mod.value}": dict(sweep_param="p_data_dbm", sweep_values=(13.0,),
                                metric=Metric.BER, detectors=("mrc", "zf", "mmse"),
                                modulation=mod, ber_source=BerSource.EMPIRICAL_ORACLE)
       for mod in (Modulation.QAM4, Modulation.QAM16)},
}

GOLDEN = {
    ("nmse", 0): {
        ("da", "decoupled"): -21.495232414504798,
        ("da", "mue"): -35.750268950751945,
        ("ls", "decoupled"): 6.970352209162313,
        ("ls", "mue"): -7.376356640369958,
        ("mmse", "decoupled"): -0.9958351871622791,
        ("mmse", "mue"): -8.339954177894683,
    },
    ("nmse", 1): {
        ("da", "decoupled"): -26.97218659060338,
        ("da", "mue"): -35.96773683247449,
        ("ls", "decoupled"): 4.308920057769776,
        ("ls", "mue"): -11.732125097197235,
        ("mmse", "decoupled"): -1.6347517806656788,
        ("mmse", "mue"): -11.854559469787748,
    },
    ("ber", 0): {
        ("mmse", "decoupled"): 0.0003255208333333333,
        ("mmse-analytic", "decoupled"): 0.0015770440806905993,
        ("mmse-lower", "decoupled"): 0.0005376136945090062,
        ("mrc", "decoupled"): 0.027994791666666668,
        ("zf", "decoupled"): 0.022135416666666668,
    },
    ("ber", 1): {
        ("mmse", "decoupled"): 0.0003255208333333333,
        ("mmse-analytic", "decoupled"): 0.00010451965823747568,
        ("mmse-lower", "decoupled"): 3.5073725988736843e-07,
        ("mrc", "decoupled"): 0.10416666666666667,
        ("zf", "decoupled"): 0.0107421875,
    },
    ("ber_qam4", 0): {
        ("mmse", "decoupled"): 0.001953125,
        ("mrc", "decoupled"): 0.06787109375,
        ("zf", "decoupled"): 0.046875,
    },
    ("ber_qam4", 1): {
        ("mmse", "decoupled"): 0.00146484375,
        ("mrc", "decoupled"): 0.08333333333333333,
        ("zf", "decoupled"): 0.02685546875,
    },
    ("ber_qam16", 0): {
        ("mmse", "decoupled"): 0.021077473958333332,
        ("mrc", "decoupled"): 0.13037109375,
        ("zf", "decoupled"): 0.10538736979166667,
    },
    ("ber_qam16", 1): {
        ("mmse", "decoupled"): 0.010172526041666666,
        ("mrc", "decoupled"): 0.1123046875,
        ("zf", "decoupled"): 0.042236328125,
    },
    ("rate", 0): {
        ("da", "all"): 12.503404309565475,
        ("da", "decoupled"): 11.552965263938153,
        ("da", "mue"): 16.30516049207476,
        ("po", "all"): 4.746169147702598,
        ("po", "decoupled"): 3.831292896265557,
        ("po", "mue"): 8.40567415345076,
    },
    ("rate", 1): {
        ("da", "all"): 11.00366258752454,
        ("da", "decoupled"): 10.751048096954571,
        ("da", "mue"): 14.619144430005266,
        ("da", "sue"): 9.409096669603542,
        ("po", "all"): 5.675131627007471,
        ("po", "decoupled"): 4.702254208099325,
        ("po", "mue"): 9.844894773389113,
        ("po", "sue"): 9.288387831890999,
    },
}


@pytest.mark.parametrize("name,topo_idx", sorted(GOLDEN))
def test_topology_metrics_match_recorded_values(name, topo_idx):
    spec = ExperimentSpec(base=desk_config(), trials=3, topologies=2, master_seed=1,
                          **SPECS[name])
    got = _topology_metrics(spec, topo_idx)[spec.sweep_values[0]]
    want = GOLDEN[(name, topo_idx)]
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=REL_TOL), key
