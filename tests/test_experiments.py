import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetnetsim import (
    ber_analytic, cli, detectors, downlink, estimators, experiments, phy, scenario, validation,
)
from hetnetsim.ber_analytic import SinrGammaModel, analytic_ber, ber_lower_bound
from hetnetsim.data_aided import BerSource
from hetnetsim.detectors import Modulation
from hetnetsim.experiments import (
    CSV_HEADER,
    ExperimentSpec,
    Metric,
    ResultRow,
    ResultTable,
    read_csv,
    run_sweep,
    write_csv,
)
from hetnetsim.scenario import SystemConfig, desk_config
from hetnetsim.validation import ORACLE_EPSREL, oracle_ber_numeric


def _tiny_spec(metric=Metric.NMSE, **kw):
    defaults = dict(
        base=desk_config(num_sbs=5, num_ue=5, mbs_antennas=16, tau_t=5, tau_d=16),
        sweep_param="p_train_dbm",
        sweep_values=(3.0, 13.0),
        metric=metric,
        trials=3,
        topologies=2,
        master_seed=7,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def _point(spec, value, topo_idx=0):
    """The layout and the run of one sweep point, as _topology_metrics builds them."""
    cfg = experiments._apply_sweep(spec.base, spec.sweep_param, value)
    layout = experiments._layout(spec, cfg, topo_idx)
    return layout, experiments._point_runs(spec, layout, [cfg])[0]


def test_spec_validation():
    with pytest.raises(ValueError, match="non-empty"):
        _tiny_spec(sweep_values=())
    with pytest.raises(ValueError, match="sorted"):
        _tiny_spec(sweep_values=(13.0, 3.0))
    with pytest.raises(ValueError, match="unknown sweep"):
        _tiny_spec(sweep_param="nonsense")
    with pytest.raises(ValueError, match="trials"):
        _tiny_spec(trials=0)
    with pytest.raises(ValueError, match="detector"):
        _tiny_spec(detectors=("mrc", "foo"))


@pytest.mark.parametrize("as_sequence", [list, np.array])
def test_a_list_or_array_spec_equals_hashes_and_runs_like_the_tuple_spec(as_sequence):
    # an array once raised numpy's ambiguous truth value, and a list spec
    # could not be hashed
    tuple_spec = _tiny_spec(detectors=("mrc", "mmse"), estimators=("ls", "da"))
    spec = _tiny_spec(sweep_values=as_sequence([3.0, 13.0]),
                      detectors=as_sequence(["mrc", "mmse"]),
                      estimators=as_sequence(["ls", "da"]))
    assert spec == tuple_spec and hash(spec) == hash(tuple_spec)
    assert all(type(getattr(spec, f)) is tuple
               for f in ("sweep_values", "detectors", "estimators"))
    assert run_sweep(spec).rows == run_sweep(tuple_spec).rows


def test_spec_rejects_repeated_sweep_values():
    # a repeated point would emit every row twice and break ResultTable.value
    with pytest.raises(ValueError, match="distinct"):
        _tiny_spec(sweep_values=(3.0, 3.0))


def test_an_unsorted_grid_is_rejected_before_any_topology_is_drawn(monkeypatch):
    # a rate spec draws every point's topologies to check its downlink load
    draws = []
    _counted(monkeypatch, experiments, "sweep_topology", draws)
    with pytest.raises(ValueError, match="sorted"):
        ExperimentSpec(base=desk_config(), sweep_param="num_ue", sweep_values=(10, 8),
                       metric=Metric.RATE, topologies=5)
    assert len(draws) == 0


@pytest.mark.parametrize("field,value", [("trials", 1.5), ("topologies", 2.5),
                                         ("trials", math.inf), ("topologies", math.nan),
                                         ("trials", "3"), ("topologies", True)])
def test_spec_rejects_non_integral_counts(field, value):
    with pytest.raises(ValueError, match=field):
        _tiny_spec(**{field: value})


@pytest.mark.parametrize("param,values", [("pathloss_model", ("simple_nlos", "3gpp")),
                                          ("p_train_dbm", (math.nan,)),
                                          ("p_train_dbm", (3.0, math.inf))])
def test_spec_rejects_non_numeric_or_non_finite_sweep_values(param, values):
    with pytest.raises(ValueError, match="finite numbers"):
        _tiny_spec(sweep_param=param, sweep_values=values)


@pytest.mark.parametrize("metric,field,value", [(Metric.BER, "detectors", ()),
                                                (Metric.NMSE, "estimators", ()),
                                                (Metric.BER, "detectors", ("zf", "mmse", "zf")),
                                                (Metric.NMSE, "estimators", ("da", "da"))])
def test_spec_rejects_empty_or_repeated_methods(metric, field, value):
    # an empty list would run every trial and return no rows
    with pytest.raises(ValueError, match=f"{field} must be distinct and non-empty"):
        _tiny_spec(metric, **{field: value})


@pytest.mark.parametrize("seed", [-1, 1.5, math.nan, "3", True])
def test_spec_rejects_a_negative_or_fractional_seed(seed):
    with pytest.raises(ValueError, match="master_seed takes a whole number >= 0"):
        _tiny_spec(master_seed=seed)


def test_spec_accepts_integral_float_counts():
    spec = _tiny_spec(trials=3.0, topologies=np.int64(2))
    assert (spec.trials, spec.topologies) == (3, 2)
    assert type(spec.trials) is int and type(spec.topologies) is int


def test_spec_rejects_a_grid_point_with_an_invalid_config():
    # the third point breaks pilot orthogonality (tau_t=30 < num_ue=40)
    with pytest.raises(ValueError, match="num_ue=40"):
        _tiny_spec(base=desk_config(tau_t=30), sweep_param="num_ue",
                   sweep_values=(10, 20, 40))


def test_spec_rejects_fractional_integer_sweep_values():
    with pytest.raises(ValueError, match="whole numbers"):
        _tiny_spec(sweep_param="tau_d", sweep_values=(2.7,))
    with pytest.raises(ValueError, match="whole numbers"):
        _tiny_spec(sweep_param="tau_d", sweep_values=(math.inf,))
    assert _tiny_spec(sweep_param="tau_d", sweep_values=(2.0, 4.0)).sweep_values == (2.0, 4.0)


def test_run_sweep_deterministic():
    a = run_sweep(_tiny_spec())
    b = run_sweep(_tiny_spec())
    assert a == b


def test_run_sweep_thread_count_does_not_change_output():
    serial = run_sweep(_tiny_spec(), threads=1)
    parallel = run_sweep(_tiny_spec(), threads=2)
    assert serial == parallel


def test_nmse_rows_cover_methods_and_classes():
    table = run_sweep(_tiny_spec())
    methods = {r.method for r in table.rows}
    assert methods == {"ls", "mmse", "da"}
    assert {r.metric for r in table.rows} == {"nmse_db"}
    for row in table.rows:
        assert row.ue_class in ("decoupled", "mue")
        assert row.n > 0


def test_ber_rows_include_analytic_for_bpsk_only():
    bpsk = run_sweep(_tiny_spec(metric=Metric.BER, trials=2))
    assert {"mmse-analytic", "mmse-lower"} <= {r.method for r in bpsk.rows}
    qam = run_sweep(_tiny_spec(metric=Metric.BER, trials=2,
                               modulation=Modulation.QAM16))
    assert not {"mmse-analytic", "mmse-lower"} & {r.method for r in qam.rows}


def test_rate_rows_have_both_modes():
    table = run_sweep(_tiny_spec(metric=Metric.RATE, trials=2))
    assert {r.method for r in table.rows} == {"po", "da"}
    assert "all" in {r.ue_class for r in table.rows}


def test_zero_error_mode_beats_empirical_side_info():
    noisy = run_sweep(_tiny_spec(ber_source=BerSource.EMPIRICAL_ORACLE,
                                 base=desk_config(p_train_dbm=-7.0)))
    clean = run_sweep(_tiny_spec(ber_source=BerSource.ZERO_ERROR,
                                 base=desk_config(p_train_dbm=-7.0)))
    v_noisy = noisy.value(sweep_value=3.0, method="da", ue_class="decoupled")
    v_clean = clean.value(sweep_value=3.0, method="da", ue_class="decoupled")
    assert v_clean <= v_noisy + 0.2


def test_aggregation_matches_manual_recompute():
    # the reported mean is the average of per-topology means
    spec = _tiny_spec(topologies=3)
    table = run_sweep(spec)
    from hetnetsim.experiments import _topology_metrics

    per_topo = [_topology_metrics(spec, p)[3.0][("mmse", "mue")] for p in range(3)]
    assert table.value(sweep_value=3.0, method="mmse", ue_class="mue") == \
        pytest.approx(np.mean(per_topo))
    row = table.filtered(sweep_value=3.0, method="mmse", ue_class="mue")[0]
    assert row.stderr == pytest.approx(np.std(per_topo, ddof=1) / math.sqrt(3))


def test_mutated_mmse_shrinkage_breaks_validation(monkeypatch):
    # sanity of the validation harness itself: a 2x shrinkage error in the
    # MMSE estimator must trip the closed-form agreement check
    true_fn = estimators.mmse_estimate_matrix

    def tampered(z, pilots, betas, noise_power):
        return 2.0 * true_fn(z, pilots, betas, noise_power)

    monkeypatch.setattr(estimators, "mmse_estimate_matrix", tampered)
    [(passed, _, _)] = validation.check_pilot_only_closed_forms(master_seed=1)
    assert not passed


@pytest.mark.parametrize("name,row,other", [("mmse_estimate_matrix", "mmse", "ls"),
                                            ("ls_estimate_matrix", "ls", "mmse")])
def test_a_doubled_estimator_moves_its_own_sweep_row(monkeypatch, name, row, other):
    # the sweep's pilot-only rows come from the estimator functions, not
    # from copies of their formulas: a 2x error in one moves every value of
    # its row and no value of the other's
    spec = _tiny_spec(estimators=("ls", "mmse"))
    before = run_sweep(spec)
    true_fn = getattr(estimators, name)

    def tampered(*args):
        return 2.0 * true_fn(*args)

    monkeypatch.setattr(estimators, name, tampered)
    after = run_sweep(spec)
    moved = list(zip(before.filtered(method=row), after.filtered(method=row)))
    assert moved and all(a.mean != b.mean for a, b in moved)
    assert after.filtered(method=other) == before.filtered(method=other)


def test_pilot_only_nmse_run_equals_its_trial_by_trial_loop():
    # the stacked draws keep each trial's substreams, and the sums add the
    # trials in order, so the result is the loop's bit for bit
    cfg = desk_config(num_sbs=3, num_ue=4, mbs_antennas=8, tau_t=4)
    topo = scenario.build_topology(cfg, phy.stream(5, 0))
    n0 = cfg.noise_power_mw
    pilots = phy.make_pilots(cfg.num_ue, cfg.tau_t, cfg.p_train_mw)
    num, den = {"ls": 0.0, "mmse": 0.0}, 0.0
    for t in range(5):
        h = phy.draw_channels(topo, cfg, [phy.stream(5, 9, 2, t, 0)]).h_mbs[0]
        noise = phy.awgn([phy.stream(5, 9, 2, t, 1)], (cfg.mbs_antennas, cfg.tau_t), n0)[0]
        z = estimators.despread(phy.observe(h, pilots.s, n0, noise, phy.Phase.TRAINING), pilots)
        for m, est in (("ls", estimators.ls_estimate_matrix(z, pilots)),
                       ("mmse", estimators.mmse_estimate_matrix(z, pilots, topo.beta_mbs, n0))):
            num[m] += np.sum(np.abs(est - h) ** 2, axis=0)
        den += np.sum(np.abs(h) ** 2, axis=0)
    got = validation._pilot_only_nmse_run(cfg, topo, 5, 9, 2, trials=5)
    for m in num:
        assert np.array_equal(got[m], 10.0 * np.log10(num[m] / den))


def test_the_shared_despread_keeps_the_estimators_bits(monkeypatch):
    # the pilot side despreads each group's training block once and keeps
    # that block beside the MMSE estimates made from it, bit for bit
    spec = _tiny_spec(trials=2, topologies=1)
    layout, run = _point(spec, 3.0)
    memo = experiments._TrialMemo(spec.master_seed, 0, range(2))
    channels = memo.channels(layout.topo, run.cfg)
    trains, observe = [], phy.observe

    def spy(*args):
        trains.append(observe(*args))
        return trains[-1]
    monkeypatch.setattr(phy, "observe", spy)
    pilot = experiments._pilot_side(run, memo, channels)
    n0 = run.cfg.noise_power_mw
    assert len(trains) == len(pilot) == len(layout.groups)
    for (ids, _), train, heard in zip(layout.groups, trains, pilot):
        z = estimators.despread(train, run.pilots)
        assert np.array_equal(heard.z, z)
        assert np.array_equal(heard.est, estimators.mmse_estimate_matrix(
            z, run.pilots, layout.betas[ids], n0))


def test_da_rows_without_data_are_the_mmse_rows():
    # with tau_d = 0 the data-aided estimate is the pilot-only MMSE one
    table = run_sweep(_tiny_spec(base=desk_config(num_sbs=5, num_ue=5, mbs_antennas=16,
                                                  tau_t=5, tau_d=0)))
    da = table.filtered(method="da")
    assert da
    for row in da:
        [mmse] = table.filtered(method="mmse", sweep_value=row.sweep_value,
                                ue_class=row.ue_class)
        assert (row.mean, row.stderr, row.n) == (mmse.mean, mmse.stderr, mmse.n)


def test_write_csv_round_trip(tmp_path):
    table = run_sweep(_tiny_spec())
    path = tmp_path / "out.csv"
    write_csv(table, path)
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    again = read_csv(path)
    emitted = {(r.sweep_value, r.method, r.ue_class): r.mean for r in again.rows}
    for row in table.rows:
        key = (row.sweep_value, row.method, row.ue_class)
        assert emitted[key] == float(f"{row.mean:.10e}")


def test_write_csv_keeps_sweep_values_that_g_would_merge(tmp_path):
    # :g keeps 6 significant digits, so both values would write as 2e+07
    rows = tuple(ResultRow(sweep_param="bandwidth_hz", sweep_value=v, method="mmse",
                           ue_class="decoupled", metric="ber", mean=0.1, stderr=0.0, n=1)
                 for v in (20000000.0, 20000001.0))
    path = tmp_path / "close.csv"
    write_csv(ResultTable(rows=rows), path)
    assert path.read_text().splitlines()[1].split(",")[1] == "2e+07"
    assert [r.sweep_value for r in read_csv(path).rows] == [20000000.0, 20000001.0]


def test_write_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(ResultTable(rows=()), path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_write_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_sweep(_tiny_spec()), a)
    write_csv(run_sweep(_tiny_spec()), b)
    assert a.read_bytes() == b.read_bytes()


def test_read_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_oracle_ber_numeric_closed_form_point():
    expected = 0.5 * (1.0 - math.sqrt(2.0 / 4.0))
    assert oracle_ber_numeric(1.0, 2.0) == pytest.approx(expected, rel=1e-10)


def test_oracle_ber_numeric_zero_snr():
    assert oracle_ber_numeric(2.0, 0.0) == 0.5
    assert oracle_ber_numeric(2.0, 1e-9) == pytest.approx(0.5, abs=1e-3)


# up to the full-scale MBS regime (alpha about 241) and beyond
_ORACLE_ALPHAS = (0.5, 2.0, 8.0, 30.0, 120.0, 241.03, 250.0, 1000.0)
_ORACLE_XIS = (0.01, 0.05, 0.184, 1.0)


@pytest.mark.parametrize("alpha", _ORACLE_ALPHAS)
@pytest.mark.parametrize("xi", _ORACLE_XIS)
def test_closed_form_ber_matches_quadrature_oracle(alpha, xi):
    # the oracle's relative error target is ORACLE_EPSREL; a tenfold margin
    # still catches the tens-of-orders misses a Gamma peak can cause
    model = SinrGammaModel(alpha=alpha, xi=xi)
    closed = analytic_ber(model)
    assert closed == pytest.approx(oracle_ber_numeric(alpha, xi), rel=10 * ORACLE_EPSREL)
    assert closed >= ber_lower_bound(model)


def test_oracle_raises_below_the_jensen_bound(monkeypatch):
    # a quadrature that misses the Gamma peak returns a tiny value with a
    # tiny error estimate; the oracle must not pass it on
    import scipy.integrate

    monkeypatch.setattr(scipy.integrate, "quad", lambda *a, **k: (4.3e-32, 1e-40))
    with pytest.raises(RuntimeError, match="Jensen bound"):
        oracle_ber_numeric(250.0, 0.05)


def test_split_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        cli.split_config({"num_ue": 4, "frobnicate": 1})


def test_config_defaults_are_table_defaults():
    cfg, experiment = cli.split_config({})
    assert SystemConfig(**cfg).num_ue == 30
    assert experiment == {}


def test_zf_fallback_rows_are_labelled_zf_to_mmse():
    # with one antenna per SBS, an SBS that serves two UEs cannot zero-force
    # them; its combiner falls back to MMSE and must not be reported as ZF
    cfg = desk_config(sbs_antennas=1)
    spec = ExperimentSpec(base=cfg, sweep_param="p_data_dbm", sweep_values=(13.0,),
                          metric=Metric.BER, detectors=("zf",), trials=2, topologies=1,
                          master_seed=1, ber_source=BerSource.EMPIRICAL_ORACLE)
    topo = scenario.build_topology(cfg, phy.stream(1, 0, experiments.PH_TOPOLOGY))
    assoc = scenario.associate(topo, cfg)
    served = np.bincount(assoc.ul_serving, minlength=cfg.num_sbs + 1)
    overloaded = {int(v) for v in np.flatnonzero(served > 1) if v}
    ul_of_decoupled = {int(v) for v in assoc.ul_serving[assoc.decoupled]}
    assert overloaded & ul_of_decoupled and ul_of_decoupled - overloaded - {0}

    got = experiments._topology_metrics(spec, 0)[13.0]
    assert set(got) == {("zf", "decoupled"), ("zf->mmse", "decoupled")}
    assert {r.method for r in run_sweep(spec).rows} == {"zf", "zf->mmse"}


def test_parts_give_a_wide_bs_its_own_mmse_part():
    # desk scale with 2 SBS antennas and 20 UEs: topology 0 has UL SBSs
    # serving 1, 2 and 3 UEs; ZF builds one stack per served count, on
    # exactly each BS's served columns, and the stack of the SBSs serving
    # 3 is MMSE, reported as zf->mmse
    spec = ExperimentSpec(base=desk_config(num_ue=20, sbs_antennas=2),
                          sweep_param="p_data_dbm", sweep_values=(13.0,), metric=Metric.BER,
                          detectors=("zf",), trials=1, topologies=1, master_seed=1)
    layout, _ = _point(spec, 13.0)
    ul = layout.assoc.ul_serving
    widths = []
    for part in layout.parts:
        ids, n_ant = layout.groups[part.group]
        ids = ids[part.rows]
        served = [np.flatnonzero(ul == v) for v in ids]
        width = part.cols.shape[1]
        wide = width > n_ant
        assert part.kind is (detectors.CombinerKind.MMSE if wide else detectors.CombinerKind.ZF)
        assert part.label == ("zf->mmse" if wide else "zf")
        assert part.cols.shape == (len(ids), width)
        for b, s in enumerate(served):
            assert np.array_equal(part.cols[b], s)
            assert np.array_equal(s[part.pick[b]], part.ues[b])
        widths.append(width)
    assert sorted(widths) == [1, 2, 3]


def test_analytic_ber_vector_equals_one_gamma_model_per_ue():
    cfg = desk_config()
    topo = scenario.build_topology(cfg, phy.stream(3, 0, experiments.PH_TOPOLOGY))
    assoc = scenario.associate(topo, cfg)
    (bers,), (bounds,) = experiments.analytic_ber_vector([cfg], topo, assoc)
    assert len(set(assoc.ul_serving.tolist())) > 1
    args = (cfg.p_train_mw, cfg.tau_t, cfg.noise_power_mw)
    for k in range(cfg.num_ue):
        v = int(assoc.ul_serving[k])
        n_ant, betas = ((cfg.mbs_antennas, topo.beta_mbs) if v == 0
                        else (cfg.sbs_antennas, topo.beta_sbs[v - 1]))
        model = ber_analytic.gamma_model_for_ue(
            n_ant, ber_analytic.effective_rho(betas, *args, cfg.p_data_mw),
            estimators.mmse_error_stats(betas, *args).estimate_var, k)
        assert bers[k] == pytest.approx(analytic_ber(model, 2.0), rel=1e-12)
        assert bounds[k] == pytest.approx(ber_lower_bound(model, 2.0), rel=1e-12)


def test_analytic_ber_vector_over_many_configs_equals_one_call_per_config():
    # full scale, UEs at the MBS and at SBSs; one stacked solve over data
    # powers from -20 to 40 dBm gives each config's rows bit for bit
    cfg = SystemConfig()
    topo, assoc = experiments.sweep_topology(cfg, 3)
    assert 0 in assoc.ul_serving and np.any(assoc.ul_serving > 0)
    cfgs = [cfg.replace(p_data_dbm=float(p)) for p in range(-20, 41, 5)]
    bers, bounds = experiments.analytic_ber_vector(cfgs, topo, assoc)
    assert bers.shape == bounds.shape == (len(cfgs), cfg.num_ue)
    for p, one in enumerate(cfgs):
        (ber,), (bound,) = experiments.analytic_ber_vector([one], topo, assoc)
        assert np.array_equal(bers[p], ber) and np.array_equal(bounds[p], bound)


# --- one task per topology: shared draws, stacked detection, pointed errors


@pytest.mark.parametrize("base,param,values", [
    (desk_config(num_sbs=0), "p_data_dbm", (3.0,)),
    (desk_config(), "num_sbs", (0, 2)),
])
def test_ber_spec_without_an_sbs_is_rejected_up_front(base, param, values):
    # no SBS means no decoupled UE, and the BER metric scores only those
    with pytest.raises(ValueError, match="num_sbs=0"):
        ExperimentSpec(base=base, sweep_param=param, sweep_values=values, metric=Metric.BER)
    ExperimentSpec(base=base, sweep_param=param, sweep_values=values, metric=Metric.RATE)


@pytest.mark.parametrize("base,param,values,match", [
    (desk_config(tau_d=0), "p_data_dbm", (3.0,), "p_data_dbm=3.0 has num_sbs=10, tau_d=0"),
    (desk_config(), "tau_d", (0, 16), "tau_d=0 has num_sbs=10, tau_d=0"),
    # with equal BS powers every UE's DL and UL pick the same BS
    (desk_config(), "p_sbs_dbm", (24.0, 46.0), "p_sbs_dbm=46.0 none of the 3 topologies"),
])
def test_ber_spec_with_nothing_to_score_is_rejected_up_front(base, param, values, match):
    # these once ran every trial and returned no measured BER for the point
    with pytest.raises(ValueError, match=match):
        ExperimentSpec(base=base, sweep_param=param, sweep_values=values, metric=Metric.BER,
                       topologies=3)
    ExperimentSpec(base=base, sweep_param=param, sweep_values=values, metric=Metric.NMSE,
                   topologies=3)


@pytest.mark.parametrize("base,param,values,seed,match,ber_match", [
    # the MBS, checked once per topology for points that share the layout
    (desk_config(mbs_antennas=4), "p_data_dbm", (3.0, 13.0), 1,
     r"sweep p_data_dbm=3.0, topology 0: the MBS serves 7 DL UEs with 4 antennas", None),
    # an SBS's, found at the second topology
    (desk_config(sbs_antennas=1, p_sbs_dbm=46.0), "p_data_dbm", (3.0,), 2,
     r"sweep p_data_dbm=3.0, topology 1: SBS 3 serves 2 DL UEs with 1 antennas",
     "p_data_dbm=3.0 none of the 2 topologies"),
    # a swept SBS power moves the association: only the second point overloads
    (desk_config(sbs_antennas=1), "p_sbs_dbm", (24.0, 46.0), 2,
     r"sweep p_sbs_dbm=46.0, topology 1: SBS 3 serves 2 DL UEs with 1 antennas",
     "p_sbs_dbm=46.0 none of the 2 topologies"),
])
def test_rate_spec_with_a_dl_overload_is_rejected_up_front(base, param, values, seed, match,
                                                           ber_match):
    with pytest.raises(ValueError, match=match):
        ExperimentSpec(base=base, sweep_param=param, sweep_values=values,
                       metric=Metric.RATE, topologies=2, master_seed=seed)
    # only the rate metric runs the downlink.  With the SBSs at the MBS's
    # power no UE is decoupled, so the BER metric rejects the point for that
    ExperimentSpec(base=base, sweep_param=param, sweep_values=values,
                   metric=Metric.NMSE, topologies=2, master_seed=seed)
    with pytest.raises(ValueError, match=ber_match) if ber_match else contextlib.nullcontext():
        ExperimentSpec(base=base, sweep_param=param, sweep_values=values,
                       metric=Metric.BER, topologies=2, master_seed=seed)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(num_ue=st.integers(1, 8), num_sbs=st.integers(0, 3),
       mbs_antennas=st.integers(1, 8), sbs_antennas=st.integers(1, 4),
       param=st.sampled_from(["p_data_dbm", "mbs_antennas", "sbs_antennas"]),
       ber_source=st.sampled_from(list(BerSource)), metric=st.sampled_from(list(Metric)),
       modulation=st.sampled_from(list(Modulation)), tau_d=st.sampled_from([0, 8]),
       dets=st.lists(st.sampled_from(experiments.DETECTOR_CHOICES), min_size=1, unique=True),
       ests=st.lists(st.sampled_from(experiments.ESTIMATOR_CHOICES), min_size=1, unique=True))
def test_a_spec_is_rejected_up_front_or_runs_to_finite_rows(
        num_ue, num_sbs, mbs_antennas, sbs_antennas, param, ber_source, metric, modulation,
        tau_d, dets, ests):
    base = SystemConfig(num_ue=num_ue, num_sbs=num_sbs, mbs_antennas=mbs_antennas,
                        sbs_antennas=sbs_antennas, tau_t=8, tau_d=tau_d)
    values = (3.0, 13.0) if param == "p_data_dbm" else (getattr(base, param), 9)
    try:
        spec = ExperimentSpec(base=base, sweep_param=param, sweep_values=values,
                              metric=metric, detectors=tuple(dets), estimators=tuple(ests),
                              modulation=modulation, trials=1, topologies=2,
                              ber_source=ber_source)
    except ValueError as exc:
        assert any(reason in str(exc) for reason in (
            "DL UEs with", "which need an SBS", "topologies has one"))
        return
    rows = run_sweep(spec).rows
    assert rows and all(math.isfinite(r.mean) and math.isfinite(r.stderr) for r in rows)


def test_worker_failure_names_sweep_value_topology_and_seed(monkeypatch):
    # a downlink precoder that fails inside the worker, at the first point
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("ZF precoder failed")

    monkeypatch.setattr(downlink, "zf_precode", failing)
    spec = ExperimentSpec(base=desk_config(num_ue=3), sweep_param="mbs_antennas",
                          sweep_values=(4, 64), metric=Metric.RATE, trials=1,
                          topologies=1, master_seed=3,
                          ber_source=BerSource.EMPIRICAL_ORACLE)
    with pytest.raises(RuntimeError,
                       match=r"sweep mbs_antennas=4, topology 0, master seed 3: ZF"):
        run_sweep(spec)


def _counted(monkeypatch, module, name, calls):
    """Wrap ``module.name`` so that every call appends its arguments to ``calls``."""
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def _observe_calls(spec):
    """run_sweep(spec) and its phy.observe calls per phase."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _counted(mp, phy, "observe", calls)
        table = run_sweep(spec)
    phases = [args[4] if len(args) > 4 else kwargs.get("phase", phy.Phase.TRAINING)
              for args, kwargs in calls]
    return table, {p: phases.count(p) for p in (phy.Phase.TRAINING, phy.Phase.DATA)}


@pytest.mark.parametrize("metric,param,values,draws_per_chunk,trials,shared,base", [
    pytest.param(Metric.NMSE, "p_train_dbm", (-7.0, 3.0, 13.0), 1, 3, "data", desk_config(),
                 id="nmse-p_train_dbm-values0-1"),
    pytest.param(Metric.BER, "p_data_dbm", (3.0, 13.0, 23.0), 1, 3, "pilot", desk_config(),
                 id="ber-p_data_dbm-values1-1"),
    # a new shape misses the shared draw
    pytest.param(Metric.RATE, "num_ue", (6, 10), 2, 3, None, desk_config(),
                 id="rate-num_ue-values2-2"),
    pytest.param(Metric.RATE, "p_data_dbm", (3.0, 23.0), 1, 3, "pilot", desk_config(),
                 id="rate-p_data_dbm-pilot-side-shared"),
    pytest.param(Metric.NMSE, "tau_d", (0, 16, 64), 1, 3, "pilot", desk_config(),
                 id="nmse-tau_d-pilot-side-shared"),
    # the association moves with the SBS power, so no stage is shared
    pytest.param(Metric.RATE, "p_sbs_dbm", (14.0, 34.0), 1, 3, None, desk_config(),
                 id="rate-p_sbs_dbm-nothing-shared"),
    pytest.param(Metric.RATE, "p_data_dbm", (3.0, 23.0), 1, 5, "pilot", desk_config(),
                 id="rate-p_data_dbm-odd-trials"),
    # ZF falls back to MMSE at overloaded SBSs, which reads p_data_dbm
    pytest.param(Metric.BER, "p_data_dbm", (3.0, 23.0), 1, 3, "pilot",
                 desk_config(num_ue=20, sbs_antennas=2), id="ber-p_data_dbm-zf-fallback"),
    # the path-loss exponent and the antenna counts move the layout
    pytest.param(Metric.NMSE, "alpha", (3.5, 4.0), 2, 3, None, desk_config(),
                 id="nmse-alpha-no-layout-shared"),
    pytest.param(Metric.BER, "mbs_antennas", (64, 128), 2, 3, None, desk_config(),
                 id="ber-mbs_antennas-no-layout-shared"),
    pytest.param(Metric.RATE, "tau_t", (10, 20, 40), 1, 3, "data", desk_config(),
                 id="rate-tau_t-data-side-shared"),
    # the noise power reaches both sides, but not the layout or the channels
    pytest.param(Metric.NMSE, "noise_density_dbm_hz", (-180.0, -170.0), 1, 3, None,
                 desk_config(), id="nmse-noise_density_dbm_hz-no-side-shared"),
    pytest.param(Metric.BER, "bandwidth_hz", (5e6, 20e6), 1, 3, None, desk_config(),
                 id="ber-bandwidth_hz-no-side-shared"),
    # the MBS power moves the association but not the channels
    pytest.param(Metric.RATE, "p_mbs_dbm", (40.0, 46.0), 1, 3, None, desk_config(),
                 id="rate-p_mbs_dbm-nothing-shared-one-draw"),
])
def test_multi_point_sweep_equals_its_one_point_sweeps(monkeypatch, metric, param, values,
                                                       draws_per_chunk, trials, shared, base):
    kw = dict(base=base, sweep_param=param, metric=metric, trials=trials,
              topologies=2, master_seed=5)
    draws = []
    _counted(monkeypatch, phy, "draw_channels", draws)
    table, observed = _observe_calls(ExperimentSpec(sweep_values=values, **kw))
    chunks = math.ceil(trials / experiments._CHUNK)
    assert len(draws) == draws_per_chunk * chunks * 2
    alone = [_observe_calls(ExperimentSpec(sweep_values=(v,), **kw)) for v in values]
    assert table.rows == sum((t.rows for t, _ in alone), ())   # mean, stderr, n bit for bit
    # a shared side observes once per chunk for every point, the others once per point
    for phase, side in ((phy.Phase.TRAINING, "pilot"), (phy.Phase.DATA, "data")):
        counts = [calls[phase] for _, calls in alone]
        assert observed[phase] == (counts[0] if shared == side else sum(counts)), side
        assert shared != side or len(set(counts)) == 1


@pytest.mark.parametrize("metric,param,values,layouts", [
    (Metric.BER, "p_data_dbm", (3.0, 13.0, 23.0), 1),
    (Metric.NMSE, "p_train_dbm", (-7.0, 3.0, 13.0), 1),
    (Metric.NMSE, "tau_d", (0, 16, 64), 1),
    (Metric.RATE, "p_sbs_dbm", (14.0, 24.0, 34.0), 3),
    (Metric.RATE, "num_ue", (6, 8, 10), 3),
    (Metric.NMSE, "alpha", (3.5, 4.0, 4.5), 3),
    (Metric.NMSE, "noise_density_dbm_hz", (-180.0, -174.0, -170.0), 1),
    (Metric.BER, "bandwidth_hz", (5e6, 10e6, 20e6), 1),
    (Metric.RATE, "tau_t", (10, 20, 40), 1),
    (Metric.RATE, "p_mbs_dbm", (40.0, 43.0, 46.0), 3),
])
def test_each_topology_builds_one_layout_per_layout_key(monkeypatch, metric, param, values,
                                                         layouts):
    # the points of a sweep over a field the layout never reads share one
    # association and one analytic solve; any other field moves the layout
    spec = ExperimentSpec(base=desk_config(), sweep_param=param, sweep_values=values,
                          metric=metric, trials=1, topologies=2, master_seed=5)
    assoc, solves = [], []
    _counted(monkeypatch, scenario, "associate", assoc)
    _counted(monkeypatch, experiments, "analytic_ber_vector", solves)
    for p in range(spec.topologies):
        experiments._topology_metrics(spec, p)
        assert len(assoc) == len(solves) == layouts
        assert sum(len(args[0]) for args, _ in solves) == len(values)
        assoc.clear()
        solves.clear()


def test_threads_give_equal_output_on_a_multi_layout_sweep():
    # three topologies over two workers, one layout per point
    spec = ExperimentSpec(base=desk_config(), sweep_param="p_sbs_dbm",
                          sweep_values=(14.0, 34.0), metric=Metric.RATE, trials=2,
                          topologies=3, master_seed=5)
    assert run_sweep(spec, threads=2).rows == run_sweep(spec, threads=1).rows


@pytest.fixture
def started(monkeypatch):
    """The worker count of every executor run_sweep starts; each runs its
    tasks in-process."""
    started = []

    class Recorder:
        """An executor that records its worker count and runs tasks in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments.concurrent.futures, "ProcessPoolExecutor", Recorder)
    return started


@pytest.mark.parametrize("threads,topologies,cpus,workers", [
    (8, 3, 4, 3), (8, 5, 2, 2), (2, 5, 4, 2), (4, 3, 1, None), (1, 3, 4, None)])
def test_run_sweep_starts_no_more_workers_than_topologies_or_cpus(monkeypatch, started, threads,
                                                                  topologies, cpus, workers):
    spec = _tiny_spec(topologies=topologies, trials=1)
    serial = run_sweep(spec)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert run_sweep(spec, threads=threads).rows == serial.rows
    assert started == ([] if workers is None else [workers])


@pytest.mark.parametrize("threads", [0, -3, 1.5, math.inf, "2"])
def test_run_sweep_rejects_a_bad_thread_count_before_any_topology_runs(monkeypatch, started,
                                                                       threads):
    ran = []
    monkeypatch.setattr(experiments, "_topology_metrics", lambda spec, p: ran.append(p))
    with pytest.raises(ValueError, match="threads takes a whole number >= 1"):
        run_sweep(_tiny_spec(), threads=threads)
    assert started == [] and ran == []


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    assert experiments._usable_cpus() == 3


def test_pilot_only_precoders_are_built_once_per_chunk(monkeypatch):
    # a p_data_dbm rate sweep: the SBS precoders and the pilot-only MBS
    # precoder come from the pilot side; only the data-aided MBS precoder is
    # built at every point; at 40 dBm two SBSs serve DL UEs
    spec = ExperimentSpec(base=desk_config(p_sbs_dbm=40.0), sweep_param="p_data_dbm",
                          sweep_values=(3.0, 23.0), metric=Metric.RATE, trials=5, topologies=1,
                          master_seed=5, ber_source=BerSource.EMPIRICAL_ORACLE)
    layout, _ = _point(spec, 3.0)
    assert any(v == 0 for v, *_ in layout.dl_sets) and len(layout.dl_sets) > 1
    calls = []
    _counted(monkeypatch, downlink, "zf_precode", calls)
    experiments._topology_metrics(spec, 0)
    chunks = 3
    assert len(calls) == chunks * (len(layout.dl_sets) + len(spec.sweep_values))
    assert all(args[0].shape[0] in (2, 1) for args, _ in calls)   # one stacked call per chunk


def test_shared_draws_are_read_only_and_reused():
    cfg = desk_config()
    topo = scenario.build_topology(cfg, phy.stream(1, 0, experiments.PH_TOPOLOGY))
    draws = experiments._TrialMemo(1, 0, range(3, 5))
    channels = draws.channels(topo, cfg)
    bits = draws.bits(cfg, Modulation.QAM4)
    noise = draws.noise(experiments.PH_NOISE_DATA, [1, 4], (8, cfg.tau_d), 0.5)
    for a in (channels.h_mbs, channels.g_sbs, bits, noise):
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        channels.h_mbs[0, 0, 0] = 0.0
    assert draws.channels(topo, cfg.replace(p_train_dbm=-7.0)) is channels
    assert draws.noise(experiments.PH_NOISE_DATA, [1, 4], (8, cfg.tau_d), 0.5) is noise
    # any argument that shapes a draw keys it: a fresh draw, from the same substream
    wide = draws.channels(topo, cfg.replace(sbs_antennas=4))
    assert wide.g_sbs.shape == (2, cfg.num_sbs, 4, cfg.num_ue)
    assert draws.noise(experiments.PH_NOISE_DATA, [1, 4], (8, cfg.tau_d), 0.7) is not noise
    # trial t of the stack is what its own substreams give
    for i, t in enumerate((3, 4)):
        fresh = phy.draw_channels(topo, cfg, [phy.stream(1, 0, t, experiments.PH_CHANNELS)])
        assert np.array_equal(channels.h_mbs[i], fresh.h_mbs[0])
        assert np.array_equal(channels.g_sbs[i], fresh.g_sbs[0])
        assert np.array_equal(noise[i, 1], phy.awgn(
            [phy.stream(1, 0, t, experiments.PH_NOISE_DATA, 4)], (8, cfg.tau_d), 0.5)[0])
        assert np.array_equal(bits[i], detectors.random_bits(
            cfg.num_ue, cfg.tau_d, Modulation.QAM4, phy.stream(1, 0, t, experiments.PH_BITS)))


def test_memo_noise_draws_each_trial_and_bs_block_from_its_own_substream():
    # the flat trial-major, BS-minor draw reshapes to (T, B, ...) without a copy
    memo = experiments._TrialMemo(2, 0, range(3))
    noise = memo.noise(experiments.PH_NOISE_TRAIN, [0, 5], (5, 7), 0.4)
    assert noise.shape == (3, 2, 5, 7) and noise.base is not None
    for t in range(3):
        for b, v in enumerate((0, 5)):
            assert np.array_equal(noise[t, b], phy.awgn(
                [phy.stream(2, 0, t, experiments.PH_NOISE_TRAIN, v)], (5, 7), 0.4)[0])
    assert memo.noise(experiments.PH_NOISE_TRAIN, [1, 2], (5, 0), 0.4).shape == (3, 2, 5, 0)
    assert not np.any(memo.noise(experiments.PH_NOISE_TRAIN, [1, 2], (5, 7), 0.0))


def test_stages_are_kept_only_when_points_share_them():
    memo = experiments._TrialMemo(1, 0, range(2), shared=frozenset({"pilot"}))
    made = []

    def make():
        made.append(1)
        return [np.zeros(3)]

    kept = memo.stage("pilot", "s", make)
    assert memo.stage("pilot", "s", make) is kept and len(made) == 1
    assert not kept[0].flags.writeable
    assert memo.stage("data", "s", make) is not memo.stage("data", "s", make) and len(made) == 3
    # the shared pilot side reads its training noise once, so that is not
    # kept; the data noise is, for the other points of an unshared data side
    args = ([0, 2], (8, 4), 0.5)
    train = memo.noise(experiments.PH_NOISE_TRAIN, *args)
    assert memo.noise(experiments.PH_NOISE_TRAIN, *args) is not train
    data = memo.noise(experiments.PH_NOISE_DATA, *args)
    assert memo.noise(experiments.PH_NOISE_DATA, *args) is data


def test_blind_fields_are_config_fields():
    # a misspelt field would never match the swept one and silently share nothing
    fields = {f.name for f in dataclasses.fields(SystemConfig)}
    assert set(experiments._BLIND) == {"layout", "pilot", "data"}
    for part, blind in experiments._BLIND.items():
        assert set(blind) <= fields, part
    # a shared side must see one layout
    for side in ("pilot", "data"):
        assert set(experiments._BLIND[side]) <= set(experiments._BLIND["layout"])


def test_topology_substream_key_moves_every_caller(monkeypatch):
    # the sweep, the DA-NMSE check and the floor command rebuild one
    # topology from one key; moving PH_TOPOLOGY must move all three
    cfg, seed = desk_config(), 11
    before = experiments.sweep_topology(cfg, seed)[0]
    monkeypatch.setattr(experiments, "PH_TOPOLOGY", 9)
    want = scenario.build_topology(cfg, phy.stream(seed, 0, 9))
    assert not np.array_equal(want.beta_mbs, before.beta_mbs)
    built = []
    build = scenario.build_topology

    def spy(*args):
        built.append(build(*args))
        return built[-1]
    monkeypatch.setattr(scenario, "build_topology", spy)
    spec = ExperimentSpec(base=cfg, sweep_param="p_train_dbm", sweep_values=(cfg.p_train_dbm,),
                          metric=Metric.NMSE, estimators=("da",), trials=1, topologies=1,
                          master_seed=seed)
    experiments._layout(spec, cfg, 0)
    validation._da_nmse_deviation(cfg, seed, BerSource.ANALYTIC_PROP1, topologies=1, trials=1)
    cli._run_floor(cfg, seed)
    assert len(built) == 4          # the layout, the check's sweep and its prediction, the floor
    for topo in built:
        assert np.array_equal(topo.beta_mbs, want.beta_mbs)


def test_stacked_detection_equals_one_combiner_per_bs():
    # desk scale with 2 SBS antennas and 20 UEs: topology 0 has UL SBSs
    # serving 1, 2 and 3 UEs, so ZF stacks ragged sets and falls back at
    # two; two trials stack along the leading axis
    spec = ExperimentSpec(base=desk_config(num_ue=20, sbs_antennas=2),
                          sweep_param="p_data_dbm", sweep_values=(13.0,), metric=Metric.BER,
                          trials=2, topologies=1, master_seed=1)
    layout, run = _point(spec, 13.0)
    memo = experiments._TrialMemo(1, 0, range(2))
    channels = memo.channels(layout.topo, run.cfg)
    pilot = experiments._pilot_side(run, memo, channels)
    block, data = experiments._data_side(spec, run, memo, channels)
    _, got = experiments._detect(run, memo, pilot, data, block)

    cfg, ul = run.cfg, layout.assoc.ul_serving
    scored = layout.labels == "decoupled"
    args = (cfg.p_train_mw, cfg.tau_t, cfg.p_data_mw, cfg.noise_power_mw)
    want = {}
    for (ids, n_ant), heard, obs in zip(layout.groups, pilot, data):
        for i, v in enumerate(ids):
            if v not in ul[scored]:
                continue
            served = np.flatnonzero(ul == v)
            mine = np.flatnonzero(scored & (ul == v))
            for t in range(2):
                one = phy.Observation(obs.y[t, i], phy.Phase.DATA, obs.noise_power)
                payload = detectors.DataBlock(block.bits[t], block.symbols[t], block.modulation,
                                              block.power)
                for det in ("mrc", "zf", "mmse"):
                    cols = served if det != "mmse" else np.arange(cfg.num_ue)
                    # a BS that serves more UEs than antennas cannot zero-force
                    kind = "mmse" if det == "zf" and len(served) > n_ant else det
                    comb = dataclasses.replace(detectors.build_combiner(
                        kind, heard.est[t, i][:, cols], layout.betas[v], *args),
                        ue_indices=tuple(cols))
                    _, _, ber = detectors.detect_all(one, comb, payload)
                    label = det if kind == det else f"{det}->{kind}"
                    want.setdefault(label, np.full((2, cfg.num_ue), np.nan))[t, mine] = \
                        ber[np.searchsorted(cols, mine)]
    assert set(got) == {"mrc", "zf", "zf->mmse", "mmse"}
    for label in want:
        assert np.array_equal(got[label], want[label], equal_nan=True), label
