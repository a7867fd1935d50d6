import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from hetnetsim.scenario import (
    Link,
    PathLossModel,
    SystemConfig,
    associate,
    build_topology,
    desk_config,
    path_loss,
    topology_from_positions,
    ue_classes,
)


def test_config_defaults_match_full_scale():
    cfg = SystemConfig()
    assert cfg.num_ue == 30 and cfg.mbs_antennas == 256 and cfg.tau_t == 30
    assert cfg.p_mbs_mw == pytest.approx(10 ** 4.6)


def test_config_rejects_short_pilots():
    with pytest.raises(ValueError, match="tau_t"):
        SystemConfig(num_ue=31, tau_t=30)


@pytest.mark.parametrize("field,value,message", [
    ("num_ue", 0, "UE count must be >= 1 and SBS count >= 0"),
    ("num_sbs", -1, "UE count must be >= 1 and SBS count >= 0"),
    ("mbs_antennas", 0, "antenna and symbol counts must be >= 1"),
    ("sbs_antennas", 0, "antenna and symbol counts must be >= 1"),
    ("tau_t", 0, "antenna and symbol counts must be >= 1"),
    ("tau_d", -1, "tau_d must be >= 0"),
    ("cell_radius_m", 0.0, "cell_radius_m must be positive"),
    ("bandwidth_hz", 0.0, "bandwidth_hz must be positive"),
])
def test_config_rejects_a_count_or_size_out_of_range(field, value, message):
    with pytest.raises(ValueError, match=message):
        SystemConfig(**{field: value})


_INT_FIELDS = [f.name for f in dataclasses.fields(SystemConfig) if f.type == "int"]
_FLOAT_FIELDS = [f.name for f in dataclasses.fields(SystemConfig) if f.type == "float"]
_NOT_A_NUMBER = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                          st.booleans(), st.text(max_size=4))


@given(field=st.sampled_from(_INT_FIELDS),
       value=st.one_of(_NOT_A_NUMBER,
                       st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer())))
def test_config_int_field_rejects_a_fractional_or_non_numeric_value(field, value):
    with pytest.raises(ValueError, match=f"{field} takes whole numbers"):
        SystemConfig(**{field: value})


@given(field=st.sampled_from(_FLOAT_FIELDS), value=_NOT_A_NUMBER)
def test_config_float_field_rejects_a_non_finite_or_non_numeric_value(field, value):
    with pytest.raises(ValueError, match=f"{field} takes finite numbers"):
        SystemConfig(**{field: value})


@given(field=st.sampled_from(_INT_FIELDS), value=st.integers(1, 8),
       as_float=st.sampled_from([float, np.float64]))
def test_config_stores_an_integral_float_as_an_int(field, value, as_float):
    cfg = SystemConfig(**{"num_ue": 1, "tau_t": 8, field: as_float(value)})
    assert getattr(cfg, field) == value and type(getattr(cfg, field)) is int


@pytest.mark.parametrize("field,value,mw_name", [
    ("p_data_dbm", 4000.0, "p_data_mw"),               # overflows
    ("p_mbs_dbm", 4000.0, "p_mbs_mw"),
    ("p_data_dbm", -10000.0, "p_data_mw"),             # underflows to 0 mW
    ("p_train_dbm", -10000.0, "p_train_mw"),
    ("p_sbs_dbm", -10000.0, "p_sbs_mw"),
    ("noise_density_dbm_hz", -10000.0, "noise_power_mw"),
    ("noise_density_dbm_hz", 4000.0, "noise_power_mw"),
    ("bandwidth_hz", 1e-320, "noise_power_mw"),
])
def test_config_rejects_a_power_that_is_not_positive_and_finite_in_mw(field, value, mw_name):
    # each of these once passed the config and failed partway through a sweep
    given = re.escape(f"{field}={value!r}")
    with pytest.raises(ValueError, match=rf"{mw_name}=.* from .*{given}"):
        SystemConfig(**{field: value})


def test_noise_power_is_density_times_bandwidth():
    cfg = SystemConfig(bandwidth_hz=20e6)
    expected_dbm = -174.0 + 10 * np.log10(20e6)
    assert cfg.noise_power_mw == pytest.approx(10 ** (expected_dbm / 10))


def test_path_loss_unit_distance():
    assert path_loss(1.0, PathLossModel.SIMPLE_NLOS, Link.MBS_UE, alpha=4.0) == 1.0


def test_path_loss_3gpp_reference_values():
    # intercepts hold at the 1 km reference; one decade further out the
    # LoS branch drops by exactly its exponent
    assert path_loss(1000.0, PathLossModel.THREE_GPP, Link.MBS_UE) == pytest.approx(
        10 ** -14.54, rel=1e-12)
    assert path_loss(10_000.0, PathLossModel.THREE_GPP, Link.SBS_UE) == pytest.approx(
        10 ** (-10.38 - 2.09), rel=1e-12)


def test_path_loss_3gpp_physically_sane_in_cell():
    # at 100 m the LoS small-cell link must beat the NLoS macro link, but
    # neither may exceed free-space-at-centimetres absurdities
    mbs = path_loss(300.0, PathLossModel.THREE_GPP, Link.MBS_UE)
    sbs = path_loss(100.0, PathLossModel.THREE_GPP, Link.SBS_UE)
    assert sbs > mbs
    assert 1e-16 < mbs < 1e-6 and 1e-12 < sbs < 1e-6


def test_3gpp_model_keeps_eq4_association_classes():
    # cell selection stays on the d^-alpha rule, so the class mix matches
    # the single-slope model on the same placement
    simple = desk_config()
    gpp = desk_config(pathloss_model=PathLossModel.THREE_GPP)
    for seed in range(4):
        topo_s = build_topology(simple, seed)
        topo_g = build_topology(gpp, seed)
        assert np.array_equal(topo_s.ue_positions, topo_g.ue_positions)
        a, b = associate(topo_s, simple), associate(topo_g, gpp)
        assert np.array_equal(a.dl_serving, b.dl_serving)
        assert np.array_equal(a.ul_serving, b.ul_serving)


def test_path_loss_rejects_sub_clamp_distance():
    with pytest.raises(ValueError):
        path_loss(0.5, PathLossModel.SIMPLE_NLOS, Link.MBS_UE)


@pytest.mark.parametrize("model,link", [
    (PathLossModel.SIMPLE_NLOS, Link.MBS_UE),
    (PathLossModel.THREE_GPP, Link.MBS_UE),
    (PathLossModel.THREE_GPP, Link.SBS_UE),
])
def test_path_loss_strictly_decreasing(model, link):
    d = np.linspace(1.0, 2000.0, 50)
    g = path_loss(d, model, link, alpha=4.0)
    assert np.all(np.diff(g) < 0)


def test_forced_unit_distance_ue_has_unit_gain():
    cfg = SystemConfig(num_ue=1, num_sbs=0, tau_t=1, alpha=4.0)
    topo = topology_from_positions(cfg, np.zeros((0, 2)), [(1.0, 0.0)])
    assert topo.beta_mbs[0] == 1.0


def test_build_topology_deterministic():
    cfg = desk_config()
    a = build_topology(cfg, 123)
    b = build_topology(cfg, 123)
    assert np.array_equal(a.ue_positions, b.ue_positions)
    assert np.array_equal(a.sbs_positions, b.sbs_positions)
    assert np.array_equal(a.beta_sbs, b.beta_sbs)


def test_uniform_disc_second_moment():
    # oracle: E[d^2] over the uniform disc by direct integration of the
    # radial density 2r/R^2
    radius = 1000.0
    expected, _ = integrate.quad(lambda r: r ** 2 * 2 * r / radius ** 2, 0, radius)
    cfg = SystemConfig(num_ue=10_000, num_sbs=0, tau_t=10_000,
                       cell_radius_m=radius)
    topo = build_topology(cfg, 7)
    d2 = np.mean(np.sum(topo.ue_positions ** 2, axis=1))
    assert d2 == pytest.approx(expected, rel=0.02)


def test_associate_couples_ue_next_to_mbs():
    cfg = desk_config(num_ue=1, num_sbs=1, tau_t=1)
    topo = topology_from_positions(cfg, [(500.0, 0.0)], [(1.0, 0.0)])
    assoc = associate(topo, cfg)
    assert assoc.dl_serving[0] == 0 and assoc.ul_serving[0] == 0
    assert len(assoc.decoupled) == 0


def test_associate_decoupling_window():
    # d_M/d_S = 3 puts the gain ratio 81 inside (M/N, M P_M / (N P_S)),
    # checked by evaluating both argmax metrics directly
    cfg = SystemConfig(num_ue=1, num_sbs=1, tau_t=1, mbs_antennas=256,
                       sbs_antennas=8, p_mbs_dbm=46.0, p_sbs_dbm=24.0, alpha=4.0)
    topo = topology_from_positions(cfg, [(200.0, 0.0)], [(300.0, 0.0)])
    beta_m, beta_s = topo.beta_mbs[0], topo.beta_sbs[0, 0]
    assert 256 * beta_m > 8 * beta_s * 0 and (300.0 / 100.0) ** 4 == pytest.approx(81)
    dl_mbs = 256 * cfg.p_mbs_mw * beta_m
    dl_sbs = 8 * cfg.p_sbs_mw * beta_s
    ul_mbs, ul_sbs = 256 * beta_m, 8 * beta_s
    assert dl_mbs > dl_sbs and ul_sbs > ul_mbs
    assoc = associate(topo, cfg)
    assert assoc.dl_serving[0] == 0 and assoc.ul_serving[0] == 1
    assert list(assoc.decoupled) == [0]


def test_equal_power_equal_antennas_never_decouples():
    cfg = desk_config(mbs_antennas=8, sbs_antennas=8,
                      p_mbs_dbm=30.0, p_sbs_dbm=30.0)
    for seed in range(5):
        assoc = associate(build_topology(cfg, seed), cfg)
        assert len(assoc.decoupled) == 0


def test_ul_association_invariant_to_data_power():
    cfg = desk_config()
    topo = build_topology(cfg, 3)
    base = associate(topo, cfg)
    boosted = associate(topo, cfg.replace(p_data_dbm=43.0))
    assert np.array_equal(base.ul_serving, boosted.ul_serving)
    assert np.array_equal(base.dl_serving, boosted.dl_serving)


def test_associate_idempotent():
    cfg = desk_config()
    topo = build_topology(cfg, 11)
    a = associate(topo, cfg)
    b = associate(topo, cfg)
    assert np.array_equal(a.dl_serving, b.dl_serving)
    assert np.array_equal(a.ul_serving, b.ul_serving)
    assert np.array_equal(a.decoupled, b.decoupled)


def test_decoupled_ues_go_up_to_sbs_down_to_mbs():
    cfg = desk_config()
    for seed in range(8):
        assoc = associate(build_topology(cfg, seed), cfg)
        assert np.array_equal(
            assoc.decoupled,
            np.where(assoc.dl_serving != assoc.ul_serving)[0])
        assert np.all(assoc.dl_serving[assoc.decoupled] == 0)
        assert np.all(assoc.ul_serving[assoc.decoupled] > 0)


def test_ue_classes_partition():
    cfg = desk_config()
    assoc = associate(build_topology(cfg, 2), cfg)
    labels = ue_classes(assoc)
    assert set(labels) <= {"decoupled", "mue", "sue"}
    assert np.all((labels == "decoupled") == np.isin(
        np.arange(cfg.num_ue), assoc.decoupled))
