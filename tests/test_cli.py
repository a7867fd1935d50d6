import json

import pytest

from hetnetsim import cli
from hetnetsim.experiments import read_csv

TINY = ('{"num_sbs": 5, "num_ue": 5, "mbs_antennas": 16, "sbs_antennas": 8,'
        ' "tau_t": 5, "tau_d": 16, "trials": 2, "topologies": 2}\n')


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(TINY)
    return path


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "nmse-sweep" in capsys.readouterr().out


def test_missing_command_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"num_ue": 4, "bogus_knob": 2}\n')
    code = cli.main(["floor", "--config", str(path)])
    assert code == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_malformed_override_rejected(tiny_config, capsys):
    code = cli.main(["floor", "--config", str(tiny_config), "--set", "tau_d"])
    assert code == 2
    assert "override" in capsys.readouterr().err


def test_malformed_sweep_rejected(tiny_config, tmp_path, capsys):
    code = cli.main([
        "nmse-sweep", "--config", str(tiny_config),
        "--sweep", "p_train_dbm=3:13", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


@pytest.mark.parametrize("grid", ["0:inf:1", "-inf:1:1", "0:1:inf", "nan:1:1"])
def test_non_finite_sweep_grid_is_a_config_error(tiny_config, tmp_path, capsys, grid):
    out = tmp_path / "never.csv"
    assert cli.main(["nmse-sweep", "--config", str(tiny_config), "--sweep",
                     f"p_train_dbm={grid}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"bad sweep grid {grid!r}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["detectors", "estimators"])
@pytest.mark.parametrize("via", ["config", "set"])
def test_a_method_string_is_a_config_error(tiny_config, tmp_path, capsys, key, via):
    # a string would otherwise split into its letters, and an object into its keys
    for value in ["mmse", {"ls": 1}, None, 3]:
        if via == "config":
            path = tmp_path / "methods.json"
            path.write_text(json.dumps({**json.loads(TINY), key: value}))
            argv = ["--config", str(path)]
        else:
            argv = ["--config", str(tiny_config), "--set", f"{key}={json.dumps(value)}"]
        assert cli.main(["floor", *argv, "--dump-config"]) == 2
        captured = capsys.readouterr()
        assert (f'{key} takes a JSON list such as ["mmse"], got {json.dumps(value)}'
                in captured.err and "Traceback" not in captured.err)
        assert captured.out == ""


@pytest.mark.parametrize("command", ["nmse-sweep", "floor"])
@pytest.mark.parametrize("override", ["num_ue=6.5", "tau_d=2.5", "p_data_dbm=NaN"])
def test_a_bad_base_value_is_a_config_error(tiny_config, tmp_path, capsys, command, override):
    # these once passed config parsing and failed in the worker
    out = tmp_path / "never.csv"
    argv = [command, "--config", str(tiny_config), "--set", override]
    if command != "floor":
        argv += ["--sweep", "p_train_dbm=3:8:5", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {override.split('=')[0]} takes" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("override", ["trials=true", "topologies=true"])
def test_a_boolean_count_is_a_config_error(tiny_config, tmp_path, capsys, override):
    # a boolean once ran as a count of one
    out = tmp_path / "never.csv"
    argv = ["nmse-sweep", "--config", str(tiny_config), "--set", override,
            "--sweep", "p_train_dbm=3:8:5", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {override.split('=')[0]} takes" in err and "Traceback" not in err
    assert not out.exists()


def test_a_dl_overload_is_a_config_error(tmp_path, capsys):
    # this once failed in the worker, partway through the sweep
    out = tmp_path / "never.csv"
    argv = ["rate-sweep", "--set", "num_sbs=10", "--set", "num_ue=10",
            "--set", "mbs_antennas=4", "--set", "trials=2", "--set", "topologies=3",
            "--sweep", "p_data_dbm=3:13:10", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert ("config error: sweep p_data_dbm=3.0, topology 0: the MBS serves 7 DL UEs "
            "with 4 antennas" in err and "Traceback" not in err)
    assert not out.exists()


@pytest.mark.parametrize("target,errno_text", [
    ("no-such-dir/x.csv", "[Errno 2] No such file or directory"),
    ("a-file/x.csv", "[Errno 20] Not a directory"),
    (".", "[Errno 21] Is a directory")])
def test_an_unwritable_out_is_an_output_error_before_the_sweep(tiny_config, tmp_path, monkeypatch,
                                                                capsys, target, errno_text):
    # this once failed only after the whole sweep had run
    (tmp_path / "a-file").write_text("")
    calls = []
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kw: calls.append(args))
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["nmse-sweep", "--config", str(tiny_config), "--sweep", "p_train_dbm=3:8:5",
                     "--out", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert f"output error: {errno_text}" in err and "Traceback" not in err
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["nmse-sweep", "ber-sweep", "rate-sweep", "validate", "floor"])
def test_a_negative_seed_is_a_usage_error(tiny_config, tmp_path, capsys, command):
    out = tmp_path / "never.csv"
    argv = [command, "--config", str(tiny_config), "--seed", "-1"]
    if command.endswith("-sweep"):
        argv += ["--sweep", "p_train_dbm=3:8:5", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--seed: takes a whole number >= 0, got '-1'" in err and "Traceback" not in err
    assert not out.exists()


def test_unreadable_config_rejected(tmp_path):
    assert cli.main(["floor", "--config", str(tmp_path / "missing.json")]) == 2


def test_dump_config_round_trips(tiny_config, tmp_path, capsys):
    assert cli.main(["floor", "--config", str(tiny_config),
                     "--set", "tau_d=32", "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    data = json.loads(dumped)
    assert data["tau_d"] == 32 and data["num_ue"] == 5
    # feeding the dump back reproduces the same effective config
    path = tmp_path / "dumped.json"
    path.write_text(dumped)
    assert cli.main(["floor", "--config", str(path), "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out) == data


def test_a_config_file_round_trips_through_dump_config(tmp_path, capsys):
    # file -> --dump-config -> file: the dump holds the file's keys over the
    # defaults, and feeding it back dumps the same bytes
    raw = {"num_ue": 4, "num_sbs": 3, "tau_t": 6, "trials": 9, "modulation": "qam4"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["floor", "--dump-config"]) == 0
    defaults = json.loads(capsys.readouterr().out)
    assert cli.main(["floor", "--config", str(path), "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert json.loads(dumped) == {**defaults, **raw}
    path.write_text(dumped)
    assert cli.main(["floor", "--config", str(path), "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped


def test_a_set_replaces_a_file_key_of_each_kind(tmp_path, capsys):
    # a SystemConfig field, a count and a method list
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**json.loads(TINY), "estimators": ["ls"]}))
    assert cli.main(["floor", "--config", str(path), "--set", "tau_d=32", "--set", "trials=7",
                     "--set", 'estimators=["mmse", "da"]', "--dump-config"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["tau_d"], data["trials"], data["estimators"]) == (32, 7, ["mmse", "da"])
    assert (data["num_ue"], data["topologies"]) == (5, 2)


# valid only with tau_t >= 40, where the default is 30
NEEDS_TAU_T = {"num_ue": 40, "num_sbs": 4, "mbs_antennas": 64, "trials": 1, "topologies": 1}


def test_a_set_completes_a_file_that_is_invalid_alone(tmp_path, capsys):
    # the file was once checked before the --set applied, and failed with
    # "tau_t=30 < num_ue=40"
    path = tmp_path / "f.json"
    path.write_text(json.dumps(NEEDS_TAU_T))
    sweep = ["--sweep", "p_train_dbm=3:3:1"]
    merged, flags = tmp_path / "merged.csv", tmp_path / "flags.csv"
    assert cli.main(["nmse-sweep", "--config", str(path), "--set", "tau_t=40", *sweep,
                     "--out", str(merged)]) == 0
    sets = [arg for key, value in {**NEEDS_TAU_T, "tau_t": 40}.items()
            for arg in ("--set", f"{key}={value}")]
    assert cli.main(["nmse-sweep", *sets, *sweep, "--out", str(flags)]) == 0
    assert merged.read_bytes() == flags.read_bytes()


@pytest.mark.parametrize("tau_t", [None, 35])
def test_a_bad_effective_value_is_a_config_error_that_names_it(tmp_path, capsys, tau_t):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(NEEDS_TAU_T))
    out = tmp_path / "never.csv"
    argv = ["nmse-sweep", "--config", str(path), "--sweep", "p_train_dbm=3:3:1",
            "--out", str(out)]
    if tau_t is not None:
        argv += ["--set", f"tau_t={tau_t}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert (f"config error: pilot orthogonality needs tau_t >= num_ue, got "
            f"tau_t={tau_t or 30} < num_ue=40" in err and "Traceback" not in err)
    assert not out.exists()


def test_nmse_sweep_grid_and_rows(tiny_config, tmp_path, capsys):
    out = tmp_path / "nmse.csv"
    code = cli.main([
        "nmse-sweep", "--config", str(tiny_config),
        "--sweep", "p_train_dbm=-7:23:2", "--seed", "42", "--out", str(out),
    ])
    assert code == 0
    table = read_csv(out)
    values = sorted({r.sweep_value for r in table.rows})
    assert len(values) == 16 and values[0] == -7.0 and values[-1] == 23.0
    assert {r.method for r in table.rows} == {"ls", "mmse", "da"}


def test_cli_runs_are_byte_identical(tiny_config, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert cli.main([
            "ber-sweep", "--config", str(tiny_config),
            "--sweep", "p_train_dbm=3:8:5", "--seed", "9", "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_qam16_ber_sweep_omits_analytic_rows(tiny_config, tmp_path):
    out = tmp_path / "qam.csv"
    assert cli.main([
        "ber-sweep", "--config", str(tiny_config), "--set", "modulation=qam16",
        "--sweep", "p_train_dbm=3:8:5", "--seed", "9", "--out", str(out),
    ]) == 0
    methods = {r.method for r in read_csv(out).rows}
    assert "mmse" in methods and "mmse-analytic" not in methods


def test_floor_command_reports_limits(tiny_config, capsys):
    assert cli.main(["floor", "--config", str(tiny_config),
                     "--set", "p_train_dbm=-7", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "saturation limit" in out


@pytest.mark.parametrize("modulation", ["qam4", "qam16", "qam99", "BPSK"])
def test_floor_rejects_a_modulation_other_than_bpsk(tiny_config, capsys, modulation):
    # these once printed the BPSK floor and exited 0
    assert cli.main(["floor", "--config", str(tiny_config),
                     "--set", f"modulation={modulation}"]) == 2
    captured = capsys.readouterr()
    assert (f"config error: the closed-form BER covers BPSK only, got modulation='{modulation}'"
            in captured.err and "Traceback" not in captured.err)
    assert "saturation limit" not in captured.out


@pytest.mark.parametrize("source", ["zero_error", "empirical", "bogus", "ANALYTIC"])
def test_floor_rejects_a_ber_source_other_than_analytic(tiny_config, capsys, source):
    # these once printed Prop. 1's floor and exited 0
    assert cli.main(["floor", "--config", str(tiny_config),
                     "--set", f"ber_source={source}"]) == 2
    captured = capsys.readouterr()
    assert (f"config error: the floor uses Prop. 1's analytic BER, got ber_source='{source}'"
            in captured.err and "Traceback" not in captured.err)
    assert "saturation limit" not in captured.out


@pytest.mark.parametrize("count", ["0", "2"])
def test_floor_takes_no_threads_option(tiny_config, capsys, count):
    # the floor runs no pool; it once took any --threads, 0 included, and exited 0
    assert cli.main(["floor", "--config", str(tiny_config), "--threads", count]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --threads" in captured.err
    assert "Traceback" not in captured.err and "saturation limit" not in captured.out


def test_floor_takes_a_shared_config_with_sweep_keys(tiny_config, capsys):
    # TINY holds trials and topologies; BPSK and the analytic BER named
    # outright are the defaults, and the detectors are not read
    assert cli.main(["floor", "--config", str(tiny_config), "--set", "modulation=bpsk",
                     "--set", "ber_source=analytic", "--set", 'detectors=["mrc"]',
                     "--set", "p_train_dbm=-7", "--seed", "3"]) == 0
    assert "saturation limit" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [["--config", "cfg"], ["--set", "tau_d=32"], ["--dump-config"]])
def test_validate_rejects_config_options(tiny_config, monkeypatch, capsys, extra):
    # validate runs fixed checks; these options were once parsed and ignored
    from hetnetsim import validation
    calls = []
    monkeypatch.setattr(validation, "run_validation", lambda **kw: calls.append(kw))
    extra = [str(tiny_config) if arg == "cfg" else arg for arg in extra]
    assert cli.main(["validate", *extra]) == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {extra[0]}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and calls == []


def test_env_var_thread_fallback(tiny_config, tmp_path, monkeypatch):
    # HETNET_THREADS was once read when --threads was absent; it no longer is
    monkeypatch.setenv("HETNET_THREADS", "two")
    out1 = tmp_path / "env.csv"
    assert cli.main([
        "nmse-sweep", "--config", str(tiny_config),
        "--sweep", "p_train_dbm=3:8:5", "--seed", "5", "--out", str(out1),
    ]) == 0
    monkeypatch.delenv("HETNET_THREADS")
    out2 = tmp_path / "noenv.csv"
    assert cli.main([
        "nmse-sweep", "--config", str(tiny_config),
        "--sweep", "p_train_dbm=3:8:5", "--seed", "5", "--out", str(out2),
    ]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("count", ["0", "-2", "1.5", "two", "²"])
def test_bad_thread_count_is_a_usage_error(tiny_config, tmp_path, capsys, count):
    out = tmp_path / "never.csv"
    assert cli.main(["ber-sweep", "--config", str(tiny_config), "--sweep",
                     "p_data_dbm=3:8:5", "--out", str(out), "--threads", count]) == 2
    err = capsys.readouterr().err
    assert f"--threads: takes a whole number >= 1, got {count!r}" in err
    assert "Traceback" not in err
    assert not out.exists()
