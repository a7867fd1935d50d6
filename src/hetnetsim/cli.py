"""Command-line front end: the config-file format, sweeps, validation, and
the power-floor report.

Exit codes: 0 success, 1 validation failures, 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import errno
import json
import math
import os
import sys
from pathlib import Path

from . import data_aided, estimators
from .detectors import Modulation
from .experiments import (
    ExperimentSpec,
    Metric,
    analytic_ber_vector,
    run_sweep,
    sweep_topology,
    write_csv,
)
from .scenario import SystemConfig

_SWEEP_COMMANDS = {
    "nmse-sweep": Metric.NMSE,
    "ber-sweep": Metric.BER,
    "rate-sweep": Metric.RATE,
}


def _whole(minimum: int):
    """The argparse type of a count: a whole number >= ``minimum``."""
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"takes a whole number >= {minimum}, got {text!r}")
        return int(text)
    return parse


_OPTIONS = {
    "--config": dict(help="flat JSON config file"),
    "--set": dict(action="append", default=[], metavar="KEY=VALUE",
                  help="override a config key (repeatable)"),
    "--seed": dict(type=_whole(0), default=1, help="master seed (>= 0)"),
    "--threads": dict(type=_whole(1), default=1, help="worker processes (>= 1)"),
    "--dump-config": dict(action="store_true",
                          help="print the effective config as JSON and exit"),
    "--sweep": dict(required=True, metavar="NAME=MIN:MAX:STEP",
                    help="swept parameter and grid, in the field's unit"),
    "--out": dict(required=True, help="output CSV path"),
}


def _build_parser():
    """The top-level parser and each command's own parser, by name."""
    parser = argparse.ArgumentParser(
        prog="hetnetsim",
        description="Monte Carlo sweeps for data-aided channel estimation "
                    "in decoupled HetNets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        # each command takes exactly the options it reads
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])

    for name, metric in _SWEEP_COMMANDS.items():
        command(name, f"run a {metric.value} sweep to CSV", *_OPTIONS)
    command("validate", "run the desk-scale validation suite", "--seed", "--threads")
    command("floor", "print the data-power saturation limit",
            "--config", "--set", "--seed", "--dump-config")
    return parser, sub.choices


def _parse_override(item: str):
    if "=" not in item:
        raise ValueError(f"malformed override {item!r}, expected KEY=VALUE")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


# exact for grids whose texts span the float range with a few hundred digits
_GRID_DECIMALS = decimal.Context(prec=1000)


def _parse_sweep(text: str):
    if "=" not in text or text.count(":") != 2:
        raise ValueError(f"malformed sweep {text!r}, expected NAME=MIN:MAX:STEP")
    name, grid = text.split("=", 1)
    lo, hi, step = (float(x) for x in grid.split(":"))
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ValueError(f"bad sweep grid {grid!r}")
    if not math.isfinite((hi - lo) / step):
        raise ValueError(f"bad sweep grid {grid!r}: its point count is not finite")
    # count and points in decimal from the text, so each point is the float
    # nearest MIN + i*STEP exactly and a MAX on the grid is its last point
    with decimal.localcontext(_GRID_DECIMALS):
        lo, hi, step = (decimal.Decimal(x) for x in grid.split(":"))
        count = int((hi - lo) // step) + 1
        return name.strip(), tuple(float(lo + i * step) for i in range(count))


# config files are flat JSON objects whose keys mirror the dataclass fields
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
            if not isinstance(experiment[key], list):
                raise ValueError(f'{key} takes a JSON list such as ["mmse"], '
                                 f"got {json.dumps(experiment[key])}")
            experiment[key] = tuple(experiment[key])
    return system, experiment


def dump_config(cfg: SystemConfig, experiment: dict | None = None) -> str:
    """Round-trippable JSON view of the effective configuration (the enums
    are str enums, so they dump as their values)."""
    data = dataclasses.asdict(cfg) | (experiment or {})
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _effective_config(args):
    """The ``--config`` file's flat JSON object with every ``--set`` merged
    in, split and checked once, so an error names an effective value."""
    raw = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a flat JSON object")
    for item in args.set:
        key, value = _parse_override(item)
        raw[key] = value
    system, experiment = split_config(raw)
    return SystemConfig(**system), experiment


def _check_out(path: str) -> None:
    """Raise the OSError that writing a file at ``path`` would meet: a
    missing parent, a parent that is no directory, or a directory at
    ``path``.  Creates nothing."""
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not out.parent.is_dir():
        code = errno.ENOTDIR if out.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(out.parent))


# the experiment keys the floor reads, each with the one value it computes
_FLOOR_ONLY = (
    ("modulation", Modulation.BPSK, "the closed-form BER covers BPSK only"),
    ("ber_source", data_aided.BerSource.ANALYTIC_PROP1, "the floor uses Prop. 1's analytic BER"),
)


def _run_floor(cfg: SystemConfig, seed: int) -> int:
    topo, assoc = sweep_topology(cfg, seed)
    if not len(assoc.decoupled):
        print("no decoupled UEs in this topology; nothing to report")
        return 0
    (bers,), _ = analytic_ber_vector([cfg], topo, assoc)
    floor = data_aided.da_power_floor(cfg.tau_d, bers, topo.beta_mbs)
    print(f"data-power saturation limit of the DA SNR-like increment "
          f"(tau_d={cfg.tau_d}, P_T={cfg.p_train_dbm:g} dBm):")
    if math.isinf(floor[0]):
        print("  BER = 0 everywhere, no floor (increment unbounded)")
        return 0
    rho = estimators.pilot_snr(cfg.p_train_mw, cfg.tau_t, cfg.noise_power_mw) + floor
    nmse_floor = estimators.analytic_nmse(estimators.EstMethod.DATA_AIDED, rho, topo.beta_mbs)
    for k in assoc.decoupled:
        print(f"  ue {k:3d}: BER = {bers[k]:.3e}, increment floor = {floor[k]:.6g}, "
              f"NMSE floor = {nmse_floor[k]:.2f} dB")
    return 0


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:       # under the usage line of the command that was given
            commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    if args.command == "validate":
        from . import validation

        report = validation.run_validation(master_seed=args.seed, threads=args.threads)
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1

    try:
        cfg, experiment = _effective_config(args)
    except (ValueError, TypeError, OSError) as exc:    # a JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.dump_config:
        sys.stdout.write(dump_config(cfg, experiment))
        return 0

    floor = args.command == "floor"
    if floor:
        for key, only, why in _FLOOR_ONLY:
            if experiment.get(key, only) != only:
                print(f"config error: {why}, got {key}={experiment[key]!r}", file=sys.stderr)
                return 2
    try:
        # the floor is one NMSE point at the configured data power, and its
        # keys pass the same checks as every sweep's
        name, values = ("p_data_dbm", (cfg.p_data_dbm,)) if floor else _parse_sweep(args.sweep)
        spec = ExperimentSpec(
            base=cfg,
            sweep_param=name,
            sweep_values=values,
            metric=_SWEEP_COMMANDS.get(args.command, Metric.NMSE),
            master_seed=args.seed,
            **experiment,
        )
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if floor:
        return _run_floor(cfg, args.seed)
    try:
        _check_out(args.out)    # before the sweep, not after hours of it
        table = run_sweep(spec, threads=args.threads)
        write_csv(table, args.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(table.rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
