"""Command-line front end: sweeps, validation, and the power-floor report.

Exit codes: 0 success, 1 validation failures, 2 usage or config errors.
"""

from __future__ import annotations

import argparse
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
    dump_config,
    load_config,
    run_sweep,
    split_config,
    sweep_topology,
    write_csv,
)
from .scenario import SystemConfig

_SWEEP_COMMANDS = {
    "nmse-sweep": Metric.NMSE,
    "ber-sweep": Metric.BER,
    "rate-sweep": Metric.RATE,
}


def _seed(text: str) -> int:
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"takes a whole number >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetnetsim",
        description="Monte Carlo sweeps for data-aided channel estimation "
                    "in decoupled HetNets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_sweep=False, needs_out=False, pooled=True):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=_seed, default=1, help="master seed (>= 0)")
        if pooled:
            p.add_argument("--threads", type=int, default=None,
                           help="worker processes (default: HETNET_THREADS or 1)")
        p.add_argument("--dump-config", action="store_true",
                       help="print the effective config as JSON and exit")
        if needs_sweep:
            p.add_argument("--sweep", required=True, metavar="NAME=MIN:MAX:STEP",
                           help="swept parameter and grid, in the field's unit")
            p.add_argument("--out", required=needs_out, help="output CSV path")

    for name, metric in _SWEEP_COMMANDS.items():
        p = sub.add_parser(name, help=f"run a {metric.value} sweep to CSV")
        common(p, needs_sweep=True, needs_out=True)
    common(sub.add_parser("validate", help="run the desk-scale validation suite"))
    # the floor runs no pool, so it takes no --threads
    common(sub.add_parser("floor", help="print the data-power saturation limit"), pooled=False)
    return parser


def _parse_override(item: str):
    if "=" not in item:
        raise ValueError(f"malformed override {item!r}, expected KEY=VALUE")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _parse_sweep(text: str):
    if "=" not in text or text.count(":") != 2:
        raise ValueError(f"malformed sweep {text!r}, expected NAME=MIN:MAX:STEP")
    name, grid = text.split("=", 1)
    lo, hi, step = (float(x) for x in grid.split(":"))
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ValueError(f"bad sweep grid {grid!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return name.strip(), tuple(lo + i * step for i in range(count))


def _effective_config(args):
    raw = {}
    if args.config:
        base, experiment = load_config(args.config)
        raw.update(json.loads(dump_config(base, experiment)))
    for item in args.set:
        key, value = _parse_override(item)
        raw[key] = value
    system, experiment = split_config(raw)
    return SystemConfig(**system), experiment


def _threads(args) -> int:
    """Worker processes: ``--threads``, else ``HETNET_THREADS``, else 1."""
    count, source = args.threads, "--threads"
    if count is None:
        env, source = os.environ.get("HETNET_THREADS"), "HETNET_THREADS"
        if not env:
            return 1
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"{source} takes a whole number >= 1, got {env!r}") from None
    if count < 1:
        raise ValueError(f"{source} takes a whole number >= 1, got {count}")
    return count


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


def parse_and_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command == "validate" and (args.config or args.set or args.dump_config):
        print("usage error: validate runs fixed desk-scale checks; it takes no "
              "--config, --set or --dump-config", file=sys.stderr)
        return 2

    try:
        cfg, experiment = _effective_config(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.dump_config:
        sys.stdout.write(dump_config(cfg, experiment))
        return 0

    if args.command == "floor":
        for key, only, why in _FLOOR_ONLY:
            if experiment.get(key, only) != only:
                print(f"config error: {why}, got {key}={experiment[key]!r}", file=sys.stderr)
                return 2
        return _run_floor(cfg, args.seed)

    try:
        threads = _threads(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        from . import validation

        report = validation.run_validation(master_seed=args.seed, threads=threads)
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1

    metric = _SWEEP_COMMANDS[args.command]
    try:
        name, values = _parse_sweep(args.sweep)
        spec = ExperimentSpec(
            base=cfg,
            sweep_param=name,
            sweep_values=values,
            metric=metric,
            master_seed=args.seed,
            **experiment,
        )
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _check_out(args.out)    # before the sweep, not after hours of it
        table = run_sweep(spec, threads=threads)
        write_csv(table, args.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(table.rows)} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
