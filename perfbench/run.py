#!/usr/bin/env python3
"""Sweep benchmark for hetnetsim at the paper's full scale.

Run from the repository root:

    python3 perfbench/run.py --workload nmse_full --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` measures the per-layer split with spans around each library
layer (see tracing.py).  Both modes first run the workload at the reference
seed and compare its CSV with reference/<workload>.csv.  The last line of
standard output is one JSON object; the full record, with the environment,
goes to out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

# Worker processes x BLAS threads must stay within the core count; the pool
# is the harness's parallelism, so BLAS runs single-threaded everywhere.
BLAS_THREADS = 1
# mean and stderr may differ from the reference by this share of the row's
# mean magnitude, room for BLAS round-off; every other column must match
REL_TOL = 1e-6
SETUP_PROBES = 5
MIN_SWEEPS = 3

# Runs in a fresh interpreter; prints the clock when run_sweep would be entered.
_SETUP_PROBE = """
import sys, time
import numpy, scipy, hetnetsim
sys.path.insert(0, {here!r})
from workloads import WORKLOADS
spec = WORKLOADS[{name!r}].spec({seed})
print(time.perf_counter())
"""


def _pin_environment():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))


def _import_library():
    if not (SRC / "hetnetsim" / "__init__.py").is_file():
        sys.exit(f"no library source at {SRC / 'hetnetsim'}; run from a checkout")
    import hetnetsim

    if Path(hetnetsim.__file__).resolve().parent != (SRC / "hetnetsim").resolve():
        sys.exit(f"imported hetnetsim from {hetnetsim.__file__}, not from {SRC}")
    return hetnetsim


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not runnable)"
    return out.stdout.strip() or "unknown"


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "master_seed": seed,
        "workload": workload.name,
        "threads": workload.threads,
    }


def _stats(values) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4)
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


class Run:
    """Sweeps attempted and failed in one benchmark run, with their reasons."""

    def __init__(self, hetnetsim, workload, seed: int):
        from workloads import trial_count

        self.hs = hetnetsim
        self.workload = workload
        self.spec = workload.spec(seed)
        self.trials = trial_count(self.spec)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message: str):
        self.problems.append(message)
        print(f"FAIL: {message}", file=sys.stderr)

    def sweep(self, spec, threads: int, tracer=None):
        """One timed sweep: (table, wall seconds, CPU seconds), or None if it raised."""
        self.attempted += 1
        run_sweep = self.hs.run_sweep
        before = _cpu_seconds()
        start = time.perf_counter()
        try:
            if tracer is None:
                table = run_sweep(spec, threads=threads)
            else:
                table = tracer.call("experiments.run_sweep", run_sweep, spec, threads=threads)
        except Exception:
            self.failed += 1
            self.fail(f"sweep raised:\n{traceback.format_exc()}")
            return None
        wall = time.perf_counter() - start
        return table, wall, _cpu_seconds() - before

    def check(self, ok: bool, message: str):
        """Count the last sweep as failed when ``ok`` is false."""
        if not ok:
            self.failed += 1
            self.fail(message)

    def check_reference(self):
        """Run the workload at the reference seed (also the warm-up) and
        compare its CSV with the committed one."""
        from workloads import REFERENCE_SEED

        spec = self.workload.spec(REFERENCE_SEED)
        done = self.sweep(spec, self.workload.threads)
        if done is None:
            return
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{self.workload.name}.reference.csv"
        self.hs.write_csv(done[0], path)
        problems = compare_csv(self.hs.experiments.read_csv(path),
                               self.hs.experiments.read_csv(
                                   REFERENCE_DIR / f"{self.workload.name}.csv"))
        self.check(not problems, "reference CSV mismatch: " + "; ".join(problems[:5]))

    def check_table(self, table, first, what: str):
        """Every measured sweep must be finite and equal the run's first one."""
        if first is None:
            finite = all(math.isfinite(r.mean) and math.isfinite(r.stderr)
                         for r in table.rows)
            self.check(bool(table.rows) and finite, f"{what}: empty or non-finite rows")
        else:
            self.check(table.rows == first.rows, f"{what}: table differs from the first sweep")


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def compare_csv(rows, reference) -> list:
    got = sorted(rows.rows, key=lambda r: (r.sweep_value, r.method, r.ue_class))
    want = sorted(reference.rows, key=lambda r: (r.sweep_value, r.method, r.ue_class))
    if len(got) != len(want):
        return [f"{len(got)} rows, reference has {len(want)}"]
    problems = []
    for g, w in zip(got, want):
        key = (g.sweep_param, g.sweep_value, g.method, g.ue_class, g.metric, g.n)
        if key != (w.sweep_param, w.sweep_value, w.method, w.ue_class, w.metric, w.n):
            problems.append(f"row {key} != reference {w}")
            continue
        scale = REL_TOL * max(abs(g.mean), abs(w.mean))
        for col in ("mean", "stderr"):
            if abs(getattr(g, col) - getattr(w, col)) > scale:
                problems.append(f"{col} of {key}: {getattr(g, col)!r} vs {getattr(w, col)!r}")
    return problems


def measure_setup(workload, seed: int) -> list:
    code = _SETUP_PROBE.format(here=str(HERE), name=workload.name, seed=seed)
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]) - start)
    return times


def end_to_end(run: Run, seconds: float) -> dict:
    setup = measure_setup(run.workload, run.spec.master_seed)
    run.check_reference()
    rates, cpu = [], []
    first = None
    wall = 0.0
    start = time.perf_counter()
    # stop before a sweep that would end past the deadline
    while len(rates) < MIN_SWEEPS or time.perf_counter() - start + wall <= seconds:
        done = run.sweep(run.spec, run.workload.threads)
        if done is None:
            break
        table, wall, cpu_s = done
        run.check_table(table, first, "measured sweep")
        first = first or table
        rates.append(run.trials / wall)
        cpu.append(1000.0 * cpu_s / run.trials)
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    detail = {
        "trials_per_s": ("trials/s", rates),
        "cpu_s_per_ktrial": ("s", cpu),
        "setup_s": ("s", setup),
        "peak_rss_mb": ("MB", [rss_kb / 1024.0]),
    }
    return {name: {"unit": unit, **_stats(v)} for name, (unit, v) in detail.items() if v}


def per_layer(run: Run, seconds: float) -> dict:
    from tracing import Tracer

    run.check_reference()
    serial, pooled, traced = [], [], []
    summaries = []
    first = None
    round_s = 0.0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        done = run.sweep(run.spec, 1)
        if done is None:
            break
        run.check_table(done[0], first, "threads=1 sweep")
        first = first or done[0]
        serial.append(run.trials / done[1])

        done = run.sweep(run.spec, 2)
        if done is None:
            break
        run.check_table(done[0], first, "threads=2 sweep")
        pooled.append(run.trials / done[1])

        with Tracer() as tracer:
            done = run.sweep(run.spec, 1, tracer)
        if done is None:
            break
        run.check_table(done[0], first, "traced sweep")
        traced.append(run.trials / done[1])
        summaries.append(tracer.summary())
        round_s = time.perf_counter() - round_start

    if not summaries:
        return {}
    last = summaries[-1]
    if last["missing"]:
        print(f"span targets not found, metrics absent: {', '.join(last['missing'])}")
    for layer in run.workload.bypassed:
        if last["layer_calls"][layer]:
            run.fail(f"{run.workload.name} must bypass {layer}, "
                     f"but it made {last['layer_calls'][layer]} calls")
    if any(s["calls"] != last["calls"] for s in summaries):
        run.fail("call counts differ between traced sweeps of the same spec")
    metrics = layer_metrics(summaries)
    metrics["experiments.parallel_efficiency"] = (
        "ratio", statistics.median(pooled) / (2.0 * statistics.median(serial)))
    metrics["trace_overhead"] = (
        "ratio", statistics.median(traced) / statistics.median(serial))
    return {name: {"unit": unit, "median": value} for name, (unit, value) in metrics.items()}


# (metric, span, statistic): per-sweep values of single span names
_SPAN_METRICS = (
    ("phy.observe.calls", "phy.observe", "calls"),
    ("phy.observe.self_ms", "phy.observe", "self_ms"),
    ("phy.draw_channels.self_ms", "phy.draw_channels", "self_ms"),
    ("detectors.build_combiner.calls", "detectors.build_combiner", "calls"),
    ("detectors.build_combiner.self_ms", "detectors.build_combiner", "self_ms"),
    ("detectors.detect_all.self_ms", "detectors.detect_all", "self_ms"),
    ("detectors.detect.calls", "detectors.detect", "calls"),
    ("detectors.detect.self_ms", "detectors.detect", "self_ms"),
    ("ber_analytic.analytic_ber_vector.calls", "ber_analytic.analytic_ber_vector", "calls"),
    ("ber_analytic.gamma_model.calls", "ber_analytic.gamma_model_for_ue", "calls"),
    ("data_aided.da_estimate_matrix.calls", "data_aided.da_estimate_matrix", "calls"),
    ("downlink.zf_precode.calls", "downlink.zf_precode", "calls"),
    ("downlink.zf_precode.self_ms", "downlink.zf_precode", "self_ms"),
    ("downlink.dl_rate.calls", "downlink.dl_rate", "calls"),
    ("downlink.dl_rate.self_ms", "downlink.dl_rate", "self_ms"),
    ("experiments.run_sweep.self_ms", "experiments.run_sweep", "self_ms"),
)
_LAYER_CALLS = ("scenario", "estimators")


def layer_metrics(summaries) -> dict:
    """Per-sweep counts, and median self milliseconds over the traced sweeps."""
    from tracing import LAYERS

    last = summaries[-1]

    def per_sweep(stat, name):
        if stat.endswith("calls"):     # counts repeat exactly, checked by the caller
            return last[stat].get(name, 0)
        return statistics.median(s[stat].get(name, 0.0) for s in summaries)

    missing = set(last["missing"])
    out = {}
    for layer in LAYERS:
        if layer == "experiments":   # its only span is run_sweep, reported below
            continue
        out[f"{layer}.self_ms"] = ("ms", per_sweep("layer_self_ms", layer))
    for layer in _LAYER_CALLS:
        out[f"{layer}.calls"] = ("count", per_sweep("layer_calls", layer))
    for metric, span, stat in _SPAN_METRICS:
        if span not in missing:
            out[metric] = ("count" if stat == "calls" else "ms", per_sweep(stat, span))
    builds = out.get("detectors.build_combiner.calls", ("count", 0))[1]
    if builds:
        out["detectors.build_combiner.unique_ratio"] = (
            "ratio", last["unique_combiners"] / builds)
    if not missing & {"phy.draw_channels", "phy.observe"}:
        out["phy.draw_mb"] = ("MB", last["draw_bytes"] / 1e6)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_environment()
    hetnetsim = _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run = Run(hetnetsim, workload, args.seed)
    env = environment(workload, args.seed)

    if args.trace:
        metrics = per_layer(run, args.seconds)
    else:
        metrics = end_to_end(run, args.seconds)
    failed_frac = run.failed / max(run.attempted, 1)

    for key, value in env.items():
        print(f"env {key}: {value}")
    print(f"workload {workload.name}: {workload.why}")
    print(f"trials per sweep: {run.trials}; reference tolerance: rel {REL_TOL:g} of |mean|")
    for name, m in metrics.items():
        spread = f"  (q1 {m['q1']:.4g}, q3 {m['q3']:.4g}, n={m['n']})" if "n" in m else ""
        print(f"{name:42s} {m['median']:.6g} {m['unit']}{spread}")
    print(f"{'failed_frac':42s} {failed_frac:.6g} ratio  ({run.failed} of {run.attempted} sweeps)")
    if args.trace:
        _print_shares(metrics)

    OUT_DIR.mkdir(exist_ok=True)
    record = {"environment": env, "metrics": metrics, "failed_frac": failed_frac,
              "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
              "reference_rel_tol": REL_TOL}
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    result = {
        "correct": run.failed == 0 and not run.problems and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _print_shares(metrics):
    from tracing import LAYERS

    self_ms = {layer: metrics[f"{layer}.self_ms"]["median"]
               for layer in LAYERS if layer != "experiments"}
    self_ms["experiments"] = metrics["experiments.run_sweep.self_ms"]["median"]
    total = sum(self_ms.values()) or 1.0
    print("self-time share per layer (traced sweep):")
    for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:14s} {100.0 * ms / total:5.1f}%  {ms:10.1f} ms")


if __name__ == "__main__":
    sys.exit(main())
