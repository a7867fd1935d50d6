#!/usr/bin/env python3
"""Seed survey of the release checks: report only, no pass/fail.

Runs the ``hetnetsim validate --seed S --threads 2`` suite for seeds 1-20
and writes, for each check, the number of seeds it passed at and the value it
measured at each seed, as JSON.  A seed at which a check fails is recorded,
not acted on: the survey exits 0 whenever every run reports every check.  A
run that crashes or reports a different set of checks makes it exit 2.

    PYTHONPATH=src python3 tools/seed_survey.py --out BENCH_seed_survey.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback

import numpy
import scipy

from hetnetsim import validation

SEEDS = range(1, 21)
THREADS = 2


def run_seed(seed: int) -> dict:
    """One validate run: its wall time, its check results, and whether it completed."""
    start = time.perf_counter()
    try:
        checks = validation.run_validation(seed, THREADS).checks
        error = ""
    except Exception:
        checks, error = (), traceback.format_exc()[-2000:]
    complete = tuple(c.name for c in checks) == validation.ALL_CHECK_NAMES
    return {"complete": complete, "wall_s": round(time.perf_counter() - start, 1),
            "checks": checks, "error": error}


def survey() -> dict:
    runs, checks = {}, {}
    for seed in SEEDS:
        run = run_seed(seed)
        print(f"seed {seed}: {'complete' if run['complete'] else 'INCOMPLETE'}, "
              f"{run['wall_s']} s", file=sys.stderr)
        for check in run.pop("checks"):
            entry = checks.setdefault(check.name, {"bound": check.threshold, "passed": 0,
                                                   "failed_at": [], "measured": {}})
            entry["passed"] += check.passed
            if not check.passed:
                entry["failed_at"].append(seed)
            entry["measured"][str(seed)] = check.measured
        runs[str(seed)] = run
    return {
        "command": f"hetnetsim validate --seed S --threads {THREADS}",
        "seeds": list(SEEDS),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__,
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "checks": checks,
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_seed_survey.json", help="output JSON path")
    args = parser.parse_args(argv)
    result = survey()
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for name, entry in result["checks"].items():
        print(f"{name}: passed at {entry['passed']} of {len(SEEDS)} seeds"
              + (f", failed at {entry['failed_at']}" if entry["failed_at"] else ""))
    broken = [s for s, run in result["runs"].items() if not run["complete"]]
    if broken:
        print(f"validate did not complete at seeds {', '.join(broken)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
