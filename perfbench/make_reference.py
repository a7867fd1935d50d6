#!/usr/bin/env python3
"""Regenerate the reference CSVs the benchmark checks every run against.

    python3 perfbench/make_reference.py [workload ...]

Each workload runs at the reference seed with threads=1 and is written to
reference/<workload>.csv.  Only regenerate on a commit whose output is
trusted; a later change must match the committed files.
"""

import sys

from run import REFERENCE_DIR, _import_library, _pin_environment


def main(names) -> int:
    _pin_environment()
    hetnetsim = _import_library()
    from workloads import REFERENCE_SEED, WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        table = hetnetsim.run_sweep(WORKLOADS[name].spec(REFERENCE_SEED), threads=1)
        hetnetsim.write_csv(table, REFERENCE_DIR / f"{name}.csv")
        print(f"wrote {REFERENCE_DIR / f'{name}.csv'} ({len(table.rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
