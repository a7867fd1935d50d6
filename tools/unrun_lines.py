#!/usr/bin/env python3
"""Lines of the library that no tier-1 test runs: report only.

Runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace`` and prints, per module of ``src/hetnetsim``, each
executable line that no test ran.  The executable lines are those the
compiled code objects map instructions to (``co_lines``).  A line reached
only in a subprocess (a test that runs Python or ``hetnetsim`` as a child
process) or in a forked pool worker is not seen, so it is listed as unrun.
The script exits with pytest's exit code: non-zero only when pytest fails.

    PYTHONPATH=src python3 tools/unrun_lines.py --out unrun-lines.txt
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hetnetsim"
NOT_SEEN = ("Lines reached only in a subprocess (a test that runs Python or hetnetsim as a\n"
            "child process) or in a forked pool worker are not seen, so they are listed.")


def executable_lines(path: Path) -> set[int]:
    """Every line that the compiled code objects of ``path`` map an instruction to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def collect(package_dir, run):
    """Call ``run()`` under the line tracer and return its result with, per
    module of ``package_dir`` (named relative to it), the sorted executable
    lines that did not run."""
    package_dir = Path(package_dir).resolve()
    executable = {str(p): executable_lines(p) for p in sorted(package_dir.rglob("*.py"))}
    ran = {name: set() for name in executable}
    owner = {}                         # co_filename -> the ran set of its module, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            owner[name] = ran.get(os.path.realpath(name))
        lines = owner[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local(frame, event, arg)

    previous = sys.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous)
    return result, {str(Path(name).relative_to(package_dir)): sorted(lines - ran[name])
                    for name, lines in executable.items()}


def report(package_dir, unrun: dict) -> str:
    package_dir = Path(package_dir).resolve()
    out = [f"Executable lines of {package_dir.name} that no test ran in this process.", NOT_SEEN]
    for name, lines in unrun.items():
        if lines:
            source = (package_dir / name).read_text().splitlines()
            out.append(f"\n{name}: {len(lines)} unrun")
            out.extend(f"  {n}: {source[n - 1].strip()}" for n in lines)
    total = sum(len(lines) for lines in unrun.values())
    out.append(f"\n{total} unrun lines in {len(unrun)} modules")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="also write the report to this file")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(PACKAGE.parent))     # trace this checkout's package
    code, unrun = collect(PACKAGE, lambda: pytest.main(
        ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]))
    text = report(PACKAGE, unrun)
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
