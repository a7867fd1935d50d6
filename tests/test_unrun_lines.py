"""tools/unrun_lines.py: the collector finds exactly the lines a run skips.

A two-branch module in ``tmp_path`` stands in for the package, and a
callable that takes one branch stands in for the test suite.
"""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "unrun_lines.py"

BRANCHES = '''\
def pick(flag):
    if flag:
        side = "left"
    else:
        side = "right"
        side += "!"
    return side
'''


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_collector_finds_the_branch_not_taken(tmp_path):
    unrun_lines = _load("unrun_lines", SCRIPT)
    path = tmp_path / "branches.py"
    path.write_text(BRANCHES)
    tracer = sys.gettrace()
    result, unrun = unrun_lines.collect(tmp_path, lambda: _load("branches", path).pick(True))
    assert result == "left"
    assert unrun == {"branches.py": [5, 6]}
    assert sys.gettrace() is tracer
    text = unrun_lines.report(tmp_path, unrun)
    assert '  5: side = "right"\n  6: side += "!"\n' in text
    assert "subprocess" in text and "forked pool worker" in text
