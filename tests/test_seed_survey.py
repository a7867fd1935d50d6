"""tools/seed_survey.py: what it records per check, and when it exits 2.

A stub stands in for ``validation.run_validation``, so the survey runs in
milliseconds over three seeds.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from hetnetsim import validation
from hetnetsim.validation import ALL_CHECK_NAMES, CheckResult, ValidationReport

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "seed_survey.py"


@pytest.fixture
def survey(monkeypatch):
    spec = importlib.util.spec_from_file_location("seed_survey", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SEEDS", range(1, 4))
    return module


def _report(seed, names=ALL_CHECK_NAMES):
    """Every check in ``names`` passes, except the first one at seed 2."""
    return ValidationReport(checks=tuple(
        CheckResult(name, not (i == 0 and seed == 2), f"read {seed}", f"bound {i}")
        for i, name in enumerate(names)))


def test_complete_runs_record_each_checks_passes_failures_and_values(survey, monkeypatch,
                                                                      tmp_path):
    monkeypatch.setattr(validation, "run_validation", lambda seed, threads: _report(seed))
    out = tmp_path / "survey.json"
    assert survey.main(["--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["seeds"] == [1, 2, 3]
    assert list(result["checks"]) == list(ALL_CHECK_NAMES)
    measured = {"1": "read 1", "2": "read 2", "3": "read 3"}
    assert result["checks"][ALL_CHECK_NAMES[0]] == {
        "bound": "bound 0", "passed": 2, "failed_at": [2], "measured": measured}
    assert result["checks"][ALL_CHECK_NAMES[-1]] == {
        "bound": f"bound {len(ALL_CHECK_NAMES) - 1}", "passed": 3, "failed_at": [],
        "measured": measured}
    assert all(run["complete"] and not run["error"] for run in result["runs"].values())


def _raises_at_seed_2(seed, threads):
    if seed == 2:
        raise RuntimeError("solver blew up")
    return _report(seed)


def _drops_a_check_at_seed_3(seed, threads):
    return _report(seed, ALL_CHECK_NAMES[:-1] if seed == 3 else ALL_CHECK_NAMES)


@pytest.mark.parametrize("run_validation,broken,error", [
    (_raises_at_seed_2, "2", "solver blew up"),
    (_drops_a_check_at_seed_3, "3", ""),
])
def test_a_run_that_raises_or_reports_other_checks_exits_2_and_still_writes(
        survey, monkeypatch, tmp_path, run_validation, broken, error):
    monkeypatch.setattr(validation, "run_validation", run_validation)
    out = tmp_path / "survey.json"
    assert survey.main(["--out", str(out)]) == 2
    runs = json.loads(out.read_text())["runs"]
    assert list(runs) == ["1", "2", "3"]
    assert [seed for seed, run in runs.items() if not run["complete"]] == [broken]
    assert error in runs[broken]["error"]
