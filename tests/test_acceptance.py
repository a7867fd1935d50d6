"""Release gate: every acceptance criterion at its frozen tolerance.

One test per entry of hetnetsim.validation's roster, with the entry's first
check name as its id, so the suite covers the roster by construction.  Each
prints a PASS/FAIL line with the measured value per check before asserting.
Run with ``pytest tests/test_acceptance.py -s`` to see all lines, add
``-k <check-name>`` to run one entry, or use the CLI ``hetnetsim validate``
for the same suite outside pytest.
"""

import numpy as np
import pytest

from hetnetsim import validation

SEED = 1


@pytest.mark.parametrize("check", validation.roster(SEED), ids=lambda check: check.names[0])
def test_release_check(check):
    results = check.results()
    for result in results:
        print(result.line())
        # a numpy bool would break the JSON report
        assert type(result.passed) is bool, result.name
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)


def test_validation_report_is_complete():
    # the release gate reports at least 12 uniquely named checks
    assert len(validation.ALL_CHECK_NAMES) >= 12
    assert len(set(validation.ALL_CHECK_NAMES)) == len(validation.ALL_CHECK_NAMES)


def test_run_validation_reports_the_roster_in_order(monkeypatch):
    calls = []

    def cheap_roster(master_seed, threads):
        calls.append((master_seed, threads))
        return (
            validation.Check(("first",), lambda: [(np.True_, "1.0", "<= 2")]),
            validation.Check(("second", "third"),
                             lambda: [(False, "3.0", "<= 2"), (True, "0.5", "< 1")]),
        )

    monkeypatch.setattr(validation, "roster", cheap_roster)
    report = validation.run_validation(master_seed=7, threads=2)
    assert calls == [(7, 2)]
    assert [c.name for c in report.checks] == ["first", "second", "third"]
    assert all(type(c.passed) is bool for c in report.checks)
    assert not report.passed
    assert report.lines() == [
        "[PASS] first: 1.0 (bound: <= 2)",
        "[FAIL] second: 3.0 (bound: <= 2)",
        "[PASS] third: 0.5 (bound: < 1)",
        "3 checks, 2 passed, 1 failed",
    ]


@pytest.mark.parametrize("count", [1, 3])
def test_an_entry_with_the_wrong_outcome_count_raises(monkeypatch, count):
    # an entry names two checks; one outcome too few or too many must not
    # shift the names of the checks that follow it
    entry = validation.Check(("a", "b"), lambda: [(True, "x", "y")] * count)
    monkeypatch.setattr(validation, "roster", lambda master_seed, threads: (entry,))
    with pytest.raises(ValueError):
        validation.run_validation()
