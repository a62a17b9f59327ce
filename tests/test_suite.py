"""The check registry: every name runs, and checks are looked up at call time."""

import pytest

import morphic.checks as checks
from morphic.complexity import FactorScanner
from morphic.reports import VerifyReport
from morphic.suite import ALL_CHECK_NAMES, SuiteContext, run_check


@pytest.fixture(scope="module")
def context():
    return SuiteContext()


@pytest.mark.parametrize("name", ALL_CHECK_NAMES)
def test_every_registered_check_runs(name, context):
    n_max = None if name == "tech-lemma" else 8
    report = run_check(name, n_max, context)
    assert report.check == name
    assert report.passed, report.failures[:5]


def test_checks_are_looked_up_at_call_time(monkeypatch):
    calls = []

    def patched(n_max, scanner):
        calls.append((n_max, scanner))
        return VerifyReport("theorem1", "patched", 0)

    monkeypatch.setattr(checks, "verify_additive_formula", patched)
    report = run_check("theorem1", 8)
    assert report.range == "patched"
    assert len(calls) == 1 and calls[0][0] == 8
    assert isinstance(calls[0][1], FactorScanner)
