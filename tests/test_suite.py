"""The check registry: every name runs, checks are looked up at call
time, and the checks that read a stream catch a corrupted one."""

import pytest

import morphic.checks as checks
from morphic.complexity import FactorScanner
from morphic.morphisms import FixedPointStream, preset
from morphic.reports import VerifyReport
from morphic.suite import ALL_CHECK_NAMES, SuiteContext, run_check
from morphic.words import WordDomainError


@pytest.fixture(scope="module")
def context():
    return SuiteContext()


def test_unknown_check_is_refused():
    with pytest.raises(WordDomainError, match="unknown check 'nope'"):
        run_check("nope")


@pytest.mark.parametrize("name", ALL_CHECK_NAMES)
def test_every_registered_check_runs(name, context):
    n_max = None if name == "tech-lemma" else 8
    report = run_check(name, n_max, context)
    assert report.check == name
    assert report.passed, report.failures[:5]


class TrailingTwos(FixedPointStream):
    """Each snapshot ends in 222, a factor of neither tml nor sigma3."""

    def array(self, n):
        word = super().array(n).copy()
        word[-3:] = 2
        return word


# witness and prefix-suffix read no stream; dc-counts has its own test
@pytest.mark.parametrize(
    "name",
    [
        "theorem1",
        "ds-bounds",
        # not sigma-tau: it checks a morphism identity that holds for every word
        "mirror-closure",
        "tech-lemma",
        "ivp-small",
        "additive-recurrence",
        "kernel",
        "prop4",
        "subword-recurrence",
    ],
)
def test_checks_fail_on_a_corrupted_stream(name):
    context = SuiteContext()
    context.tml = FactorScanner(TrailingTwos(*preset("tml")))
    context.sigma3 = FactorScanner(TrailingTwos(*preset("sigma3")))
    assert not run_check(name, None if name == "tech-lemma" else 8, context).passed


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
