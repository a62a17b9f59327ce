import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphic.regularity import (
    additive_complexity_closed_form,
    verify_additive_recurrence,
    verify_kernel_affine,
)
from morphic.words import WordDomainError


def test_closed_form_values():
    assert [additive_complexity_closed_form(n) for n in (1, 2, 3, 4, 8, 1024)] == [3, 5, 5, 7, 9, 23]
    with pytest.raises(WordDomainError):
        additive_complexity_closed_form(0)


@given(st.integers(0, 6), st.integers(0, 63), st.integers(1, 500))
def test_closed_form_is_affine_under_indexing(e, c, n):
    # floor(log2(2^e n + c)) = e + floor(log2 n) whenever c < 2^e
    if c < (1 << e):
        lhs = additive_complexity_closed_form((n << e) + c)
        assert lhs == additive_complexity_closed_form(n) + 2 * e


def test_scanned_additive_complexity_matches_closed(tml_scan):
    for n in (1, 2, 7, 30, 100):
        assert tml_scan.additive_complexity(n) == additive_complexity_closed_form(n)


def test_additive_recurrence(tml_scan):
    rep = verify_additive_recurrence(64, tml_scan)
    assert rep.passed and rep.tuples_checked == 129


def test_kernel_affine(tml_scan):
    rep = verify_kernel_affine(24, tml_scan)
    assert rep.passed
    assert rep.tuples_checked == 127 * 24
    assert any("cross-checked" in note for note in rep.notes)
    assert any("127 subsequences, 7 distinct" in note for note in rep.notes)

