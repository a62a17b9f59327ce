import numpy as np
import pytest

import morphic.checks as checks
from morphic.complexity import FactorScanner
from morphic.witnesses import witness
from morphic.words import Word, WordDomainError, ternary_alphabet

TERN = ternary_alphabet()


@pytest.fixture(scope="module")
def scan(tml):
    return FactorScanner(tml)


def test_floor_log2():
    assert [checks.floor_log2(n) for n in (1, 2, 3, 4, 7, 8)] == [0, 1, 1, 2, 2, 3]
    with pytest.raises(WordDomainError):
        checks.floor_log2(0)


class TestVerifiers:
    """Each sweep at a small range; acceptance runs the full ranges."""

    def test_additive_formula(self, scan):
        rep = checks.verify_additive_formula(128, scan)
        assert rep.passed and rep.tuples_checked == 128

    def test_ds_bounds(self, scan):
        assert checks.verify_ds_bounds(128, scan).passed

    def test_witnesses(self):
        rep = checks.verify_witnesses(128)
        assert rep.passed

    def test_swap_reverse_commutation(self, scan):
        rep = checks.verify_swap_reverse_commutation(7, scan)
        assert rep.passed
        assert any("index-decrement" in note for note in rep.notes)
        # the rival pairing must fail somewhere, otherwise the note is vacuous
        assert not any("fails on 0 of" in note for note in rep.notes)

    def test_mirror_closure(self, scan):
        rep = checks.verify_mirror_closure(7, scan)
        assert rep.passed
        assert rep.tuples_checked == 3 * sum(scan.subword_complexity(n) for n in range(1, 8))

    def test_surplus_balance_counts(self):
        rep = checks.verify_surplus_balance_counts(14)
        assert rep.passed and rep.tuples_checked == 30

    def test_surplus_balance_counts_guard(self):
        from morphic.words import ResourceLimitError

        with pytest.raises(ResourceLimitError):
            checks.verify_surplus_balance_counts(27)

    def test_witness_affixes(self):
        assert checks.verify_witness_affixes(512).passed

    def test_shift_gain_exhaustive(self, scan):
        rep = checks.verify_shift_gain_exhaustive(scanner=scan)
        assert rep.passed
        assert rep.tuples_checked == 102400

    def test_halving_inequality(self, scan):
        assert checks.verify_halving_inequality(32, scan).passed

    def test_interior_sums_small(self, scan):
        assert checks.verify_interior_sums_small(48, scan).passed

    def test_subword_recurrence(self, scan):
        rep = checks.verify_subword_recurrence(64, scan)
        assert rep.passed and rep.tuples_checked == 2 + 2 * 62


class TestShiftScan:
    def test_single_letter(self, tml):
        s = checks.shift_scan(tml.prefix(1), 0, tml)
        assert (s.r, s.jump) == (1, 1)
        assert s.start_sum == 0

    def test_two_letters(self, tml):
        s = checks.shift_scan(tml.prefix(2), 0, tml)
        assert s.r == 1 and s.jump == 1

    def test_rejects_wrong_position(self, tml):
        with pytest.raises(WordDomainError):
            checks.shift_scan(Word.from_text(TERN, "22"), 0, tml)

    def test_rejects_maximal_sum(self, tml):
        w = witness(4).whole
        i = bytes(tml.array(64)).find(w.symbols)
        assert i >= 0
        with pytest.raises(WordDomainError):
            checks.shift_scan(w, i, tml)

    def test_rejects_empty(self, tml):
        with pytest.raises(WordDomainError):
            checks.shift_scan(Word(TERN), 0, tml)

    def test_jump_invariants_hold_broadly(self, tml):
        # every completed scan passed the internal jump checks; both jump
        # sizes should be represented
        seen = set()
        data = bytes(tml.array(512))
        for n in (1, 2, 3, 5):
            ceiling = n + n.bit_length()
            for i in range(0, 256, 7):
                u = Word(TERN, data[i : i + n])
                if u.digit_sum() >= ceiling:
                    continue
                s = checks.shift_scan(u, i, tml)
                assert s.r > i
                seen.add(s.jump)
        assert seen == {1, 2}

    def test_window_sums_match_slices(self, tml):
        g = checks.window_sums(tml, 3, 5, 15)
        data = tml.array(18).tolist()
        assert g.tolist() == [sum(data[j : j + 3]) for j in range(5, 15)]

    def test_window_sums_validates(self, tml):
        with pytest.raises(WordDomainError):
            checks.window_sums(tml, 0, 0, 5)
        with pytest.raises(WordDomainError):
            checks.window_sums(tml, 2, 5, 5)
