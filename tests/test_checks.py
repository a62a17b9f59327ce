import random
import tracemalloc

import numpy as np
import pytest

import morphic.checks as checks
import morphic.reports as reports
from conftest import shift_gain_misses
from morphic.complexity import FactorScanner
from morphic.morphisms import FixedPointStream
from morphic.reports import VerifyReport, record_failure
from morphic.witnesses import WITNESS_CAP, sigma_power_bytes
from morphic.words import ResourceLimitError, WordDomainError


@pytest.fixture(scope="module")
def scan(tml):
    return FactorScanner(tml)


def counts_with_a_flip_at_700(monkeypatch):
    """dc-counts up to height 14 with symbol 700 of each counted word flipped.

    700 lies in [2^9, 2^10), so the flip is inside sigma^l(x) for l >= 10
    and outside it for l <= 9.  The word is built from shared blocks, so
    the flip goes into the assembled chunk, not into a stream.
    """
    assembled = checks._word_chunks

    def flipped(base, blocks):
        for start, part in assembled(base, blocks):
            if start <= 700 < start + len(part):
                part = part.copy()
                part[700 - start] = (part[700 - start] + 1) % 3
            yield start, part

    monkeypatch.setattr(checks, "_word_chunks", flipped)
    return checks.verify_surplus_balance_counts(14)


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
        with pytest.raises(ResourceLimitError):
            checks.verify_surplus_balance_counts(27)

    def test_surplus_balance_counts_reads_the_stream(self, monkeypatch):
        class FlippedStream(FixedPointStream):
            def array(self, n):
                word = super().array(n).copy()
                word[-1] = (word[-1] + 1) % 3
                return word

        monkeypatch.setattr(checks, "FixedPointStream", FlippedStream)
        assert not checks.verify_surplus_balance_counts(10).passed

    def test_surplus_balance_counts_count_each_prefix(self, monkeypatch):
        rep = counts_with_a_flip_at_700(monkeypatch)
        failing = {int(line.split(",")[0].removeprefix("l=")) for line in rep.failures}
        assert failing == set(range(10, 15))
        # both letters of each failing height, through both routes
        assert len(rep.failures) == 4 * len(failing)

    def test_surplus_balance_counts_count_each_prefix_across_chunks(self, monkeypatch):
        # chunks of 2^8 symbols: the flip lies in the third chunk, and every
        # height from 8 up ends a chunk
        monkeypatch.setattr(checks, "_COUNT_CHUNK", 1 << 8)
        rep = counts_with_a_flip_at_700(monkeypatch)
        assert {int(line.split(",")[0].removeprefix("l=")) for line in rep.failures} == set(range(10, 15))
        assert len(rep.failures) == 20

    def test_surplus_balance_counts_small_chunks(self, monkeypatch):
        # one block of 2^8 symbols per chunk at height 16: heights inside
        # the first chunk and at the ends of later ones
        monkeypatch.setattr(checks, "_COUNT_CHUNK", 1 << 8)
        rep = checks.verify_surplus_balance_counts(16)
        assert rep.passed and rep.tuples_checked == 34

    def test_surplus_balance_counts_reads_short_prefixes(self, monkeypatch):
        # sigma^24(x) is built from prefixes of 2^12 symbols, not read as one
        asked = []

        class RecordingStream(FixedPointStream):
            def array(self, n):
                asked.append(n)
                return super().array(n)

        monkeypatch.setattr(checks, "FixedPointStream", RecordingStream)
        assert checks.verify_surplus_balance_counts(24).passed
        assert max(asked) <= 1 << 12

    def test_surplus_balance_counts_peak_memory(self):
        # two counting chunks of 2^20 symbols at most, never a prefix of 2^22
        checks.verify_surplus_balance_counts(4)  # imports and small caches first
        tracemalloc.start()
        try:
            checks.verify_surplus_balance_counts(22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20 + 2**16

    @pytest.mark.parametrize("sweep", [checks.verify_witnesses, checks.verify_witness_affixes])
    def test_witness_sweeps_guard(self, sweep):
        with pytest.raises(ResourceLimitError):
            sweep(WITNESS_CAP + 1)

    @pytest.mark.parametrize(
        "sweep, cap",
        [
            (checks.verify_swap_reverse_commutation, checks.SIGMA_TAU_N_MAX),
            (checks.verify_mirror_closure, checks.MIRROR_CLOSURE_N_MAX),
            (checks.verify_interior_sums_small, checks.IVP_SMALL_N_MAX),
        ],
    )
    def test_factor_sweeps_guard(self, scan, sweep, cap):
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            sweep(cap + 1, scan)

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


class TestShiftGainSweep:
    """The vectorized tech-lemma sweep against the per-pair scalar oracle."""

    @pytest.fixture(autouse=True)
    def every_failure_recorded(self, monkeypatch):
        monkeypatch.setattr(reports, "FAILURE_CAP", 1 << 20)

    @staticmethod
    def compare(expansions: list[bytes]) -> int:
        report = VerifyReport("tech-lemma", "", 0)
        rows = np.frombuffer(b"".join(expansions), dtype=np.uint8).reshape(len(expansions), 192)
        checks._sweep_shift_gains(report, rows)
        misses, tried = shift_gain_misses(expansions)
        expected = VerifyReport("tech-lemma", "", 0)
        for i, j in misses:
            record_failure(expected, f"i={i}, j={j}: no shift reaches gain 1")
        assert report.failures == expected.failures
        assert report.tuples_checked == tried
        return len(misses)

    # A 0-anchor in an all-0 word, or paired with a 2-anchor in an all-2
    # word, walks sums that never reach 1.  Zeros with one late 1 reach
    # sum 1 only after the all-2 word's forward window has ended.
    ALL_0, ALL_2 = bytes(192), bytes([2] * 192)
    LATE_1 = bytes(185) + b"\x01" + bytes(6)

    @pytest.mark.parametrize(("seed", "injected"), [(0, [ALL_2]), (1, [ALL_0]), (2, [LATE_1, ALL_2])])
    def test_random_anchors_with_injected_misses(self, seed, injected):
        rng = random.Random(seed)
        expansions = [bytes(rng.choices(range(3), k=192)) for _ in range(3)]
        for word in injected:
            expansions.insert(rng.randrange(len(expansions) + 1), word)
        assert self.compare(expansions) >= 64

    @pytest.mark.parametrize(("row", "position", "shift"), [(5, 70, 2), (10, 119, 1)])
    def test_one_flipped_letter(self, tml_scan, row, position, shift):
        expansions = [
            bytearray(b"".join(sigma_power_bytes(s, 6) for s in u)) for u in tml_scan.factor_index(3)
        ]
        assert self.compare(list(map(bytes, expansions))) == 0
        expansions[row][position] = (expansions[row][position] + shift) % 3
        assert self.compare(list(map(bytes, expansions))) > 0
