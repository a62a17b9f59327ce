import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_factors, brute_parikh_set, first_occurrences
from morphic import complexity
from morphic.complexity import (
    PROFILE_CAP,
    FactorScanner,
    build_complexity_table,
    distinct_substring_profile,
    sorted_suffixes,
)
from morphic.ivp import sigma3_stream
from morphic.morphisms import FixedPointStream, Morphism, parse_morphism_spec
from morphic.witnesses import ternary_stream
from morphic.words import Coding, ResourceLimitError, Word, WordDomainError, ternary_alphabet

TERN = ternary_alphabet()

RHO_FIRST_20 = [3, 9, 15, 24, 30, 39, 48, 54, 60, 69, 78, 87, 96, 102, 108, 114, 120, 129, 138, 147]
RHO_AB_FIRST_8 = [3, 6, 7, 12, 12, 13, 12, 18]
EVENNESS_FIRST_16 = [1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 5]
RECURRENCE_FIRST_12 = [4, 29, 30, 59, 60, 117, 118, 119, 120, 233, 234, 235]
LENGTH_3_FACTORS = {
    "001", "010", "011", "012", "020", "101", "112", "120",
    "121", "122", "200", "201", "202", "212", "220",
}


class TestFrozenValues:
    def test_subword_complexity(self, tml_scan):
        assert [tml_scan.subword_complexity(n) for n in range(1, 21)] == RHO_FIRST_20

    def test_abelian_complexity(self, tml_scan):
        assert [tml_scan.abelian_complexity(n) for n in range(1, 9)] == RHO_AB_FIRST_8

    def test_digit_sum_sets_are_intervals(self, tml_scan):
        for n in range(1, 9):
            k = n.bit_length() - 1
            assert tml_scan.digit_sum_set(n) == frozenset(range(n - k - 1, n + k + 2))

    def test_evenness(self, tml_scan):
        rows = build_complexity_table(tml_scan.stream, 1, 16).rows
        assert [r.evenness for r in rows] == EVENNESS_FIRST_16

    def test_recurrence_index(self, tml_scan):
        assert [tml_scan.recurrence_index(n) for n in range(1, 13)] == RECURRENCE_FIRST_12

    def test_length_3_factor_set(self, tml_scan):
        idx = tml_scan.factor_index(3)
        assert {str(Word(TERN, b)) for b in idx} == LENGTH_3_FACTORS
        assert len(idx) == 15
        assert Word.from_text(TERN, "011").symbols in idx
        assert Word.from_text(TERN, "000").symbols not in idx

    def test_sigma3_abelian_pattern(self, s3_scan):
        got = [s3_scan.abelian_complexity(n) for n in range(3, 31)]
        assert got == [{0: 7, 1: 6, 2: 6}[n % 3] for n in range(3, 31)]


class TestProfile:
    @settings(deadline=None, max_examples=60)
    @given(st.binary(min_size=1, max_size=300), st.integers(1, 320))
    # symbol values above the length, and a rank of 255 followed by another
    @example(b"\x00\x02\x01\x06", 2)
    @example(b"a\xffa", 3)
    def test_distinct_profile_matches_brute(self, data, n_max):
        data_array = np.frombuffer(data, dtype=np.uint8)
        got = distinct_substring_profile(*sorted_suffixes(data_array, n_max), n_max)
        expected = [len(brute_factors(data, n)) for n in range(1, n_max + 1)]
        assert got.tolist() == expected

    def test_profile_empty_for_nonpositive(self):
        data = np.frombuffer(b"abc", dtype=np.uint8)
        assert distinct_substring_profile(*sorted_suffixes(data, 0), 0).tolist() == []

    def test_profile_memory_per_symbol(self, s3_scan):
        window = s3_scan.window(256)
        assert len(window) == 33534
        tracemalloc.start()
        try:
            distinct_substring_profile(*sorted_suffixes(window, 256), 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * len(window)


class TestScanner:
    def test_parikh_set_matches_brute(self, tml_scan):
        for n in (1, 2, 5, 9):
            window = bytes(tml_scan.window(n))
            assert set(tml_scan.parikh_set(n)) == brute_parikh_set(window, n)

    def test_coding_changes_digit_sums(self, tml):
        doubled = FactorScanner(tml, Coding(TERN, (0, 2, 4)))
        plain = FactorScanner(tml)
        for n in (1, 3, 6):
            assert doubled.digit_sum_set(n) == frozenset(2 * v for v in plain.digit_sum_set(n))

    def test_large_coding_matches_brute(self, tml):
        # 9 * 10**18 < 2**63 <= 10 * 10**18: the last length whose sums fit int64
        sc = FactorScanner(tml, Coding(TERN, (0, 1, 10**18)))
        window = bytes(sc.window(9))
        expected = {b + c * 10**18 for _, b, c in brute_parikh_set(window, 9)}
        assert sc.digit_sum_set(9) == frozenset(expected)
        with pytest.raises(WordDomainError, match="overflow int64"):
            sc.digit_sum_set(10)

    def test_coding_must_match_stream_alphabet(self, s3, tml):
        with pytest.raises(WordDomainError):
            FactorScanner(tml, Coding(s3.alphabet, (0, 1, 2)))

    def test_window_cap_enforced(self):
        # length 2^22 needs a window of 121,634,816 symbols, over WINDOW_CAP
        scanner = FactorScanner(ternary_stream())
        assert scanner.digit_sum_set(1) == frozenset({0, 1, 2})
        with pytest.raises(ResourceLimitError):
            scanner.digit_sum_set(1 << 22)

    def test_rejects_nonpositive_length(self, tml_scan):
        with pytest.raises(WordDomainError):
            tml_scan.digit_sum_set(0)
        with pytest.raises(WordDomainError):
            tml_scan.subword_complexity(0)

    @pytest.mark.parametrize(
        "query, error, message",
        [
            # Chacon keeps 2n - 1 factors of length n: 59 * 30 symbols pass a cap of 1000
            (lambda scanner: scanner.window(30), ResourceLimitError, "factors of length 30 exceed the cap of 1000"),
            (lambda scanner: scanner.distinct_profile(0), WordDomainError, "factor length must be positive"),
        ],
        ids=["walk-cap", "profile-of-length-0"],
    )
    def test_refused(self, monkeypatch, query, error, message):
        monkeypatch.setattr(complexity, "WINDOW_CAP", 1000)
        spec = parse_morphism_spec("0 -> 0010\n1 -> 1\n")
        scanner = FactorScanner(FixedPointStream(spec.morphism, spec.seed))
        assert len(scanner.window(20)) == 86
        with pytest.raises(error, match=message):
            query(scanner)

    def test_single_letter_word_degenerates(self):
        m = Morphism(TERN, tuple(Word(TERN, bytes((s, s))) for s in range(3)))
        sc = FactorScanner(FixedPointStream(m, 0))
        assert sc.subword_complexity(5) == 1
        assert sc.abelian_complexity(5) == 1
        assert sc.additive_complexity(5) == 1
        assert build_complexity_table(sc.stream, 5, 5).rows[0].evenness == 5
        assert sc.recurrence_index(5) == 5


class TestDigitSumRoutes:
    """The 64-bit mask route, at spreads hi - lo on both sides of 64.

    At length 1 the sums are the coded letter values, so each coding
    spreads exactly ``spread`` there; longer lengths spread wider and
    cross into the counting and np.unique routes.
    """

    @pytest.mark.parametrize("make_stream", [ternary_stream, sigma3_stream], ids=["tml", "sigma3"])
    @pytest.mark.parametrize("spread", [62, 63, 64, 65])
    @pytest.mark.parametrize("shape", ["top", "negative"])
    def test_matches_every_start(self, make_stream, spread, shape):
        stream = make_stream()
        values = (0, 1, spread) if shape == "top" else (2 - spread, 1, 2)
        scanner = FactorScanner(stream, Coding(stream.alphabet, values))
        got = scanner.digit_sum_set(1)
        assert max(got) - min(got) == spread
        for n in range(1, 25):
            # the sums at every start of the window, from its letter counts
            counts = brute_parikh_set(bytes(scanner.window(n)), n)
            expected = frozenset(sum(c * v for c, v in zip(count, values)) for count in counts)
            assert scanner.digit_sum_set(n) == expected, n
            assert scanner.digit_sum_set(n) == expected, n  # from the cache

    def test_narrow_spread_counts_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a spread below 64 reached np.bincount or np.unique")

        stream = ternary_stream()
        scanner = FactorScanner(stream, Coding(TERN, (0, 1, 63)))
        monkeypatch.setattr(np, "bincount", refuse)
        monkeypatch.setattr(np, "unique", refuse)
        assert scanner.digit_sum_set(1) == frozenset({0, 1, 63})
        kept = scanner._digit_sums[1]
        assert kept.dtype == np.int64
        assert kept.tolist() == [0, 1, 63]


def bounded_letter_stream() -> FixedPointStream:
    spec = parse_morphism_spec("a -> aab\nb -> b\n")
    return FixedPointStream(spec.morphism, spec.seed)


class TestFactorIndex:
    """factor_index and recurrence_index against the per-start loop."""

    @staticmethod
    def check(scanner: FactorScanner, lengths) -> None:
        for n in lengths:
            expected = first_occurrences(scanner.window(n).tobytes(), n)
            assert list(scanner.factor_index(n).items()) == list(expected.items()), n
            assert scanner.recurrence_index(n) == max(expected.values()) + n, n
            assert scanner.subword_complexity(n) == len(expected), n

    @pytest.mark.parametrize(
        "make_stream, lengths",
        [
            (ternary_stream, [*range(1, 65), 128, 256]),
            (sigma3_stream, [*range(1, 65), 128, 256]),
            # b is bounded: b^n first ends 2^(n+1) - 1 symbols in, and the
            # walk for the window passes the cap from n = 25 on
            (bounded_letter_stream, range(1, 17)),
        ],
        ids=["tml", "sigma3", "aab"],
    )
    def test_matches_the_per_start_loop(self, make_stream, lengths):
        # a rising sweep sorts again when the window grows or n passes a
        # power of two; a falling one answers every length from its first sort
        self.check(FactorScanner(make_stream()), lengths)
        self.check(FactorScanner(make_stream()), reversed(lengths))

    def test_over_the_profile_cap_is_refused_unsorted(self, monkeypatch):
        # length 65538 needs the 29 * 2**17 = 3,801,088-symbol window, over PROFILE_CAP
        def no_sort(data, n_max):
            raise AssertionError(f"sorted a {len(data)}-symbol window")

        monkeypatch.setattr(complexity, "prefix_doubling", no_sort)
        scanner = FactorScanner(ternary_stream())
        assert len(scanner.window(65538)) == 3801088 > PROFILE_CAP
        queries = (scanner.factor_index, scanner.recurrence_index, scanner.subword_complexity, scanner.distinct_profile)
        for query in queries:
            with pytest.raises(ResourceLimitError, match="profile cap"):
                query(65538)


class TestKeptSort:
    """Factor counts and first occurrences read one kept sort per scanner,
    only as deep as the length asked, rounded up to a power of two."""

    @staticmethod
    def record(monkeypatch) -> list[tuple[int, int]]:
        """(window length, depth) of every sort the scanner makes."""
        sorts = []
        real = complexity.sorted_suffixes

        def recorded(data, n_max):
            sorts.append((len(data), n_max))
            return real(data, n_max)

        monkeypatch.setattr(complexity, "sorted_suffixes", recorded)
        return sorts

    def test_one_sort_for_the_whole_sweep(self, monkeypatch):
        sorts = self.record(monkeypatch)
        scanner = FactorScanner(ternary_stream())
        profile = scanner.distinct_profile(256)
        for n in range(1, 257):
            index = scanner.factor_index(n)
            assert scanner.recurrence_index(n) == max(index.values()) + n
            assert scanner.subword_complexity(n) == len(index) == profile[n - 1]
        assert sorts == [(len(scanner.window(256)), 256)]

    def test_rising_sweep_sorts_as_deep_as_asked(self, monkeypatch):
        sorts = self.record(monkeypatch)
        scanner = FactorScanner(ternary_stream())
        expected = []
        for n in range(1, 131):
            before = len(sorts)
            scanner.recurrence_index(n)
            if len(sorts) > before:
                expected.append((len(scanner.window(n)), n))
        assert sorts == expected
        # each block power has a window length of its own: every one is
        # sorted when the window grows, and again when n passes 2**K
        per_window = Counter(length for length, _ in sorts)
        assert set(per_window) == {len(scanner.window(n)) for n in range(1, 131)}
        assert max(per_window.values()) <= 2

    def test_kept_sort_of_a_longer_window(self, monkeypatch):
        scanner = FactorScanner(ternary_stream())
        scanner.recurrence_index(512)
        sorts = self.record(monkeypatch)
        for m in (1, 2, 3, 100, 257):
            window = scanner.window(m)
            assert len(window) < len(scanner.window(512))
            expected = distinct_substring_profile(*sorted_suffixes(window, m), m)
            assert scanner.distinct_profile(m).tolist() == expected.tolist(), m
        assert sorts == []


class TestTable:
    def test_csv_golden(self, tml):
        table = build_complexity_table(tml, 1, 4)
        assert table.to_csv() == (
            "n,rho,rho_ab,rho_plus,ds_min,ds_max,evenness\n"
            "1,3,3,3,0,2,1\n"
            "2,9,6,5,0,4,2\n"
            "3,15,7,5,1,5,2\n"
            "4,24,12,7,1,7,3\n"
        )

    def test_json_mirrors_csv(self, tml):
        import json

        table = build_complexity_table(tml, 2, 3)
        rows = json.loads(table.to_json())
        assert rows == [
            {"n": 2, "rho": 9, "rho_ab": 6, "rho_plus": 5, "ds_min": 0, "ds_max": 4, "evenness": 2},
            {"n": 3, "rho": 15, "rho_ab": 7, "rho_plus": 5, "ds_min": 1, "ds_max": 5, "evenness": 2},
        ]

    def test_range_validation(self, tml):
        with pytest.raises(WordDomainError):
            build_complexity_table(tml, 3, 2)

