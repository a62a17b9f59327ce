import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphic import cli, complexity, witnesses
from morphic.witnesses import (
    balanced_letter,
    decomposition_haystack,
    factor_haystack,
    is_factor,
    sigma_power_bytes,
    surplus_letter,
    ternary_stream,
    witness,
    witness_occurrence,
)
from morphic.words import Alphabet, Word, WordDomainError, tau, ternary_alphabet

TERN = ternary_alphabet()


class TestLetterFamilies:
    def test_surplus_sequence(self):
        assert [surplus_letter(k) for k in range(-1, 9)] == [2, 2, 1, 1, 0, 0, 2, 2, 1, 1]

    def test_balanced_sequence(self):
        assert [balanced_letter(l) for l in range(1, 9)] == [2, 0, 1, 2, 0, 1, 2, 0]

    def test_domain(self):
        with pytest.raises(WordDomainError):
            surplus_letter(-2)
        with pytest.raises(WordDomainError):
            balanced_letter(-1)

    def test_defining_property(self):
        # the surplus letter's power carries one extra 2, the balanced letter's none
        for l in range(0, 14):
            b = sigma_power_bytes(surplus_letter(l), l)
            assert b.count(2) - b.count(0) == 1
            b = sigma_power_bytes(balanced_letter(l), l)
            assert b.count(2) - b.count(0) == 0


class TestSigmaPowers:
    def test_lengths(self):
        for e in range(0, 10):
            assert len(sigma_power_bytes(1, e)) == 1 << e

    def test_power_of_seed_is_prefix(self):
        assert sigma_power_bytes(0, 3) == bytes((0, 1, 1, 2, 1, 2, 2, 0))

    def test_rejects_bad_args(self):
        with pytest.raises(WordDomainError):
            sigma_power_bytes(3, 1)
        with pytest.raises(WordDomainError):
            sigma_power_bytes(0, -1)


class TestWitness:
    def test_small_words(self):
        words = {1: "2", 2: "22", 3: "122", 4: "2122", 8: "21220122"}
        assert {n: str(witness(n).whole) for n in words} == words

    def test_split_at_anchor(self):
        w = witness(8)
        assert (str(w.left), str(w.right)) == ("21220", "122")
        w1 = witness(1)
        assert (len(w1.left), str(w1.right)) == (0, "2")

    def test_bits_recover_length(self):
        w = witness(22)
        assert w.n == (1 << w.k) + sum(b << i for i, b in enumerate(w.bits))

    def test_digit_sum_and_imbalance(self):
        for n in range(1, 513):
            w = witness(n)
            assert w.whole.digit_sum() == n + w.k + 1
            pv = w.whole.parikh()
            assert pv[2] - pv[0] == w.k + 1

    def test_occurrence_in_context(self):
        for n in range(1, 513):
            assert witness_occurrence(witness(n)) >= 0

    def test_witness_found_in_stream_prefix(self):
        hay = bytes(ternary_stream().array(64))
        assert hay.find(witness(2).whole.symbols) == 5
        assert hay.find(witness(8).whole.symbols) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(WordDomainError):
            witness(0)

    def test_cached_halves_match_the_direct_assembly(self):
        # every half rebuilt from all k bits of each n, with no cache
        def halves(n):
            k = n.bit_length() - 1
            bits = [((n - (1 << k)) >> i) & 1 for i in range(k)]
            left = bytearray()
            if n > 1:
                if bits[0] == 1:
                    left.append(1)
                left.append(2)
            for i in range(1, (k - 1) // 2 + 1):
                e = 2 * i + bits[2 * i]
                left += sigma_power_bytes(surplus_letter(e), e)
            right = bytearray()
            for i in range(k // 2, 0, -1):
                e = 2 * i - 1 + bits[2 * i - 1]
                right += sigma_power_bytes(surplus_letter(e), e)
            right.append(2)
            return left, right

        for n in range(1, (1 << 16) + 1):
            w = witness(n)
            left, right = halves(n)
            assert w.left.symbols == left and w.right.symbols == right, n
            whole = w.whole.symbols
            assert len(whole) == n and whole.startswith(left) and whole.endswith(right), n

    def test_occurrence_memory_per_symbol(self):
        sigma_power_bytes.cache_clear()
        decomposition_haystack.cache_clear()
        w = witness(1 << 20)
        tracemalloc.start()
        try:
            witness_occurrence(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * w.n

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 4096))
    def test_construction_properties(self, n):
        w = witness(n)
        assert len(w.whole) == n
        assert w.whole.digit_sum() == w.target_digit_sum
        assert is_factor(w.whole)


class TestMembership:
    def test_positives_from_stream(self, tml):
        data = bytes(tml.array(2048))
        for n in (1, 2, 3, 7, 16, 65):
            for i in range(0, 512, 37):
                assert is_factor(Word(TERN, data[i : i + n]))

    def test_negatives(self):
        for text in ("000", "222", "110", "2121", "21212"):
            assert not is_factor(Word.from_text(TERN, text))

    def test_letters_outside_alphabet(self):
        with pytest.raises(WordDomainError):
            is_factor(Word(Alphabet((0, 1, 2, 3)), b"\x03"))

    def test_empty_word(self):
        assert is_factor(Word(TERN))

    def test_factor_haystack(self):
        for K in range(6):
            hay = factor_haystack(K)
            assert len(hay) == 10 << K
            for x in range(3):
                for y in range(3):
                    assert sigma_power_bytes(x, K) + sigma_power_bytes(y, K) in hay

    def test_matches_brute_force_factor_sets(self):
        # every ternary word of length <= 9 against the factors of a long prefix
        data = ternary_stream().array(1 << 16).tobytes()
        for n in range(1, 10):
            factors = {data[i : i + n] for i in range(len(data) - n + 1)}
            for word in itertools.product(b"\x00\x01\x02", repeat=n):
                assert is_factor(Word(TERN, bytes(word))) == (bytes(word) in factors)

    def test_decomposition_haystack_needs_height(self):
        with pytest.raises(WordDomainError):
            decomposition_haystack(0)
        assert len(decomposition_haystack(3)) == 32

    @pytest.mark.parametrize("K", range(10))
    def test_accepts_every_haystack_window(self, K):
        # 0011220210 holds 021 and 210, which are not factors; from K = 1
        # on every window of both lengths is one
        rejected = {bytes((0, 2, 1)), bytes((2, 1, 0))}
        hay = factor_haystack(K)
        for n in ((1 << K) + 1, (1 << K) + 2):
            for i in range(len(hay) - n + 1):
                w = hay[i : i + n]
                assert is_factor(Word(TERN, w)) == (w not in rejected), (n, i)

    @pytest.mark.parametrize("K", range(12))
    def test_agrees_with_linear_search(self, K):
        # words of more than 65 symbols (from K = 6) are desubstituted first
        rng = random.Random(K)
        outcomes = set()
        for n in ((1 << K) + 1, (1 << K) + 2):
            hay = factor_haystack(max(n - 2, 0).bit_length())
            words = [bytes(rng.choices(range(3), k=n)) for _ in range(100)]
            # haystack windows as they are, and near misses with one letter changed
            for _ in range(100):
                i, p = rng.randrange(len(hay) - n + 1), rng.randrange(n)
                w = bytearray(hay[i : i + n])
                words.append(bytes(w))
                w[p] = (w[p] + rng.randrange(1, 3)) % 3
                words.append(bytes(w))
            for w in words:
                outcomes.add(is_factor(Word(TERN, w)))
                assert is_factor(Word(TERN, w)) == (w in hay)
        assert outcomes == {True, False}

    def test_long_words_agree_with_linear_search(self, tml):
        # 20000 symbols are desubstituted nine times, down to about 40
        data = bytearray(tml.array(1 << 16)[1000:21000].tobytes())
        assert is_factor(Word(TERN, bytes(data)))
        data[5000] = (data[5000] + 1) % 3
        assert is_factor(Word(TERN, bytes(data))) == (bytes(data) in factor_haystack(15))

    def test_one_cut_per_length_5_factor(self):
        # every occurrence of a length-5 factor starts at one parity, the
        # cut that membership reads from its table
        data = ternary_stream().array(1 << 16).tobytes()
        parities = {}
        for i in range(len(data) - 4):
            parities.setdefault(data[i : i + 5], set()).add(i & 1)
        assert all(len(p) == 1 for p in parities.values())
        cuts = {f: p.pop() for f, p in parities.items()}
        assert len(cuts) == 30
        assert witnesses._cuts() == cuts

    def test_long_word_memory_per_symbol(self):
        n = 1 << 20
        u = Word(TERN, ternary_stream().array(3 * n)[n + 12345 : 2 * n + 12345].tobytes())
        factor_haystack.cache_clear()
        tracemalloc.start()
        try:
            assert is_factor(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n

    def test_occurrence_is_the_least_start(self):
        def first_start(hay, pattern):
            for i in range(len(hay) - len(pattern) + 1):
                if hay[i : i + len(pattern)] == pattern:
                    return i
            return -1

        edges = {m for j in range(13) for m in ((1 << j) - 1, 1 << j, (1 << j) + 1)}
        for n in sorted(set(range(1, 513)) | {m for m in edges if 1 <= m <= 4096}):
            w = witness(n)
            hay = sigma_power_bytes(0, 3) if n == 1 else decomposition_haystack(w.k)
            assert witness_occurrence(w) == first_start(hay, w.whole.symbols), n

    def test_membership_and_occurrence_sort_nothing(self, monkeypatch, capsys):
        def refuse(data, n_max):
            raise AssertionError("suffixes sorted for a witness check")

        monkeypatch.setattr(complexity, "prefix_doubling", refuse)
        for n in range(1, 4097):
            w = witness(n)
            assert is_factor(w.whole) and is_factor(tau(1, w.whole).mirror()), n
            assert witness_occurrence(w) >= 0
        assert cli.main(["witness", "--length", "32768", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 32768
