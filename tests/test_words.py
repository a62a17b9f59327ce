import pytest
from hypothesis import given
from hypothesis import strategies as st

from morphic import checks, witnesses
from morphic.morphisms import FixedPointStream, preset
from morphic.words import (
    Alphabet,
    Coding,
    Word,
    WordDomainError,
    code,
    tau,
    ternary_alphabet,
)

TERN = ternary_alphabet()
OTHER_CODING = Coding(Alphabet((0, 1, 3)), (0, 1, 3))

ternary_words = st.binary(max_size=40).map(
    lambda b: Word(TERN, bytes(x % 3 for x in b))
)


class TestAlphabet:
    def test_basic(self):
        a = Alphabet((0, 1, 2))
        assert a.size == 3
        assert a.names == ("0", "1", "2")
        assert a.is_ternary and a.single_char

    def test_named(self):
        a = Alphabet((0, 1, 2), ("a", "b", "c"))
        assert a.symbol_of("b") == 1
        assert a.render(b"\x00\x01\x02") == "abc"
        assert a.parse("cab") == b"\x02\x00\x01"

    def test_multichar_names_render_with_commas(self):
        a = Alphabet((0, 1, 10))
        assert not a.single_char
        assert a.render(b"\x00\x02") == "0,10"
        assert a.parse("10,0") == b"\x02\x00"

    @given(
        st.sampled_from([("a", "b", "c"), ("x0", "y", "zz2"), ("\u03b1", "\u03b2", "10")]),
        st.lists(st.integers(0, 2), max_size=30),
    )
    def test_render_joins_names(self, names, symbols):
        a = Alphabet((0, 1, 2), names)
        sep = "" if a.single_char else ","
        assert a.render(bytes(symbols)) == sep.join(names[s] for s in symbols)
        assert a.parse(a.render(bytes(symbols))) == bytes(symbols)

    @pytest.mark.parametrize(
        "letters,names",
        [
            ((), ()),
            ((0, 0), ()),
            ((1, 0), ()),
            ((-1, 0), ()),
            (tuple(range(17)), ()),
            ((0, 1), ("a",)),
            ((0, 1), ("a", "a")),
            ((0, 1), ("a", "b,c")),
            ((0, 1), ("a", "")),
        ],
    )
    def test_rejects(self, letters, names):
        with pytest.raises(WordDomainError):
            Alphabet(letters, names)

    def test_symbol_of_unknown(self):
        with pytest.raises(WordDomainError):
            TERN.symbol_of("x")


class TestWord:
    def test_from_text_round_trip(self):
        w = Word.from_text(TERN, "0112")
        assert str(w) == "0112"
        assert len(w) == 4
        assert list(w) == [0, 1, 1, 2]

    def test_slice_is_word(self):
        w = Word.from_text(TERN, "01121220")
        assert isinstance(w[2:5], Word)
        assert str(w[2:5]) == "121"
        assert w[3] == 2

    def test_symbol_out_of_range(self):
        with pytest.raises(WordDomainError):
            Word(TERN, b"\x05")

    def test_digit_sum_uses_letter_values(self):
        a = Alphabet((0, 2, 5))
        w = Word(a, b"\x00\x01\x02\x02")
        assert w.digit_sum() == 12

    def test_digit_sum_with_coding(self):
        w = Word.from_text(TERN, "012")
        c = Coding(TERN, (0, 1, 3))
        assert w.digit_sum(c) == 4

    def test_parikh(self):
        assert Word.from_text(TERN, "0112122").parikh() == (1, 3, 3)


class TestOps:
    @given(ternary_words)
    def test_mirror_involution(self, w):
        assert w.mirror().mirror() == w

    @given(ternary_words)
    def test_parikh_sums_to_length(self, w):
        assert sum(w.parikh()) == len(w)

    @given(ternary_words, st.integers(0, 2))
    def test_tau_involution_and_fixed_letter(self, w, c):
        assert tau(c, tau(c, w)) == w
        fixed = [x for x, y in zip(w.symbols, tau(c, w).symbols) if x == c]
        assert all(x == c for x in fixed)

    @given(ternary_words, st.integers(0, 2))
    def test_tau_permutes_counts(self, w, c):
        before = w.parikh()
        after = tau(c, w).parikh()
        others = [x for x in range(3) if x != c]
        assert after[c] == before[c]
        assert after[others[0]] == before[others[1]]

    def test_tau_swaps_the_other_two_letters(self):
        w = Word.from_text(TERN, "0011220")
        assert [str(tau(c, w)) for c in range(3)] == ["0022110", "2211002", "1100221"]

    def test_code_remaps_to_value_alphabet(self):
        w = Word.from_text(TERN, "0212")
        c = Coding(TERN, (0, 1, 3))
        coded = code(c, w)
        assert coded.alphabet.letters == (0, 1, 3)
        assert str(coded) == "0313"

    def test_code_rejects_negative_values(self):
        c = Coding(TERN, (-1, 0, 1))
        with pytest.raises(WordDomainError):
            code(c, Word.from_text(TERN, "012"))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Coding(TERN, (0, 1)), "exactly one value per letter"),
            (lambda: tau(0, Word(Alphabet((0, 1)), b"\x01")), "requires the alphabet"),
            (lambda: tau(3, Word.from_text(TERN, "012")), "fixed letter must be 0, 1 or 2"),
            (lambda: Word.from_text(TERN, "012").digit_sum(OTHER_CODING), "different alphabet"),
            (lambda: code(OTHER_CODING, Word.from_text(TERN, "012")), "different alphabet"),
        ],
        ids=["coding-length", "tau-alphabet", "tau-letter", "digit-sum-coding", "code-coding"],
    )
    def test_invalid_arguments(self, call, message):
        with pytest.raises(WordDomainError, match=message):
            call()

    def test_coding_identity(self):
        c = Coding.identity(TERN)
        assert c.values == (0, 1, 2)


class TestCheckedConstruction:
    """Words built from checked symbols equal the validated construction."""

    @pytest.mark.parametrize("alphabet", [TERN, Alphabet((0, 2, 5)), Alphabet((0, 1), ("a", "b"))])
    def test_public_constructor_still_validates(self, alphabet):
        with pytest.raises(WordDomainError):
            Word(alphabet, bytes([alphabet.size]))
        with pytest.raises(WordDomainError):
            Word(alphabet, bytes([0, alphabet.size, 0]))

    @staticmethod
    def same(w: Word) -> None:
        assert type(w.symbols) is bytes
        assert w == Word(w.alphabet, w.symbols)

    @given(ternary_words, st.integers(0, 2), st.integers(-41, 41), st.integers(-41, 41))
    def test_word_operations(self, w, c, i, j):
        for built in (w.mirror(), tau(c, w), w[i:j], w[::-1]):
            self.same(built)
        assert w.mirror() == Word(TERN, w.symbols[::-1])
        assert tau(c, w) == Word(TERN, bytes(x if x == c else 3 - c - x for x in w.symbols))
        assert w[i:j] == Word(TERN, w.symbols[i:j])

    @pytest.mark.parametrize("name", ["tml", "sigma3"])
    def test_apply_and_prefix(self, name):
        m, seed = preset(name)
        stream = FixedPointStream(m, seed)
        for n in (1, 2, 7, 100):
            prefix = stream.prefix(n)
            self.same(prefix)
            image = m.apply(prefix)
            self.same(image)
            assert image == Word(m.alphabet, b"".join(m.images[s].symbols for s in prefix.symbols))
            assert image == stream.prefix(len(image))

    def test_witness_words(self):
        for n in (1, 2, 3, 100, 1023, 1024, 4095):
            w = witnesses.witness(n)
            for built in (w.left, w.right, w.whole):
                self.same(built)
            assert w.whole == Word(TERN, w.left.symbols + w.right.symbols)

    def test_witness_sweep_validates_nothing(self, monkeypatch):
        calls = []
        validate = Word.__post_init__

        def counting(self):
            calls.append(len(self.symbols))
            validate(self)

        witnesses._left_half.cache_clear()
        witnesses._right_half.cache_clear()
        monkeypatch.setattr(Word, "__post_init__", counting)
        Word(TERN, b"\x00")  # the patch is live for the public constructor
        assert calls == [1]
        calls.clear()
        assert checks.verify_witnesses(256).failures == []
        assert calls == []
