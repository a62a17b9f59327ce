import tracemalloc

import numpy as np
import pytest

from conftest import digit3_letter, popcount_letter
from morphic.cli import main
from morphic.morphisms import (
    DEFAULT_LENGTH_CAP,
    FixedPointStream,
    Morphism,
    MorphismParseError,
    automatic_prefix,
    parse_morphism_spec,
    preset,
)
from morphic.witnesses import sigma_power_bytes
from morphic.words import Alphabet, ResourceLimitError, Word, WordDomainError, ternary_alphabet

TERN = ternary_alphabet()
PREFIX_32 = "01121220122020011220200120010112"


def word(text: str) -> Word:
    return Word.from_text(TERN, text)


def power(m: Morphism, u: Word, k: int) -> Word:
    """sigma^k(u) by k applications."""
    for _ in range(k):
        u = m.apply(u)
    return u


class TestMorphism:
    def test_preset_images(self):
        m, seed = preset("tml")
        assert seed == 0
        assert [str(im) for im in m.images] == ["01", "12", "20"]
        assert m.uniform_width == 2

    def test_apply(self):
        m, _ = preset("tml")
        assert str(m.apply(word("012"))) == "011220"

    def test_image_count_must_match(self):
        with pytest.raises(WordDomainError):
            Morphism(TERN, (word("01"),))

    def test_erasing_rejected(self):
        with pytest.raises(WordDomainError):
            Morphism(TERN, (word("01"), word(""), word("20")))

    def test_apply_wrong_alphabet(self):
        m, _ = preset("tml")
        other = Alphabet((0, 1))
        with pytest.raises(WordDomainError):
            m.apply(Word(other, b"\x00"))

    def test_uniform_width_none_when_ragged(self):
        m = Morphism(TERN, (word("001"), word("0"), word("2")))
        assert m.uniform_width is None

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: preset("nope"), "unknown preset"),
            (lambda: FixedPointStream(preset("tml")[0], 3), "seed symbol out of range"),
            (
                lambda: Morphism(TERN, (word("01"), word("12"), Word(Alphabet((0, 1, 2, 3)), b"\x03"))),
                "image over a different alphabet",
            ),
            (lambda: automatic_prefix(Morphism(TERN, (word("10"), word("01"), word("22"))), 0, 4), "not prolongable"),
        ],
        ids=["unknown-preset", "seed-out-of-range", "image-alphabet", "automatic-not-prolongable"],
    )
    def test_invalid_construction(self, build, message):
        with pytest.raises(WordDomainError, match=message):
            build()


class TestFixedPointStream:
    def test_prefix_32(self, tml):
        assert str(tml.prefix(32)) == PREFIX_32

    def test_sigma3_prefix(self, s3):
        assert str(s3.prefix(9)) == "abcbcacab"

    def test_letter(self, tml):
        assert tml.array(8).tolist() == [0, 1, 1, 2, 1, 2, 2, 0]

    def test_snapshot_read_only_and_stable(self, tml):
        snap = tml.array(16)
        with pytest.raises(ValueError):
            snap[0] = 1
        before = snap.copy()
        tml.ensure(1 << 15)
        assert (snap == before).all()

    @pytest.mark.parametrize("text", [None, "a -> abbc\nb -> c\nc -> ab\n"], ids=["tml", "abbc-c-ab"])
    def test_snapshots_survive_extension(self, text):
        if text is None:
            m, seed = preset("tml")
        else:
            spec = parse_morphism_spec(text)
            m, seed = spec.morphism, spec.seed
        s = FixedPointStream(m, seed)
        snaps = {n: s.array(n) for n in (0, 1, 7, 100, 5000)}
        before = {n: snap.tobytes() for n, snap in snaps.items()}
        s.ensure(1 << 16)
        for n, snap in snaps.items():
            assert not snap.flags.writeable
            assert len(snap) == n and snap.tobytes() == before[n]
        assert s.array(5000).tobytes() == before[5000]

    def test_requires_prolongable_seed(self):
        m = Morphism(TERN, (word("10"), word("12"), word("20")))
        with pytest.raises(WordDomainError):
            FixedPointStream(m, 0)
        FixedPointStream(m, 1)

    def test_seed_by_name(self):
        m, _ = preset("sigma3")
        s = FixedPointStream(m, m.alphabet.symbol_of("b"))
        assert str(s.prefix(3)) == "bca"

    def test_cap(self):
        m, seed = preset("tml")
        s = FixedPointStream(m, seed)
        with pytest.raises(ResourceLimitError):
            s.ensure(DEFAULT_LENGTH_CAP + 1)

    def test_negative_lengths_rejected(self):
        m, seed = preset("tml")
        s = FixedPointStream(m, seed)
        s.ensure(128)
        with pytest.raises(WordDomainError):
            s.array(-1)
        with pytest.raises(WordDomainError):
            s.prefix(-3)

    @pytest.mark.parametrize("images", [("001", "1"), ("011", "111"), ("0111", "11")])
    def test_materializes_less_than_one_image_past_the_request(self, images):
        alpha = Alphabet((0, 1))
        m = Morphism(alpha, tuple(Word.from_text(alpha, im) for im in images))
        widest = max(map(len, images))
        for n in (2, 5, 100, 1001):
            s = FixedPointStream(m, 0)
            prefix = s.array(n)
            assert n <= s.materialized < n + widest
            assert prefix.tobytes() == power(m, Word(alpha, b"\x00"), 12).symbols[:n]

    def test_self_similarity(self, tml):
        # each substitution step maps the length-n prefix onto the length-2n prefix
        m = tml.morphism
        for n in (1, 5, 37, 256):
            assert m.apply(tml.prefix(n)) == tml.prefix(2 * n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prefix_is_substitution_power(self, seed):
        # prolongable on every letter, so sigma^l(x) is the length-2^l prefix on seed x
        m, _ = preset("tml")
        s = FixedPointStream(m, seed)
        for l in range(17):
            assert s.array(1 << l).tobytes() == sigma_power_bytes(seed, l)

    def test_block_invariance_order_six(self, tml):
        # the word equals its own letter-by-letter expansion through six steps
        data = bytes(tml.array(16 * 64))
        expected = b"".join(sigma_power_bytes(s, 6) for s in tml.array(16).tolist())
        assert data == expected

    def test_non_uniform_fallback_matches_iterate(self):
        m = Morphism(TERN, (word("001"), word("0"), word("2")))
        s = FixedPointStream(m, 0)
        w = power(m, word("0"), 7)
        assert bytes(s.array(len(w))) == w.symbols


class TestArithmeticRoutes:
    def test_tml_against_binary_digit_sums(self, tml):
        assert [popcount_letter(i) for i in range(64)] == tml.array(64).tolist()

    def test_sigma3_against_ternary_digit_sums(self, s3):
        assert [digit3_letter(i) for i in range(81)] == s3.array(81).tolist()

    @pytest.mark.parametrize("name,oracle", [("tml", popcount_letter), ("sigma3", digit3_letter)])
    def test_automatic_prefix(self, name, oracle):
        m, seed = preset(name)
        got = automatic_prefix(m, seed, 4096)
        assert got.tolist() == [oracle(i) for i in range(4096)]

    def test_automatic_requires_uniform(self):
        m = Morphism(TERN, (word("001"), word("0"), word("2")))
        with pytest.raises(WordDomainError):
            automatic_prefix(m, 0, 5)

    def test_automatic_prefix_lengths(self):
        m, seed = preset("tml")
        assert automatic_prefix(m, seed, 0).shape == (0,)
        with pytest.raises(WordDomainError):
            automatic_prefix(m, seed, -5)

    def test_automatic_prefix_cap_refused_before_allocating(self):
        m, seed = preset("tml")
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                automatic_prefix(m, seed, DEFAULT_LENGTH_CAP + 1)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()


class TestSpecParsing:
    def test_numeric_names_sorted_by_value(self):
        spec = parse_morphism_spec("1 -> 12\n0 -> 01\n2 -> 20\n")
        assert spec.morphism.alphabet.letters == (0, 1, 2)
        assert [str(im) for im in spec.morphism.images] == ["01", "12", "20"]
        assert spec.seed == 1

    def test_letter_names_in_appearance_order(self):
        spec = parse_morphism_spec("a -> abc\nb -> bca\nc -> cab\n")
        assert spec.morphism.alphabet.names == ("a", "b", "c")
        assert spec.seed == 0

    def test_comments_and_blanks(self):
        spec = parse_morphism_spec("# doubling\n\n0 -> 01  # zero\n1 -> 12\n2 -> 20\n")
        assert str(spec.morphism.images[0]) == "01"

    def test_coding_lines(self):
        spec = parse_morphism_spec("a -> abc\nb -> bca\nc -> cab\na = 0\nb = 1\nc = 3\n")
        assert spec.coding is not None
        assert spec.coding.values == (0, 1, 3)

    def test_comma_images_for_multichar_names(self):
        spec = parse_morphism_spec("x0 -> x0,x1\nx1 -> x1,x0\n")
        assert spec.morphism.alphabet.names == ("x0", "x1")
        assert len(spec.morphism.images[0]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "0 -> 01\n0 -> 10\n1 -> 12\n2 -> 20\n",
            "0 -> \n1 -> 12\n2 -> 20\n",
            "0 -> 01\njunk line\n",
            "a -> ab\nb -> ba\na = 1\n",
            "a -> ab\nb -> ba\na = 1\nb = 2\nq = 3\n",
            "a -> ab\nb -> ba\na = x\nb = 2\n",
            "0 -> 05\n1 -> 10\n",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(MorphismParseError):
            parse_morphism_spec(text)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(MorphismParseError, match="line 2"):
            parse_morphism_spec("0 -> 01\nwhat\n")

    def test_duplicate_coding_line(self):
        with pytest.raises(MorphismParseError, match="^line 4: duplicate coding for 'a'$"):
            parse_morphism_spec("a -> ab\nb -> ba\na = 1\na = 7\nb = 0\n")

    def test_duplicate_coding_line_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("a -> ab\nb -> ba\na = 1\na = 7\nb = 0\n")
        assert main(["complexity", "--morphism", str(f), "--n-to", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("morphic: ") and "line 4: duplicate coding for 'a'" in err
