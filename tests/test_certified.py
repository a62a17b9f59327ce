"""The factor window, checked against the block-argument oracle and brute force."""

import subprocess
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    block_factors,
    block_haystacks,
    block_power,
    brute_factors,
    brute_parikh_set,
    pair_closure,
    popcount_letter,
    substitute,
)
from morphic import complexity
from morphic.complexity import FactorScanner, build_complexity_table
from morphic.morphisms import FixedPointStream, Morphism, parse_morphism_spec
from morphic.witnesses import ternary_stream
from morphic.words import Alphabet, Coding, ResourceLimitError, Word

N_MAX = 16
# Largest scan window a drawn morphism may need, which keeps each example cheap.
WINDOW_LIMIT = 1 << 15
BRUTE_LENGTH = 1 << 16

SIX_LETTERS = """
a -> afff
b -> beae
c -> fcbb
d -> ecfe
e -> dfaa
f -> afcd
"""


def window_size(images, n: int) -> int | None:
    """Length of sigma^K(u[:i+2]), i the last first occurrence of a length-2 factor."""
    K = block_power(images, 0, n)
    if K is None:
        return None
    pairs = pair_closure(images, 0)
    prefix = images[0][:2]
    while {prefix[i : i + 2] for i in range(len(prefix) - 1)} != pairs:
        prefix = substitute(images, prefix)
        if len(prefix) > WINDOW_LIMIT:
            return None
    end = max(prefix.find(p) for p in pairs) + 2
    sizes = {}
    for s in set(prefix[:end]):
        block = bytes((s,))
        for _ in range(K):
            block = substitute(images, block)
            if len(block) > WINDOW_LIMIT:
                return None
        sizes[s] = len(block)
    return sum(sizes[s] for s in prefix[:end])


@st.composite
def growing_morphisms(draw):
    """Images over 2-6 letters of length 1-5, prolongable on letter 0."""
    k = draw(st.integers(2, 6))
    if draw(st.booleans()):
        widths = [draw(st.integers(2, 5))] * k
    else:
        widths = [draw(st.integers(1, 5)) for _ in range(k)]
        widths[0] = max(widths[0], 2)
    images = [bytearray(draw(st.lists(st.integers(0, k - 1), min_size=w, max_size=w))) for w in widths]
    images[0][0] = 0
    images = tuple(bytes(im) for im in images)
    size = window_size(images, N_MAX)
    assume(size is not None and size <= WINDOW_LIMIT)
    # narrow codings count sums with bincount from a negative least sum,
    # wide ones take np.unique
    bound = draw(st.sampled_from((9, 10**6)))
    values = tuple(draw(st.lists(st.integers(-bound, bound), min_size=k, max_size=k)))
    return images, values


def stream_of(images) -> FixedPointStream:
    alpha = Alphabet(tuple(range(len(images))))
    return FixedPointStream(Morphism(alpha, tuple(Word(alpha, im) for im in images)), 0)


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(growing_morphisms())
def test_table_matches_block_oracle(case):
    images, values = case
    stream = stream_of(images)
    assert FactorScanner(stream)._growing
    rows = build_complexity_table(stream, 1, N_MAX, coding=Coding(stream.alphabet, values)).rows
    factors = block_factors(images, 0, N_MAX)
    # The oracle's closure rule, checked without it: every window of a long
    # prefix is a factor, and the prefix outgrows the block window.
    prefix = bytes((0,))
    while len(prefix) < BRUTE_LENGTH:
        prefix = substitute(images, prefix)
    assert brute_factors(prefix[:BRUTE_LENGTH], N_MAX) == factors
    for row in rows:
        n = row.n
        layer = {f[:n] for f in factors}
        vectors = {tuple(f.count(bytes((s,))) for s in range(len(images))) for f in layer}
        sums = {sum(c * v for c, v in zip(p, values)) for p in vectors}
        got = (row.rho, row.rho_ab, row.rho_plus, row.ds_min, row.ds_max)
        assert got == (len(layer), len(vectors), len(sums), min(sums), max(sums)), n


@st.composite
def many_letter_morphisms(draw):
    """Images over 2-16 letters of length 2-3, prolongable on letter 0."""
    k = draw(st.integers(2, 16))
    widths = [draw(st.integers(2, 3)) for _ in range(k)]
    images = [bytearray(draw(st.lists(st.integers(0, k - 1), min_size=w, max_size=w))) for w in widths]
    images[0][0] = 0
    return tuple(bytes(im) for im in images)


def haystack_parikh_set(images, n: int) -> set[tuple[int, ...]]:
    vectors = set()
    for hay in block_haystacks(images, 0, n):
        vectors |= brute_parikh_set(hay, n, len(images))
    return vectors


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(many_letter_morphisms(), st.integers(1, 20))
def test_parikh_set_matches_block_haystacks(images, n):
    # 16 letters in radix n + 1 pass 2**63 from n = 18 on
    size = window_size(images, n)
    assume(size is not None and size <= WINDOW_LIMIT)
    assert FactorScanner(stream_of(images)).parikh_set(n) == haystack_parikh_set(images, n)


def test_sixteen_letter_parikh_keys_do_not_wrap():
    # At n = 31 the radix is 2**5 and 32**13 = 2**65: a key left to wrap
    # modulo 2**64 drops the counts of letters 13 and 14, and 23 of the
    # 139 vectors of this morphism would merge with others.
    images = tuple(
        bytes.fromhex(im)
        for im in "000c 0607 00080b 0009 0b00 0d0b 030c09 020e0d 0a0001 0f0c 090c0b 040d02 0909 030c 020d01 0d00".split()
    )
    scanner = FactorScanner(stream_of(images))
    for n in (18, 31):
        assert scanner.parikh_set(n) == haystack_parikh_set(images, n), n


def test_six_letter_morphism_has_54_factors_of_length_3():
    spec = parse_morphism_spec(SIX_LETTERS)
    scanner = FactorScanner(FixedPointStream(spec.morphism, spec.seed))
    assert scanner._growing
    assert scanner.subword_complexity(3) == 54
    images = tuple(im.symbols for im in spec.morphism.images)
    assert len(block_factors(images, spec.seed, 3)) == 54


def test_chacon_window_holds_every_factor():
    spec = parse_morphism_spec("0 -> 0010\n1 -> 1\n")
    scanner = FactorScanner(FixedPointStream(spec.morphism, spec.seed))
    assert not scanner._growing
    assert [scanner.subword_complexity(n) for n in range(2, 13)] == [2 * n - 1 for n in range(2, 13)]


def test_bounded_letter_window_ends_at_the_last_first_occurrence():
    # the first run of k b's ends sigma^k(a), 2^(k+1) - 1 symbols in, and
    # b^12 is the last length-12 factor to appear
    spec = parse_morphism_spec("a -> aab\nb -> b\n")
    scanner = FactorScanner(FixedPointStream(spec.morphism, spec.seed))
    assert not scanner._growing
    assert len(scanner.window(12)) == scanner.recurrence_index(12) == 8191
    images = tuple(im.symbols for im in spec.morphism.images)
    prefix = substitute(images, bytes((spec.seed,)), 16)
    assert len(prefix) >= BRUTE_LENGTH
    assert scanner.subword_complexity(12) == len(brute_factors(prefix, 12)) == 60
    # its digit sums read every start of the window (letters a, b are 0, 1)
    window = bytes(scanner.window(12))
    assert scanner.digit_sum_set(12) == {sum(window[i : i + 12]) for i in range(len(window) - 11)}
    assert len(scanner._ds_scratch) == len(window) - 11


def test_bounded_letter_window_reaches_a_late_letter():
    # u = 0 (1^300 2)(1^300 2)...: the first 2 sits 301 symbols in, past
    # a stretch of 1s whose factor set alone looks complete.
    spec = parse_morphism_spec("0 -> 0" + "1" * 300 + "2\n1 -> 1\n2 -> 2\n")
    stream = FixedPointStream(spec.morphism, spec.seed)
    assert not FactorScanner(stream)._growing
    prefix = substitute((bytes((0,)) + bytes((1,)) * 300 + bytes((2,)), bytes((1,)), bytes((2,))), bytes((0,)), 8)
    for row in build_complexity_table(stream, 1, 4).rows:
        vectors = brute_parikh_set(prefix, row.n)
        sums = {b + 2 * c for _, b, c in vectors}
        expected = (len(brute_factors(prefix, row.n)), len(vectors), len(sums), min(sums), max(sums))
        assert (row.rho, row.rho_ab, row.rho_plus, row.ds_min, row.ds_max) == expected, row.n


def test_late_factors_of_a_bounded_letter_morphism():
    # the last length-10 factor first occurs at 206,660; the first 8192
    # symbols hold only 41 factors of length 8 and 55 of length 10
    spec = parse_morphism_spec("a -> aaba\nb -> cb\nc -> c\n")
    scanner = FactorScanner(FixedPointStream(spec.morphism, spec.seed))
    assert scanner.subword_complexity(8) == 42
    assert scanner.subword_complexity(10) == 61
    assert len(scanner.window(10)) == scanner.recurrence_index(10) == 206670


@st.composite
def bounded_letter_morphisms(draw):
    """Images over 2-4 letters of length 1-4, prolongable on letter 0,
    with a letter other than 0 mapped to itself, and a coding."""
    k = draw(st.integers(2, 4))
    widths = [draw(st.integers(1, 4)) for _ in range(k)]
    widths[0] = max(widths[0], 2)
    images = [bytearray(draw(st.lists(st.integers(0, k - 1), min_size=w, max_size=w))) for w in widths]
    images[0][0] = 0
    fixed = draw(st.integers(1, k - 1))
    images[fixed] = bytearray((fixed,))
    values = tuple(draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k)))
    return tuple(bytes(im) for im in images), values


BOUNDED_N_MAX = 8


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(bounded_letter_morphisms())
def test_bounded_letter_windows_match_brute_force(case):
    images, values = case
    stream = stream_of(images)
    scanner = FactorScanner(stream, Coding(stream.alphabet, values))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "WINDOW_CAP", WINDOW_LIMIT)
        try:
            longest = len(scanner.window(BOUNDED_N_MAX))
        except ResourceLimitError:
            longest = None
    assume(longest is not None and not scanner._growing)
    # sigma^j(0) grows with j; its factor sets only grow, and equal the
    # window's once it is at least as long
    powers = [bytes((0,))]
    while len(powers[-1]) < longest:
        powers.append(substitute(images, powers[-1]))
    prefix = powers[-1]
    for n in range(1, BOUNDED_N_MAX + 1):
        window = bytes(scanner.window(n))
        assert scanner.recurrence_index(n) == len(window), n
        factors = brute_factors(window, n)
        for power in powers:
            assert brute_factors(power, n) <= factors, n
        assert brute_factors(prefix, n) == factors, n
        assert scanner.subword_complexity(n) == len(factors), n
        vectors = brute_parikh_set(prefix, n, len(images))
        assert scanner.parikh_set(n) == vectors, n
        assert scanner.digit_sum_set(n) == {sum(c * v for c, v in zip(p, values)) for p in vectors}, n


def test_tml_digit_sums_scan_nine_blocks_per_length():
    # n in (2^(K-1) + 1, 2^K + 1] has block power K: windows start in the
    # first sigma^K(a) of each of the 9 pairs ab, 9 * 2^K of the 29 * 2^K
    scanner = FactorScanner(ternary_stream())
    for n in range(2, 1026):
        K = (n - 2).bit_length()
        scanner.digit_sum_set(n)
        assert len(scanner.window(n)) == 29 << K, n
        assert len(scanner._ds_scratch) == 9 << K, n


def test_narrow_coding_table_leaves_numpy_ma_unloaded():
    # A plain np.unique imports numpy.ma in numpy 2.x (numpy 1.x loads it
    # with numpy), which lifts a table run's memory by about 1 MB.  Under
    # this coding the digit-sum spread stays within the window's start
    # count, so each length is counted with bincount.
    code = """
import sys
import numpy
before = "numpy.ma" in sys.modules
from morphic.complexity import build_complexity_table
from morphic.ivp import sigma3_stream
from morphic.words import Coding
stream = sigma3_stream()
build_complexity_table(stream, 1, 64, coding=Coding(stream.alphabet, (0, 4, 7)))
print(before, "numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == "True" or after == "False"


def test_window_holds_every_factor(tml_scan):
    tml_images = (bytes((0, 1)), bytes((1, 2)), bytes((2, 0)))
    for n in (1, 2, 3, 7, 17, 33):
        window = bytes(tml_scan.window(n))
        assert {window[i : i + n] for i in range(len(window) - n + 1)} == block_factors(tml_images, 0, n)


def test_wide_coding_digit_sums():
    stream = ternary_stream()
    values = (0, 1, 10**15)
    scanner = FactorScanner(stream, Coding(stream.alphabet, values))
    prefix = bytes(popcount_letter(i) for i in range(4096))
    for n in range(1, 5):
        expected = {b + c * 10**15 for _, b, c in brute_parikh_set(prefix, n)}
        assert scanner.digit_sum_set(n) == frozenset(expected)
