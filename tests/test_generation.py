"""Both generation routes against the byte-level substitution oracle."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import substitute
from morphic import morphisms
from morphic.morphisms import FixedPointStream, Morphism, automatic_prefix, parse_morphism_spec, preset
from morphic.words import Alphabet, Word

N_MAX = 5000


def morphism_of(images) -> Morphism:
    alpha = Alphabet(tuple(range(len(images))))
    return Morphism(alpha, tuple(Word(alpha, im) for im in images))


def oracle_prefix(images, n: int) -> bytes:
    """First n letters of the fixed point on letter 0, substituting raw bytes."""
    word = b"\x00"
    while len(word) < n:
        word = substitute(images, word[:n])
    return word[:n]


def images_of(draw, k: int, widths) -> tuple[bytes, ...]:
    images = [bytearray(draw(st.lists(st.integers(0, k - 1), min_size=w, max_size=w))) for w in widths]
    images[0][0] = 0
    return tuple(bytes(im) for im in images)


@st.composite
def uniform_cases(draw):
    """A uniform morphism over 2-8 letters of width 2-17 or 65-72, prolongable
    on 0, with a length anywhere up to N_MAX or next to B or B**2, where B is
    the largest power of r up to _ROW_LETTERS (r itself past it): B letters
    fill one table row of the digit-path walk, B + 1 take a second level and
    B**2 + 1 a third.  B**2 is drawn only up to 2**17 letters, for r = 17
    (B = 289) and the wide images (B = r), so that the substitution oracle
    stays quick."""
    k = draw(st.integers(2, 8))
    r = draw(st.integers(2, 17) | st.integers(65, 72))
    images = images_of(draw, k, [r] * k)
    base = r
    while base * r <= morphisms._ROW_LETTERS:
        base *= r
    power = draw(st.sampled_from([p for p in (1, base, base**2) if p <= 1 << 17]))
    n = draw(st.sampled_from([0, power - 1, power, power + 1]) | st.integers(0, N_MAX))
    return images, n


@st.composite
def non_uniform_morphisms(draw):
    """Images of length 1-5, not all of one length, prolongable on 0."""
    k = draw(st.integers(2, 6))
    widths = [draw(st.integers(1, 5)) for _ in range(k)]
    widths[0] = max(widths[0], 2)
    if len(set(widths)) == 1:
        widths[1] = 1
    return images_of(draw, k, widths)


@settings(deadline=None, max_examples=150)
@given(uniform_cases())
def test_uniform_routes_match_substitution(case):
    images, n = case
    m = morphism_of(images)
    expected = oracle_prefix(images, n)
    assert automatic_prefix(m, 0, n).tobytes() == expected
    assert FixedPointStream(m, 0).array(n).tobytes() == expected


@settings(deadline=None, max_examples=60)
@given(uniform_cases(), st.integers(1, 40))
def test_small_lookup_blocks_match_substitution(case, row_letters):
    # rows of a few letters make many levels, each with a ragged last row
    # of any length, and rows of r letters when r > row_letters
    images, n = case
    with mock.patch.object(morphisms, "_ROW_LETTERS", row_letters):
        assert automatic_prefix(morphism_of(images), 0, n).tobytes() == oracle_prefix(images, n)


def test_wide_morphism_below_one_image():
    # n < r: the digit walk has a single pass, and all of it is the ragged tail
    rng = np.random.default_rng(300)
    images = [bytearray(rng.integers(0, 3, 300, dtype=np.uint8).tobytes()) for _ in range(3)]
    images[0][0] = 0
    images = tuple(bytes(im) for im in images)
    m = morphism_of(images)
    for n in (0, 1, 2, 150, 299):
        assert automatic_prefix(m, 0, n).tobytes() == oracle_prefix(images, n)


def test_automatic_prefix_substitutes_no_word(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the digit-path route reached the substitution route")

    monkeypatch.setattr(morphisms, "FixedPointStream", refuse)
    monkeypatch.setattr(Morphism, "apply", refuse)
    rng = np.random.default_rng(17)
    wide = [bytearray(rng.integers(0, 4, 17, dtype=np.uint8).tobytes()) for _ in range(4)]
    wide[0][0] = 0
    for images, n in (
        ((b"\x00\x01", b"\x01\x02", b"\x02\x00"), 256**2 + 1),
        ((b"\x00\x01\x02", b"\x01\x02\x00", b"\x02\x00\x01"), 243**2 - 1),
        (tuple(map(bytes, wide)), 17**3),
    ):
        assert automatic_prefix(morphism_of(images), 0, n).tobytes() == oracle_prefix(images, n)


@settings(deadline=None, max_examples=100)
@given(non_uniform_morphisms(), st.integers(0, N_MAX))
def test_non_uniform_stream_matches_substitution(images, n):
    assert FixedPointStream(morphism_of(images), 0).array(n).tobytes() == oracle_prefix(images, n)


@settings(deadline=None, max_examples=60)
@given(
    non_uniform_morphisms() | uniform_cases().map(lambda case: case[0]),
    st.lists(st.integers(0, N_MAX), min_size=1, max_size=8),
)
def test_rising_requests_stay_within_one_image(images, requests):
    stream = FixedPointStream(morphism_of(images), 0)
    widest = max(map(len, images))
    expected = oracle_prefix(images, max(requests))
    for n in sorted(requests):
        prefix = stream.array(n)
        # the stream holds sigma(seed) from the start
        assert stream.materialized < max(n, 1) + widest
        assert prefix.tobytes() == expected[:n]


def peak_bytes_per_symbol(make, n: int) -> float:
    tracemalloc.start()
    try:
        make()
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


def test_automatic_prefix_peak_memory():
    m, seed = preset("tml")
    n = 1 << 22
    # the letters; the table rows and the levels above take 22 kB
    assert peak_bytes_per_symbol(lambda: automatic_prefix(m, seed, n), n) < 1.05


@pytest.mark.parametrize(
    "text, n",
    [
        ("a -> abbc\nb -> c\nc -> ab\n", 1 << 22),
        # just past a whole iterate of 6,601,569 symbols: the last step cuts
        # a full chunk of the tail short (130,479 of 131,072 symbols) by its
        # cumulative image lengths, and ends exactly at n
        ("a -> ab\nb -> c\nc -> ca\n", 6_606_028),
    ],
    ids=["abbc-c-ab", "ab-c-ca"],
)
def test_non_uniform_stream_peak_memory(text, n):
    # the buffer, plus one chunk's int64 image ends, its digit planes and its image
    spec = parse_morphism_spec(text)
    stream = FixedPointStream(spec.morphism, spec.seed)
    assert peak_bytes_per_symbol(lambda: stream.array(n), n) < 1 + 3 * 2**20 / n
    images = tuple(im.symbols for im in spec.morphism.images)
    assert stream.array(n).tobytes() == oracle_prefix(images, n)


def test_wide_image_stream_replaces_markers():
    # digit planes for a 1000-letter image would take 1000 translate calls
    # and 1000 bytes per substituted symbol; images this wide replace
    # marker bytes instead, in the buffer's memory and well under a second
    spec = parse_morphism_spec("a -> ab" + "c" * 998 + "\nb -> ba\nc -> c\n")
    stream = FixedPointStream(spec.morphism, spec.seed)
    n = 1 << 22
    t0 = time.perf_counter()
    assert peak_bytes_per_symbol(lambda: stream.array(n), n) < 1 + 3 * 2**20 / n
    assert time.perf_counter() - t0 < 1.0
    images = tuple(im.symbols for im in spec.morphism.images)
    assert stream.array(n).tobytes() == oracle_prefix(images, n)


def test_uniform_stream_peak_memory():
    # one buffer of n symbols plus one chunk, never a prefix-sized temporary
    n = 1 << 24
    for name in ("tml", "sigma3"):
        m, seed = preset(name)
        assert peak_bytes_per_symbol(lambda: FixedPointStream(m, seed).array(n), n) < 1 + 2 * 2**20 / n, name


@settings(deadline=None, max_examples=60)
@given(
    non_uniform_morphisms() | uniform_cases().map(lambda case: case[0]),
    st.integers(1, 9),
    st.lists(st.integers(0, N_MAX), min_size=1, max_size=4),
)
def test_chunked_steps_match_substitution(images, chunk, requests):
    # a chunk of a few symbols makes every request take many capped steps
    stream = FixedPointStream(morphism_of(images), 0)
    expected = oracle_prefix(images, max(requests))
    with mock.patch.object(morphisms, "_CUT_CHUNK", chunk):
        for n in sorted(requests):
            assert stream.array(n).tobytes() == expected[:n]
            assert stream.materialized < max(n, 1) + max(map(len, images))


def test_slow_growth_stream_peak_memory():
    # a -> ab, b -> b adds one symbol per step; every step writes into one
    # buffer sized from the request, so memory stays linear
    spec = parse_morphism_spec("a -> ab\nb -> b\n")
    stream = FixedPointStream(spec.morphism, spec.seed)
    n = 100_000
    assert peak_bytes_per_symbol(lambda: stream.array(n), n) < 4
    assert stream.array(n).tobytes() == b"\x00" + b"\x01" * (n - 1)
