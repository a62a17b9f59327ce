"""Letter-to-word morphisms and their fixed-point streams.

Two independent generation routes are provided for uniform morphisms:
prefix substitution (FixedPointStream) and direct digit-path
evaluation (automatic_prefix).  Agreement between the two guards
every downstream computation against generator bugs.

FixedPointStream rests on u = sigma(u): its buffer always equals sigma
of its first done symbols, so a step appends sigma of the next symbols
not yet substituted, at most one chunk of them, and every symbol is
substituted once.  A prefix of n symbols therefore costs one buffer of
about n bytes plus one chunk and its image.  A uniform image is written
digit by digit at strided positions.  A non-uniform image is written the
same way into digit planes at the stride of the widest image, padded
with a gap byte past the end of each shorter one, and one translate then
drops the gaps.  Those planes take widest bytes per substituted symbol,
so images wider than _STEP_BYTES // _CUT_CHUNK = 8 letters replace
marker bytes instead.  Every route costs time in proportion to the image.

automatic_prefix never substitutes a word: every letter starts at the
seed and walks the base-r digits of its own index, most significant
first.  A fixed point u of an r-uniform morphism is also B-automatic for
B = r**c, u[b * B + i] = sigma**c(u[b])[i], so the walk reads c digits
at a time through one table row per letter, built from sigma's digit
table alone.  Each letter's high digits walk through the shorter prefix
one level up, itself walked the same way, and its low c digits through
one row; nothing calls FixedPointStream or Morphism.apply, which keeps
the route independent of the stream.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .words import (
    Alphabet,
    Coding,
    ResourceLimitError,
    Word,
    WordDomainError,
)

DEFAULT_LENGTH_CAP = 1 << 30

# marker byte 128 + s stands for letter s while an image too wide for digit
# planes replaces it; letters and images stay below MAX_LETTERS = 16
_MARKERS = bytes((128 + s) % 256 for s in range(256))
# the byte that pads a digit plane past the end of a shorter image
_GAP = b"\xff"

PRESET_NAMES = ("tml", "sigma3")

# bytes of scratch one stream step may take beside its image, about the
# size of a core's cache
_STEP_BYTES = 1 << 20
# tail symbols one stream step substitutes at most: their int64 image ends
# take _STEP_BYTES, and so may their digit planes
_CUT_CHUNK = _STEP_BYTES // 8
# automatic_prefix's table rows hold the largest power of the image width up
# to this many letters, or the width itself when wider: the rows of 16
# letters then take 64 kB, inside a core's cache
_ROW_LETTERS = 1 << 12


class MorphismParseError(ValueError):
    """A morphism spec file could not be parsed; message carries the line number."""


@dataclass(frozen=True)
class Morphism:
    """Non-erasing letter-to-word map, extended to words by concatenation."""

    alphabet: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        if len(images) != self.alphabet.size:
            raise WordDomainError("exactly one image per letter required")
        for im in images:
            if im.alphabet != self.alphabet:
                raise WordDomainError("image over a different alphabet")
            if len(im) == 0:
                raise WordDomainError("erasing morphisms are not supported")
        object.__setattr__(self, "images", images)

    @property
    def uniform_width(self) -> int | None:
        """Common image length, or None when images differ in length."""
        widths = {len(im) for im in self.images}
        return widths.pop() if len(widths) == 1 else None

    def is_prolongable_on(self, seed: int) -> bool:
        im = self.images[seed]
        return len(im) >= 2 and im.symbols[0] == seed

    def apply(self, u: Word) -> Word:
        if u.alphabet != self.alphabet:
            raise WordDomainError("word over a different alphabet")
        return Word.from_checked(self.alphabet, b"".join(self.images[s].symbols for s in u.symbols))


class FixedPointStream:
    """Lazily materialized prefix of the fixed point u = sigma(u) on a seed.

    The morphism must be prolongable on the seed (its image starts with
    the seed and has length at least 2).  The stream keeps done, the
    number of leading symbols already substituted, and its buffer always
    equals sigma(buffer[:done]), from sigma(seed) with done = 1 on.  A
    step appends sigma of at most _CUT_CHUNK symbols of the unsubstituted
    tail buffer[done:], so every symbol is substituted once over the
    stream's life and produced letters never change.  Extension is
    serialized by a lock; snapshots handed out by array() are read-only
    views and remain valid across later extensions.
    """

    def __init__(self, morphism: Morphism, seed: int):
        if not 0 <= seed < morphism.alphabet.size:
            raise WordDomainError("seed symbol out of range")
        if not morphism.is_prolongable_on(seed):
            raise WordDomainError("morphism is not prolongable on the requested seed")
        self.morphism = morphism
        self.seed = seed
        self._images = [im.symbols for im in morphism.images]
        self._width = morphism.uniform_width
        self._widest = max(map(len, self._images))
        self._tables = None
        if self._width is not None or _CUT_CHUNK * self._widest <= _STEP_BYTES:
            # tables[d] translates s to digit d of sigma(s), or to the gap
            # byte past the end of a shorter image
            self._tables = [
                b"".join(im[d : d + 1] or _GAP for im in self._images).ljust(256, b"\0")
                for d in range(self._widest)
            ]
        if self._width is None:
            self._lengths = np.array([len(im) for im in self._images], dtype=np.int64)
        # read-only, over bytes that no later step writes to
        self._buf = np.frombuffer(self._images[seed], dtype=np.uint8)
        self._done = 1
        self._lock = threading.Lock()

    @property
    def alphabet(self) -> Alphabet:
        return self.morphism.alphabet

    @property
    def materialized(self) -> int:
        return len(self._buf)

    def _cut(self, tail: np.ndarray, need: int) -> int:
        """Fewest leading symbols of tail whose image has at least need
        symbols, or all of tail when its whole image is shorter."""
        if len(tail) * self._widest < need:
            return len(tail)
        if self._width is not None:
            return -(-need // self._width)
        # ends[i] = |sigma(tail[:i + 1])|
        ends = np.cumsum(self._lengths[tail])
        return min(len(tail), int(np.searchsorted(ends, need)) + 1)

    def _substitute(self, word: bytes, out: np.ndarray) -> int:
        """Write sigma(word) at the start of out and return its length."""
        stride = self._widest
        if self._width is not None:
            # digit d of every image at stride position d
            end = len(word) * stride
            for d, table in enumerate(self._tables):
                out[d:end:stride] = np.frombuffer(word.translate(table), dtype=np.uint8)
            return end
        if self._tables is None:
            image = word.translate(_MARKERS)
            for s, im in enumerate(self._images):
                image = image.replace(_MARKERS[s : s + 1], im)
        else:
            # the same planes at the widest image's stride; a shorter image
            # leaves gap bytes there for one translate to drop.  The planes
            # are a bytearray: translating a bytes copy of them, whose result
            # is shrunk by realloc on every step, fragmented the heap and
            # raised perfbench's user-morphisms peak RSS by 2 MB on some seeds
            gapped = bytearray(len(word) * stride)
            planes = np.frombuffer(gapped, dtype=np.uint8)
            for d, table in enumerate(self._tables):
                planes[d::stride] = np.frombuffer(word.translate(table), dtype=np.uint8)
            image = gapped.translate(None, _GAP)
        out[: len(image)] = np.frombuffer(image, dtype=np.uint8)
        return len(image)

    def ensure(self, n: int) -> None:
        """Materialize at least the first n symbols.

        Each step appends sigma of the next tail symbols, at most
        _CUT_CHUNK of them; the last one substitutes only the fewest
        whose image reaches n, so fewer than n + max|sigma(x)| symbols
        are materialized for the largest request n >= 1, and no step
        holds more than one chunk and its image beside the buffer.
        """
        if n < 0:
            raise WordDomainError(f"prefix length {n} is negative")
        if n <= len(self._buf):
            return
        if n > DEFAULT_LENGTH_CAP:
            raise ResourceLimitError(f"prefix request {n} exceeds cap {DEFAULT_LENGTH_CAP}")
        with self._lock:
            buf, done = self._buf, self._done
            if n <= len(buf):  # extended by another thread meanwhile
                return
            # every step but the last ends before n, and the last less than
            # one image past it, so each step writes its image in place
            out = np.empty(n + self._widest - 1, dtype=np.uint8)
            total = len(buf)
            out[:total] = buf
            while total < n:
                tail = out[done : min(total, done + _CUT_CHUNK)]
                k = self._cut(tail, n - total)
                total += self._substitute(tail[:k].tobytes(), out[total:])
                done += k
            out.setflags(write=False)
            self._buf, self._done = out[:total], done

    def array(self, n: int) -> np.ndarray:
        """Read-only snapshot of the first n symbols."""
        self.ensure(n)
        return self._buf[:n]

    def prefix(self, n: int) -> Word:
        return Word.from_checked(self.alphabet, bytes(self.array(n)))


def automatic_prefix(m: Morphism, seed: int, n: int) -> np.ndarray:
    """First n letters via vectorized digit-path evaluation.

    Independent of the substitution route: letter i walks the base-r
    digits of i (most significant first) from the seed, with no word
    ever substituted.  B = r**c is the largest power of r up to
    _ROW_LETTERS, or r itself for wider images, and rows[s] =
    sigma**c(s) holds the B letters reached from s along every c-digit
    string.  Letter b * B + i is then rows[u[b]][i]: its high digits
    walk to u[b], one level up, and its low c digits through one row.
    The top level is one row of the seed, and each level below it one
    row lookup per letter of the level above.
    """
    r = m.uniform_width
    if r is None or r < 2:
        raise WordDomainError("digit-path evaluation requires a uniform morphism of width >= 2")
    if not m.is_prolongable_on(seed):
        raise WordDomainError("morphism is not prolongable on the requested seed")
    if n < 0:
        raise WordDomainError(f"prefix length {n} is negative")
    if n > DEFAULT_LENGTH_CAP:
        raise ResourceLimitError(f"prefix request {n} exceeds cap {DEFAULT_LENGTH_CAP}")
    base = r
    while base * r <= _ROW_LETTERS:
        base *= r
    # digits[s][d] = digit d of sigma(s); rows[s] = sigma**j(s) after j steps
    k = m.alphabet.size
    digits = np.frombuffer(b"".join(im.symbols for im in m.images), dtype=np.uint8).reshape(k, r)
    rows = np.arange(k, dtype=np.uint8)[:, None]
    while rows.shape[1] < base:
        rows = digits[rows].reshape(k, -1)
    # lengths[j + 1] letters one level up determine the lengths[j] below
    lengths = [n]
    while lengths[-1] > base:
        lengths.append(-(-lengths[-1] // base))
    states = rows[seed, : lengths.pop()].copy()
    for length in reversed(lengths):
        high, states = states, np.empty(length, dtype=np.uint8)
        full = length // base
        # letters never need clipping; "clip" lets numpy write out in place
        np.take(rows, high[:full], axis=0, out=states[: full * base].reshape(full, base), mode="clip")
        states[full * base :] = rows[high[-1], : length - full * base]
    return states


def preset(name: str) -> tuple[Morphism, int]:
    """Built-in (morphism, seed symbol) pairs.

    "tml": the doubling morphism 0 -> 01, 1 -> 12, 2 -> 20 on {0,1,2},
    seeded at 0.  "sigma3": the rotation morphism a -> abc, b -> bca,
    c -> cab on {a,b,c}, seeded at a.
    """
    if name == "tml":
        alpha = Alphabet((0, 1, 2))
        images = tuple(Word(alpha, bytes(im)) for im in ((0, 1), (1, 2), (2, 0)))
        return Morphism(alpha, images), 0
    if name == "sigma3":
        alpha = Alphabet((0, 1, 2), ("a", "b", "c"))
        images = tuple(Word(alpha, bytes(im)) for im in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        return Morphism(alpha, images), 0
    raise WordDomainError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


@dataclass(frozen=True)
class MorphismSpec:
    """Parsed morphism file: the morphism, its default seed, optional coding."""

    morphism: Morphism
    seed: int
    coding: Coding | None


def parse_morphism_spec(text: str) -> MorphismSpec:
    """Parse a morphism spec.

    One rule per line, ``letter -> image``; optional coding lines
    ``letter = integer``.  Letters are single tokens.  Images are
    unseparated strings when every letter name is one character,
    comma-separated tokens otherwise.  Blank lines and ``#`` comments
    are ignored.
    """
    rules: dict[str, str] = {}
    coding_lines: dict[str, int] = {}
    order: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            head, _, image = line.partition("->")
            head = head.strip()
            image = image.strip()
            if not head or " " in head or "," in head:
                raise MorphismParseError(f"line {lineno}: bad letter token {head!r}")
            if head in rules:
                raise MorphismParseError(f"line {lineno}: duplicate rule for {head!r}")
            if not image:
                raise MorphismParseError(f"line {lineno}: empty image for {head!r}")
            rules[head] = image
            order.append(head)
        elif "=" in line:
            head, _, value = line.partition("=")
            head = head.strip()
            if head in coding_lines:
                raise MorphismParseError(f"line {lineno}: duplicate coding for {head!r}")
            try:
                coding_lines[head] = int(value.strip())
            except ValueError:
                raise MorphismParseError(f"line {lineno}: bad coding value {value.strip()!r}") from None
        else:
            raise MorphismParseError(f"line {lineno}: expected 'letter -> image' or 'letter = integer'")
    if not rules:
        raise MorphismParseError("no rules found")

    numeric = True
    try:
        values = {head: int(head) for head in order}
    except ValueError:
        numeric = False
    if numeric:
        names = tuple(sorted(order, key=lambda h: values[h]))
        alpha = Alphabet(tuple(values[h] for h in names), names)
    else:
        alpha = Alphabet(tuple(range(len(order))), tuple(order))

    images = []
    for nm in alpha.names:
        try:
            images.append(Word(alpha, alpha.parse(rules[nm])))
        except WordDomainError as exc:
            raise MorphismParseError(f"rule for {nm!r}: {exc}") from None
    morphism = Morphism(alpha, tuple(images))

    coding = None
    if coding_lines:
        missing = [nm for nm in alpha.names if nm not in coding_lines]
        if missing:
            raise MorphismParseError(f"coding incomplete: no value for {missing[0]!r}")
        unknown = [nm for nm in coding_lines if nm not in alpha.names]
        if unknown:
            raise MorphismParseError(f"coding for unknown letter {unknown[0]!r}")
        coding = Coding(alpha, tuple(coding_lines[nm] for nm in alpha.names))

    return MorphismSpec(morphism, alpha.symbol_of(order[0]), coding)


def load_morphism_file(path: str | Path) -> MorphismSpec:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MorphismParseError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MorphismParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    try:
        return parse_morphism_spec(text)
    except MorphismParseError as exc:
        raise MorphismParseError(f"{path}: {exc}") from None
