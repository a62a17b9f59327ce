"""Letter-to-word morphisms, their iteration, and fixed-point streams.

Two independent generation routes are provided for uniform morphisms:
prefix substitution (FixedPointStream) and direct digit-path
evaluation (automatic_prefix).  Agreement between the two guards
every downstream computation against generator bugs.

automatic_prefix never substitutes a word: every letter starts at the
seed and walks the base-r digits of its own index, most significant
first.  That walk, not a reuse of earlier prefixes, is what keeps it
independent of the stream.
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

PRESET_NAMES = ("tml", "sigma3")


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
        return Word(self.alphabet, b"".join(self.images[s].symbols for s in u.symbols))

    def iterate(self, u: Word, k: int, cap: int = DEFAULT_LENGTH_CAP) -> Word:
        """k-fold application; iterate(u, 0) == u.

        Raises ResourceLimitError before materializing a result longer
        than ``cap`` symbols.
        """
        if k < 0:
            raise WordDomainError("iteration count must be non-negative")
        lengths = tuple(len(im) for im in self.images)
        w = u
        for _ in range(k):
            projected = sum(w.symbols.count(s) * lengths[s] for s in range(self.alphabet.size))
            if projected > cap:
                raise ResourceLimitError(f"iterate would exceed {cap} symbols")
            w = self.apply(w)
        return w


class FixedPointStream:
    """Lazily materialized prefix of the fixed point of a morphism on a seed.

    The morphism must be prolongable on the seed (its image starts with
    the seed and has length at least 2), which makes every materialized
    buffer a prefix of the next: already produced letters never change.
    Extension is serialized by a lock; snapshots handed out by array()
    are read-only views and remain valid across later extensions.
    """

    def __init__(self, morphism: Morphism, seed: int):
        if not 0 <= seed < morphism.alphabet.size:
            raise WordDomainError("seed symbol out of range")
        if not morphism.is_prolongable_on(seed):
            raise WordDomainError("morphism is not prolongable on the requested seed")
        self.morphism = morphism
        self.seed = seed
        width = morphism.uniform_width
        self._imat = None
        if width is not None:
            self._imat = np.array(
                [list(im.symbols) for im in morphism.images], dtype=np.uint8
            )
        self._buf = np.array([seed], dtype=np.uint8)
        self._lock = threading.Lock()

    @property
    def alphabet(self) -> Alphabet:
        return self.morphism.alphabet

    @property
    def materialized(self) -> int:
        return len(self._buf)

    def ensure(self, n: int) -> None:
        """Materialize at least the first n symbols.

        Each step applies the morphism only to the shortest prefix whose
        image reaches n, so fewer than n + max|sigma(x)| symbols are
        materialized for the largest request n.
        """
        if n < 0:
            raise WordDomainError(f"prefix length {n} is negative")
        if n <= len(self._buf):
            return
        if n > DEFAULT_LENGTH_CAP:
            raise ResourceLimitError(f"prefix request {n} exceeds cap {DEFAULT_LENGTH_CAP}")
        with self._lock:
            buf = self._buf
            while len(buf) < n:
                if self._imat is not None:
                    width = self._imat.shape[1]
                    buf = self._imat[buf[: (n + width - 1) // width]].reshape(-1)
                else:
                    images = [im.symbols for im in self.morphism.images]
                    # ends[i] = |sigma(buf[:i + 1])|
                    ends = np.array([len(im) for im in images], dtype=np.int64)[buf]
                    np.cumsum(ends, out=ends)
                    m = min(int(np.searchsorted(ends, n)) + 1, len(buf))
                    cut, ends = buf[:m], ends[:m]
                    out = np.empty(int(ends[-1]), dtype=np.uint8)
                    # sigma(cut[i]) fills out[ends[i] - |sigma(cut[i])|:ends[i]]
                    for s, im in enumerate(images):
                        at = ends[cut == s]
                        at -= len(im)
                        for x in im:
                            out[at] = x
                            at += 1
                    buf = out
            self._buf = buf

    def array(self, n: int) -> np.ndarray:
        """Read-only snapshot of the first n symbols."""
        self.ensure(n)
        view = self._buf[:n].view()
        view.setflags(write=False)
        return view

    def prefix(self, n: int) -> Word:
        return Word(self.alphabet, bytes(self.array(n)))


def automatic_prefix(m: Morphism, seed: int, n: int) -> np.ndarray:
    """First n letters via vectorized digit-path evaluation.

    Independent of the substitution route: letter i walks the base-r
    digits of i (most significant first) through the image table.
    Digit p of i is constant on runs of r**p indices that cycle every
    r**(p+1), so each pass maps strided slices in place.
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
    # step[d][s] = digit d of sigma(s)
    step = np.array([[im.symbols[d] for im in m.images] for d in range(r)], dtype=np.uint8)
    positions = 1
    while r**positions < n:
        positions += 1
    states = np.full(n, seed, dtype=np.uint8)
    for p in range(positions - 1, -1, -1):
        run = r**p
        whole = n // (run * r) * (run * r)
        blocks = states[:whole].reshape(-1, r, run)
        # every state is a letter, so "clip" never clips; it spares take a copy of out
        for d in range(r):
            np.take(step[d], blocks[:, d, :], out=blocks[:, d, :], mode="clip")
            tail = states[whole + d * run : whole + (d + 1) * run]
            np.take(step[d], tail, out=tail, mode="clip")
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
        text = path.read_text()
    except OSError as exc:
        raise MorphismParseError(f"{path}: {exc}") from None
    try:
        return parse_morphism_spec(text)
    except MorphismParseError as exc:
        raise MorphismParseError(f"{path}: {exc}") from None
