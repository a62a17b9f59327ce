"""Seeded inputs for the benchmark: morphism spec texts and codings.

Nothing here imports the package under test.  The program only ever
sees what these functions return: spec text for ``parse_morphism_spec``
(whose ``letter = value`` lines carry the coding) and coding values on
the command line.  The same seed always yields the same inputs, and
batch ``b`` of a run depends on ``(seed, b)`` alone, so how many
batches a run finishes does not change the earlier ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle

LETTERS = "abcdef"

# Factor lengths the census asks about: a complexity table for
# 1..TABLE_N_TO and a gap census for 1..IVP_N_TO.  The census keeps every
# missing digit sum as a Python int, so its memory grows with the spread
# of the coding; IVP_N_TO bounds that for the widest coding.
TABLE_N_TO = 64
IVP_N_TO = 12

# Wide codings spread their values over [0, WIDE_VALUE].
WIDE_VALUE = 100_000

# Generated morphisms per batch.  Op i of a batch has 2 + i % 5 letters
# and asks for a 2^PREFIX_LOG2[i % 3] prefix; even ops are uniform of
# width 2 + (i // 2) % 4.  Every batch thus has the same size mix, which
# keeps its cost steady, and only the drawn images vary with the seed.
BATCH = 12
PREFIX_LOG2 = (20, 21, 22)

# Every letter must grow, which makes the oracle's haystacks exact; the
# haystack limit caps the oracle's work.  A draw that fails either is
# redrawn.
MAX_GROWTH_STEPS = 40
HAYSTACK_LIMIT = 1 << 18

# The built-in words, as a user would write them in a spec file.
BUILTIN_SPECS = {
    "tml": ("0 -> 01", "1 -> 12", "2 -> 20"),
    "sigma3": ("a -> abc", "b -> bca", "c -> cab"),
}
BUILTIN_IMAGES = {"tml": oracle.TML, "sigma3": oracle.SIGMA3}


@dataclass(frozen=True)
class MorphismCase:
    """One user-morphisms op.

    ``images`` are symbol indices, image of symbol s first; the fixed
    point starts at symbol 0.  A positive ``prefix_len`` asks for that
    many symbols of the fixed point; ``census`` asks for the complexity
    table and gap census under ``coding``.
    """

    spec: str
    images: tuple[bytes, ...]
    prefix_len: int
    coding: tuple[int, ...]
    census: bool

    @property
    def letters(self) -> int:
        return len(self.images)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(len(im) for im in self.images)

    @property
    def uniform(self) -> bool:
        return len(set(self.widths)) == 1


def growth(images: tuple[bytes, ...], n_to: int) -> list[int] | None:
    """|sigma^K(x)| for every letter x, at the least K that makes them all
    at least n_to - 1; None if that K exceeds MAX_GROWTH_STEPS."""
    lengths = [1] * len(images)
    for _ in range(MAX_GROWTH_STEPS + 1):
        if min(lengths) >= n_to - 1:
            return lengths
        lengths = [sum(lengths[s] for s in im) for im in images]
    return None


def _reachable(images: tuple[bytes, ...]) -> bool:
    seen = {0}
    todo = [0]
    while todo:
        for s in images[todo.pop()]:
            if s not in seen:
                seen.add(s)
                todo.append(s)
    return len(seen) == len(images)


def acceptable(images: tuple[bytes, ...], n_to: int = TABLE_N_TO) -> bool:
    """Prolongable on 0, every letter reachable and growing, oracle affordable."""
    if len(images[0]) < 2 or images[0][0] != 0 or not _reachable(images):
        return False
    lengths = growth(images, n_to)
    return lengths is not None and 2 * max(lengths) * len(images) ** 2 <= HAYSTACK_LIMIT


def _draw_images(rng: random.Random, k: int, width: int | None) -> tuple[bytes, ...]:
    """Random images over k letters: all of length ``width``, or of mixed lengths if None."""
    if width is not None:
        widths = [width] * k
    else:
        widths = [1] * k
        while len(set(widths)) == 1:
            widths = [rng.randint(1, 5) for _ in range(k)]
            widths[0] = max(widths[0], 2)
    images = [bytearray(rng.randrange(k) for _ in range(w)) for w in widths]
    images[0][0] = 0
    return tuple(bytes(im) for im in images)


def draw_coding(rng: random.Random, k: int, wide: bool) -> tuple[int, ...]:
    """Values in [0, 9], or for a wide coding 0 first, WIDE_VALUE last, any values between."""
    if not wide:
        return tuple(rng.randint(0, 9) for _ in range(k))
    return (0, *(rng.randint(0, WIDE_VALUE) for _ in range(k - 2)), WIDE_VALUE)


def spec_text(images: tuple[bytes, ...], coding: tuple[int, ...]) -> str:
    names = LETTERS[: len(images)]
    lines = ["# generated morphism"]
    lines += [f"{names[i]} -> {''.join(names[s] for s in im)}" for i, im in enumerate(images)]
    lines += [f"{names[i]} = {v}" for i, v in enumerate(coding)]
    return "\n".join(lines) + "\n"


def builtin_spec_text(word: str, coding: tuple[int, ...]) -> str:
    rules = BUILTIN_SPECS[word]
    lines = [f"# {word}", *rules]
    lines += [f"{rule.split()[0]} = {v}" for rule, v in zip(rules, coding)]
    return "\n".join(lines) + "\n"


def morphism_batch(seed: int, batch: int, census: bool = False) -> list[MorphismCase]:
    """Generated morphisms of one batch; ``census`` also scans each of them."""
    rng = random.Random(f"user-morphisms:{seed}:{batch}")
    cases = []
    for i in range(BATCH):
        k = 2 + i % 5
        width = 2 + (i // 2) % 4 if i % 2 == 0 else None
        while True:
            images = _draw_images(rng, k, width)
            if acceptable(images):
                break
        coding = draw_coding(rng, k, wide=False)
        cases.append(
            MorphismCase(
                spec=spec_text(images, coding),
                images=images,
                prefix_len=1 << PREFIX_LOG2[i % len(PREFIX_LOG2)],
                coding=coding,
                census=census,
            )
        )
    return cases


def census_batch(seed: int, batch: int) -> list[MorphismCase]:
    """Census ops on the built-in words, given as spec text: one narrow, one wide coding each."""
    rng = random.Random(f"census:{seed}:{batch}")
    return [
        MorphismCase(
            spec=builtin_spec_text(word, coding),
            images=BUILTIN_IMAGES[word],
            prefix_len=0,
            coding=coding,
            census=True,
        )
        for word in ("tml", "sigma3")
        for coding in (draw_coding(rng, 3, wide=False), draw_coding(rng, 3, wide=True))
    ]


def cases_for(workload: str, seed: int, batch: int) -> list[MorphismCase]:
    """The ops of one user-morphisms batch, in the order they run."""
    if workload == "user-morphisms":
        return morphism_batch(seed, batch) + census_batch(seed, batch)
    if workload == "user-morphisms-scan":
        return morphism_batch(seed, batch, census=True)
    raise ValueError(f"no morphism batch for workload {workload!r}")


def table_coding(seed: int, batch: int) -> tuple[int, int, int]:
    """Strictly increasing sigma3 coding for the coded table of one batch."""
    rng = random.Random(f"tables:{seed}:{batch}")
    return tuple(sorted(rng.sample(range(10), 3)))
