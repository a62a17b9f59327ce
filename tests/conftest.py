"""Shared fixtures and independent oracles for the test suite.

The oracle functions here compute letters arithmetically, or factors
by the block argument on raw bytes, with no code shared with the
package's substitution machinery; tests lean on them whenever a value
could otherwise only be checked against itself.
"""

import pytest

from morphic.complexity import FactorScanner
from morphic.ivp import sigma3_stream
from morphic.witnesses import ternary_stream


def popcount_letter(i: int) -> int:
    """Letter i of the doubling fixed point: binary digit sum mod 3."""
    return bin(i).count("1") % 3


def digit3_letter(i: int) -> int:
    """Letter i of the rotation fixed point: ternary digit sum mod 3."""
    s = 0
    while i:
        i, d = divmod(i, 3)
        s += d
    return s % 3


def substitute(images, word: bytes, times: int = 1) -> bytes:
    """sigma^times(word) on raw bytes; ``images[s]`` is the image of symbol s."""
    for _ in range(times):
        word = b"".join(images[s] for s in word)
    return word


def pair_closure(images, seed: int) -> set[bytes]:
    """Length-2 factors of the fixed point: u0 u1, closed under inner and straddling pairs."""
    pairs = {images[seed][:2]}
    while True:
        new = set(pairs)
        for x in {s for p in pairs for s in p}:
            new.update(images[x][i : i + 2] for i in range(len(images[x]) - 1))
        for a, b in pairs:
            new.add(bytes((images[a][-1], images[b][0])))
        if new == pairs:
            return pairs
        pairs = new


def block_power(images, seed: int, n: int, max_steps: int = 40) -> int | None:
    """Least K with |sigma^K(x)| >= n - 1 for every letter x of the fixed
    point, or None if some letter stays shorter for max_steps steps."""
    letters = {s for p in pair_closure(images, seed) for s in p}
    lengths = [1] * len(images)
    for K in range(max_steps + 1):
        if min(lengths[x] for x in letters) >= n - 1:
            return K
        lengths = [sum(lengths[s] for s in im) for im in images]
    return None


def block_haystacks(images, seed: int, n: int) -> list[bytes]:
    """sigma^K(ab) for every length-2 factor ab; together they hold every
    length-n factor, and each of their windows is one."""
    K = block_power(images, seed, n)
    return [substitute(images, p, K) for p in pair_closure(images, seed)]


def block_factors(images, seed: int, n: int) -> set[bytes]:
    out = set()
    for hay in block_haystacks(images, seed, n):
        out |= brute_factors(hay, n)
    return out


def brute_factors(data: bytes, n: int) -> set[bytes]:
    return {data[i : i + n] for i in range(len(data) - n + 1)}


def first_occurrences(data: bytes, n: int) -> dict[bytes, int]:
    """Every length-n window of data with its first start, in that order."""
    first: dict[bytes, int] = {}
    for i in range(len(data) - n + 1):
        first.setdefault(data[i : i + n], i)
    return first


def tech_pair(ub: bytes, i: int, vb: bytes, j: int) -> bool:
    """One anchored pair: can a forward or backward shift gain exactly 1."""
    s = 2
    for m in range(1, 192 - max(i, j)):
        s += vb[j + m] - ub[i + m]
        if s == 1:
            return True
    s = 0
    for p in range(1, min(i, j) + 1):
        s += ub[i - p] - vb[j - p]
        if s == 1:
            return True
    return False


def shift_gain_misses(expansions: list[bytes]) -> tuple[list[tuple[int, int]], int]:
    """The (i, j) anchor pairs of 192-letter expansions that no shift takes
    to gain 1, in row-major order, and the number of pairs tried."""
    a_anchors = [(e, i) for e in expansions for i in range(64, 128) if e[i] == 0]
    b_anchors = [(e, j) for e in expansions for j in range(64, 128) if e[j] == 2]
    misses = [(i, j) for ub, i in a_anchors for vb, j in b_anchors if not tech_pair(ub, i, vb, j)]
    return misses, len(a_anchors) * len(b_anchors)


def brute_parikh_set(data: bytes, n: int, size: int = 3) -> set[tuple[int, ...]]:
    out = set()
    for i in range(len(data) - n + 1):
        w = data[i : i + n]
        out.add(tuple(w.count(bytes([s])) for s in range(size)))
    return out


@pytest.fixture(scope="session")
def tml():
    return ternary_stream()


@pytest.fixture(scope="session")
def s3():
    return sigma3_stream()


@pytest.fixture(scope="session")
def tml_scan(tml):
    return FactorScanner(tml)


@pytest.fixture(scope="session")
def s3_scan(s3):
    return FactorScanner(s3)
