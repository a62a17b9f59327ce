"""Independent answers the benchmark checks the program's outputs against.

Shares no code with the package under test.  Factors come from the
block argument: take a prolongable morphism sigma with fixed point u,
and K with |sigma^K(x)| >= n - 1 for every letter x of u.  Since
u = sigma^K(u) is a concatenation of such blocks, every length-n factor
of u lies inside sigma^K(ab) for some length-2 factor ab, and every
window of such a haystack is a factor.  The length-2 factors are the
closure of u0 u1 under inner pairs of images and straddling pairs.

Words are ``bytes`` of symbol indices; ``images[s]`` is the image of
symbol ``s``.
"""

from __future__ import annotations

import hashlib

TML = (bytes((0, 1)), bytes((1, 2)), bytes((2, 0)))
SIGMA3 = (bytes((0, 1, 2)), bytes((1, 2, 0)), bytes((2, 0, 1)))


def substitute(images, word: bytes) -> bytes:
    return b"".join([images[s] for s in word])


def fixed_point_prefix(images, seed: int, n: int) -> bytes:
    word = bytes((seed,))
    while len(word) < n:
        word = substitute(images, word)
    return word[:n]


def prefix_digest(images, seed: int, n: int) -> str:
    return hashlib.sha256(fixed_point_prefix(images, seed, n)).hexdigest()


def pair_closure(images, seed: int) -> set[bytes]:
    """Length-2 factors of the fixed point on ``seed``."""
    first = fixed_point_prefix(images, seed, 2)
    pairs = {first}
    while True:
        letters = {s for p in pairs for s in p}
        new = set(pairs)
        for x in letters:
            im = images[x]
            new.update(im[i : i + 2] for i in range(len(im) - 1))
        for p in pairs:
            new.add(bytes((images[p[0]][-1], images[p[1]][0])))
        if new == pairs:
            return pairs
        pairs = new


def power(images, word: bytes, K: int) -> bytes:
    for _ in range(K):
        word = substitute(images, word)
    return word


def factors_by_length(images, seed: int, n_to: int) -> list[set[bytes]]:
    """F[n] = the set of length-n factors of the fixed point, 1 <= n <= n_to.

    Brute force on the haystacks at the longest length only; a factor of
    an infinite word always extends to the right, so shorter factors are
    exactly the prefixes of longer ones.
    """
    pairs = pair_closure(images, seed)
    letters = sorted({s for p in pairs for s in p})
    K = 0
    while min(len(power(images, bytes((x,)), K)) for x in letters) < n_to - 1:
        K += 1
    top: set[bytes] = set()
    for p in pairs:
        hay = power(images, p, K)
        top.update(hay[i : i + n_to] for i in range(len(hay) - n_to + 1))
    F: list[set[bytes]] = [set() for _ in range(n_to + 1)]
    F[n_to] = top
    for n in range(n_to - 1, 0, -1):
        F[n] = {f[:n] for f in F[n + 1]}
    return F


def parikh_sets(F: list[set[bytes]], k: int) -> list[set[tuple[int, ...]]]:
    """P[n] = letter-count vectors of the length-n factors."""
    n_to = len(F) - 1
    P: list[set[tuple[int, ...]]] = [set() for _ in range(n_to + 1)]
    for f in F[n_to]:
        counts = [0] * k
        for n, s in enumerate(f, start=1):
            counts[s] += 1
            P[n].add(tuple(counts))
    return P


def gap_fingerprint(ds: set[int]) -> tuple[int, int, int, int]:
    """(hi - lo + 1, count, sum, sum of squares) of [lo, hi] minus ``ds``.

    The program's gap census lists those missing values; comparing the
    count and the two power sums checks it without materializing them.
    Digit sums are non-negative here, since every coding value is.
    """
    lo, hi = min(ds), max(ds)

    def s1(x: int) -> int:
        return x * (x + 1) // 2

    def s2(x: int) -> int:
        return x * (x + 1) * (2 * x + 1) // 6

    count = hi - lo + 1 - len(ds)
    total = s1(hi) - s1(lo - 1) - sum(ds)
    squares = s2(hi) - s2(lo - 1) - sum(x * x for x in ds)
    return hi - lo + 1, count, total, squares


def coded_sums(P: list[set[tuple[int, ...]]], values) -> list[set[int]]:
    return [{sum(c * v for c, v in zip(p, values)) for p in vectors} for vectors in P]


def table_rows(F, P, values) -> list[list[int]]:
    """Rows [n, rho, rho_ab, rho_plus, ds_min, ds_max, evenness] for 1..n_to."""
    DS = coded_sums(P, values)
    return [
        [n, len(F[n]), len(P[n]), len(DS[n]), min(DS[n]), max(DS[n]),
         max(max(p) - min(p) for p in P[n])]
        for n in range(1, len(F))
    ]


def ivp_expectation(P, values, n_to: int) -> dict:
    """Gap fingerprints [count, sum, squares] by length, plus tuples checked."""
    gaps = {}
    tuples = 0
    for n, ds in enumerate(coded_sums(P[: n_to + 1], values)[1:], start=1):
        width, count, total, squares = gap_fingerprint(ds)
        tuples += width
        if count:
            gaps[n] = [count, total, squares]
    return {"gaps": gaps, "tuples_checked": tuples}


def verify_all_expectation() -> dict[str, int]:
    """tuples_checked of each registered check at the README's default range."""
    F = factors_by_length(TML, 0, 10)
    factor_tuples = 3 * sum(len(F[n]) for n in range(1, 11))
    return {
        "theorem1": 4096,
        "ds-bounds": 4096,
        "witness": 4096,
        "sigma-tau": factor_tuples,
        "mirror-closure": factor_tuples,
        "dc-counts": 2 * (24 + 1),
        "prefix-suffix": 4095,
        "tech-lemma": 102400,
        "ivp-small": sum(2 * (n.bit_length() - 1) + 3 for n in range(1, 129)),
        "additive-recurrence": 1 + 2 * 256,
        "kernel": sum(1 << e for e in range(7)) * 256,
        "prop4": 300 - 3 + 1,
        "subword-recurrence": 2 + 2 * (256 - 3 + 1),
    }
