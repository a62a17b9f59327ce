"""Complexity functions of infinite words: subword, abelian, additive.

Every per-length quantity comes from one finite window of a
fixed-point stream, ``FactorScanner.window(n)``, a prefix that contains
every length-n factor of the infinite word.  Both kinds of window rest
on first occurrences, which one walk over the images of earlier first
occurrences finds (``FactorScanner._first_occurrences``).  For a
morphism whose letters all grow, the walk at length 2 is enough, by the
block argument for factors of fixed points (Allouche & Shallit,
*Automatic Sequences*, CUP 2003): with K the least power such that
every |sigma^K(x)| >= n - 1, each length-n factor lies inside
sigma^K(ab) for a length-2 factor ab, so sigma^K of the shortest prefix
holding every length-2 factor holds them all.  Digit sums read only the
window starts inside sigma^K(a) at the first occurrence of each ab,
9 * 2**K of the 29 * 2**K for ``tml``; the other scans read the whole
window.  For a morphism with a bounded letter, whose iterated image
length stops growing, the window is the shortest prefix holding every
length-n factor, from the walk at length n.

Each scan over a window is a few numpy passes, with no loop per symbol:
digit sums and letter counts are differences of cumulative sums, a
letter-count vector is folded into one int64 key so that its distinct
values come from a 1-D ``np.unique``, and the factor counts rho come
from the window's suffixes sorted by prefix doubling, with the common
prefix of each pair of neighbours (``sorted_suffixes``).  The same sort
gives the factor index: a length-n factor is a run of neighbours that
share n symbols, and its first occurrence is the least start in the
run.  A scanner keeps one such sort, only as deep as asked, and reads
shorter lengths of its window from it (``FactorScanner._sorted``).
The attained digit sums of each length are kept (``digit_sum_set``
gives their three routes), so checks that share a scanner scan each
length once.  No window may exceed ``WINDOW_CAP`` symbols, nor may the
factors a walk keeps: a larger one raises ResourceLimitError instead
of exhausting memory, and so does a sort of a window of more than
``PROFILE_CAP``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate

import numpy as np

from .morphisms import FixedPointStream
from .words import Alphabet, Coding, ResourceLimitError, WordDomainError

WINDOW_CAP = 1 << 26
# A sort peaks at 63 to 70 bytes per symbol at depth 256 and 97 to 109
# past depth 2**16 (tracemalloc), about 230 MB at this cap; it keeps 8.
PROFILE_CAP = 1 << 21


def prefix_doubling(data: np.ndarray, n_max: int) -> Iterator[np.ndarray]:
    """Suffix ranks of ``data`` by prefix doubling, one level at a time.

    Prefix doubling of suffix ranks (Manber & Myers, *Suffix arrays*,
    SIAM J. Comput. 1993).  Level j ranks every suffix by its first 2**j
    symbols, a suffix that ends sooner ranking below its extensions;
    level j + 1 ranks the pairs of level-j ranks at i and i + 2**j.
    Level 0 is ``data`` itself.  Yields levels 0, 1, ... and stops after
    the first level with 2**j >= n_max or every rank distinct.
    """
    N = len(data)
    rank = data
    yield rank
    h, distinct = 1, 0
    while h < n_max and distinct < N:
        # radix: the largest rank + 1, plus 0 for a suffix that has ended
        radix = int(rank.max()) + 2
        key = rank.astype(np.int64) * radix
        tail = key[: max(N - h, 0)]
        tail += rank[h:]
        tail += 1
        # dense ranks of the keys, as np.unique's inverse but in int32
        # (ranks are below len(data) < 2**31) and at half its peak memory
        order = np.argsort(key)
        key = key[order]
        dense = np.zeros(N, dtype=np.int32)
        np.cumsum(key[1:] != key[:-1], dtype=np.int32, out=dense[1:])
        del key
        distinct = int(dense[-1]) + 1
        rank = np.empty(N, dtype=np.int32)
        rank[order] = dense
        h *= 2
        yield rank


def sorted_suffixes(data: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The starts of ``data`` sorted by their first n_max symbols, and
    the common prefix of each pair of neighbours in that order, as int32.

    Sorting by the top level of ``prefix_doubling``, the first
    2**j >= n_max symbols, puts the suffixes that share a prefix of any
    length n <= 2**j next to each other.  The common prefix of two
    neighbours is found by descending the levels; it is exact below
    2**j and at least 2**j otherwise, exact everywhere if n_max >= len(data).
    """
    N = len(data)
    levels = list(prefix_doubling(data, n_max))
    order = np.argsort(levels[-1]).astype(np.int32)
    left, right = order[:-1], order[1:]
    lcp = np.zeros(len(left), dtype=np.int32)
    for j in range(len(levels) - 1, -1, -1):
        level = levels[j]
        a, b = left + lcp, right + lcp
        same = (a < N) & (b < N)
        same &= level[np.minimum(a, N - 1)] == level[np.minimum(b, N - 1)]
        lcp += same.astype(np.int32) << j
    return order, lcp


def distinct_substring_profile(order: np.ndarray, lcp: np.ndarray, n_max: int) -> np.ndarray:
    """Count distinct substrings of each length 1..n_max of a string,
    from the ``order`` and ``lcp`` of its ``sorted_suffixes`` to depth
    at least n_max:

        count(n) = #suffixes of length >= n - #neighbours sharing >= n symbols.

    Returns an int64 array p with p[i] = number of distinct substrings
    of length i + 1.
    """
    shared = np.bincount(np.minimum(lcp, n_max), minlength=n_max + 1)
    # shared_at_least[n] = number of neighbours sharing at least n symbols
    shared_at_least = np.cumsum(shared[::-1])[::-1]
    suffixes = np.maximum(len(order) + 1 - np.arange(1, n_max + 1), 0)
    return suffixes - shared_at_least[1:]


class FactorScanner:
    """Complexity data of one fixed point, each answer from one window.

    ``window(n)`` is a stream prefix that contains every length-n
    factor; every per-length answer is computed once from it.  When
    every letter of the fixed point grows under the morphism, the
    window is sigma^K of the pair prefix (``_block_starts``); a
    morphism with a bounded letter takes the shortest prefix that holds
    every length-n factor.  Both hold every factor of the infinite
    word, so no answer is a guess from a truncation.  ``coding``
    changes which integer is summed per letter for the digit-sum
    quantities; it does not affect subword or abelian counts.
    """

    def __init__(self, stream: FixedPointStream, coding: Coding | None = None):
        if coding is not None and coding.alphabet != stream.alphabet:
            raise WordDomainError("coding over a different alphabet")
        self.stream = stream
        self.coding = coding
        self._coded = coding.values if coding is not None else stream.alphabet.letters
        self._max_value = max(map(abs, self._coded))
        self._images = tuple(im.symbols for im in stream.morphism.images)
        self._growth = [[1] * len(self._images)]  # _growth[K][x] = |sigma^K(x)|
        self._min_lengths = [1]  # min |sigma^K(x)| over the letters of the word
        self._window_lengths: dict[int, int] = {}
        self._blocks: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
        self._ds_cumsum: np.ndarray | None = None
        self._ds_scratch: np.ndarray | None = None
        self._digit_sums: dict[int, np.ndarray] = {}
        self._letter_cumsums: dict[int, np.ndarray] = {}
        # (2**j, order, lcp): the one kept sort, exact up to length 2**j
        self._sort: tuple[int, np.ndarray, np.ndarray] | None = None

    @property
    def alphabet(self) -> Alphabet:
        return self.stream.alphabet

    def _lengths(self, K: int) -> list[int]:
        """|sigma^K(x)| for every letter x."""
        growth = self._growth
        while len(growth) <= K:
            prev = growth[-1]
            growth.append([sum(prev[s] for s in im) for im in self._images])
        return growth[K]

    def _prefix(self, length: int) -> np.ndarray:
        if length > WINDOW_CAP:
            raise ResourceLimitError(f"window of {length} symbols exceeds the cap of {WINDOW_CAP}")
        return self.stream.array(length)

    def _first_occurrences(self, L: int) -> dict[bytes, int]:
        """Every length-L factor with its first occurrence, in that order.

        With B(p) = |sigma(u[:p])|, u = sigma(u) puts each position i in
        the image of u[j] for the j with B(j) <= i < B(j + 1), and j < i
        when i > 0, since |sigma(u0)| >= 2.  If the factor at i occurs
        first there, so does the factor at j: the L symbols from i lie in
        sigma(u[j : j + L]), and an earlier occurrence of u[j : j + L]
        would carry them before i.  So the first occurrences form a tree
        rooted at 0, with the children of j among B(j) ... B(j + 1) - 1.
        The walk visits those ranges in increasing position, keeps a
        position whose window is new and queues its range.  A kept
        position's range begins past every range queued before it, so a
        plain queue keeps the order.  B is a running sum of image
        lengths since the last kept position; the stream prefix doubles
        as the walk reads further.
        """
        lengths = np.array([len(im) for im in self._images], dtype=np.int64)
        arr, data = self._prefix(0), b""
        found: dict[bytes, int] = {}
        ranges = deque([(0, 1)])
        kept = b = 0  # the last kept position j and B(j)
        while ranges:
            start, stop = ranges.popleft()
            if stop + L - 1 > len(data):
                arr = self._prefix(max(stop + L - 1, min(2 * len(data), WINDOW_CAP)))
                data = arr.tobytes()
            for i in range(start, stop):
                w = data[i : i + L]
                if w not in found:
                    if (len(found) + 1) * L > WINDOW_CAP:
                        raise ResourceLimitError(f"factors of length {L} exceed the cap of {WINDOW_CAP} symbols")
                    found[w] = i
                    b += int(lengths[arr[kept:i]].sum())
                    kept = i
                    ranges.append((b, b + len(self._images[data[i]])))
        return found

    @cached_property
    def _pair_prefix(self) -> tuple[bytes, list[int]]:
        """The shortest prefix holding every length-2 factor, and the
        sorted first occurrences of the length-2 factors in it."""
        firsts = list(self._first_occurrences(2).values())
        return bytes(self._prefix(firsts[-1] + 2)), firsts

    @cached_property
    def _letters(self) -> frozenset[int]:
        """The letters of the word, each of which starts a length-2 factor."""
        return frozenset(self._pair_prefix[0])

    @cached_property
    def _growing(self) -> bool:
        """Whether every letter of the word grows under the morphism.

        A bounded letter's image length is constant from step A on, for
        A letters; a growing letter's grows within every A steps.
        """
        a = len(self._images)
        return all(self._lengths(a)[x] < self._lengths(2 * a)[x] for x in self._letters)

    def _block_starts(self, n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """|sigma^K(p)| for the pair prefix p and the least K with every
        |sigma^K(x)| >= n - 1, and the merged ranges of starts inside
        sigma^K(p[j]) for each first occurrence j of a pair.

        u = sigma^K(u) is a concatenation of blocks sigma^K(x) of length
        at least n - 1, so every length-n factor starts inside some block
        sigma^K(a) and ends inside the next, sigma^K(b), with ab a
        length-2 factor.  sigma^K(p) holds sigma^K(ab) at each pair's
        first occurrence, so windows from those starts hold every
        length-n factor.  It is a prefix of u, so each of its windows is
        a factor.
        """
        mins = self._min_lengths
        while mins[-1] < n - 1:
            mins.append(min(self._lengths(len(mins))[x] for x in self._letters))
        # Every image holds a letter of the word, so the least block
        # length never falls as K grows and bisection finds K.
        K = bisect_left(mins, n - 1)
        blocks = self._blocks.get(K)
        if blocks is None:
            prefix, firsts = self._pair_prefix
            lengths = self._lengths(K)
            offsets = [0, *accumulate(lengths[s] for s in prefix)]
            ranges: list[tuple[int, int]] = []
            for j in firsts:
                if ranges and ranges[-1][1] == offsets[j]:
                    ranges[-1] = (ranges[-1][0], offsets[j + 1])
                else:
                    ranges.append((offsets[j], offsets[j + 1]))
            blocks = self._blocks[K] = (offsets[-1], tuple(ranges))
        return blocks

    def window(self, n: int) -> np.ndarray:
        """Stream prefix containing every length-n factor of the fixed point."""
        if n < 1:
            raise WordDomainError("factor length must be positive")
        length = self._window_lengths.get(n)
        if length is None:
            length = self._block_starts(n)[0] if self._growing else max(self._first_occurrences(n).values()) + n
            self._window_lengths[n] = length
        return self._prefix(length)

    def digit_sum_set(self, n: int) -> frozenset[int]:
        """Set of digit sums attained by length-n factors.

        A window of a growing morphism is read only from its block
        starts (see ``_block_starts``), any other from every start.  The
        sums go into one scratch buffer reused across lengths.  Their
        distinct values come from one of three routes, by the spread
        hi - lo of the scanned sums:

        - below 64, as for ``tml``, whose sums at length n span
          2 * floor(log2 n) + 2: each sum sets bit sum - lo of one 64-bit
          mask, by one in-place shift and one OR-reduction;
        - up to the window's start count: ``np.bincount`` of sum - lo;
        - wider: ``np.unique``.

        Each length's distinct sums are kept as a sorted array, so checks
        sharing a scanner scan each length once.
        """
        if n * self._max_value >= 1 << 63:
            raise WordDomainError(f"digit sums of length {n} under this coding overflow int64")
        present = self._digit_sums.get(n)
        if present is None:
            window = self.window(n)
            L = len(window)
            cs = self._ds_cumsum
            if cs is None or len(cs) < L + 1:
                # The running sums may wrap, but their differences are exact
                # modulo 2**64, hence exact for sums bounded as above.
                values = np.array(self._coded, dtype=np.int64)
                cs = self._ds_cumsum = np.concatenate(([0], np.cumsum(values[window])))
            ranges = self._block_starts(n)[1] if self._growing else ((0, L - n + 1),)
            count = sum(stop - start for start, stop in ranges)
            if self._ds_scratch is None or len(self._ds_scratch) < count:
                self._ds_scratch = np.empty(count, dtype=np.int64)
            vals = self._ds_scratch[:count]
            at = 0
            for start, stop in ranges:
                np.subtract(cs[start + n : stop + n], cs[start:stop], out=vals[at : at + stop - start])
                at += stop - start
            lo, hi = int(vals.min()), int(vals.max())
            if hi - lo < 64:
                # bit v - lo of one int64 mask marks the sum v.  Bit 63 is
                # the sign bit; Python reads a negative int's bits as two's
                # complement, so mask >> 63 & 1 still finds it.
                vals -= lo
                np.left_shift(1, vals, out=vals)
                mask = int(np.bitwise_or.reduce(vals))
                present = np.array([lo + b for b in range(hi - lo + 1) if mask >> b & 1], dtype=np.int64)
            elif hi - lo + 1 <= L - n + 1:
                # Counting takes memory in proportion to hi - lo, bounded
                # here by the window's start count.  Bounding it by the
                # scanned count would send narrow codings to the plain
                # np.unique, which imports numpy.ma in numpy 2.x.
                vals -= lo
                present = np.nonzero(np.bincount(vals))[0] + lo
            else:
                # a wide coding: counting every value in [lo, hi] would
                # allocate memory in proportion to the spread
                present = np.unique(vals)
            self._digit_sums[n] = present
        return frozenset(present.tolist())

    def additive_complexity(self, n: int) -> int:
        return len(self.digit_sum_set(n))

    def parikh_set(self, n: int) -> frozenset[tuple[int, ...]]:
        """Set of letter-count vectors attained by length-n factors.

        The counts of the first k - 1 letters fold into one int64 key per
        window in radix n + 1; the last count is n minus the others.
        Before a column would push the key past 2**63 (16 letters reach
        that at n = 18), the key so far is re-ranked to the indices of its
        distinct values, which number at most the windows.  Each distinct
        key is decoded by reading the counts at its first window.
        """
        window = self.window(n)
        starts = len(window) - n + 1
        key = np.zeros(starts, dtype=np.int64)
        bound = 1  # every key is below bound
        cumsums = [self._letter_cumsum(letter, window) for letter in range(self.alphabet.size - 1)]
        for cs in cumsums:
            if bound * (n + 1) > 1 << 63:
                _, key = np.unique(key, return_inverse=True)
                bound = int(key.max()) + 1
            key *= n + 1
            key += cs[n : n + starts] - cs[:starts]
            bound *= n + 1
        _, first = np.unique(key, return_index=True)
        counts = [cs[first + n] - cs[first] for cs in cumsums]
        counts.append(n - sum(counts, np.zeros(len(first), dtype=np.int64)))
        return frozenset(map(tuple, np.column_stack(counts).tolist()))

    def _letter_cumsum(self, letter: int, window: np.ndarray) -> np.ndarray:
        """Running count of ``letter`` over the window, from 0."""
        cs = self._letter_cumsums.get(letter)
        if cs is None or len(cs) < len(window) + 1:
            # int32: a window holds at most WINDOW_CAP < 2**31 symbols
            cs = np.zeros(len(window) + 1, dtype=np.int32)
            np.cumsum(window == letter, dtype=np.int32, out=cs[1:])
            self._letter_cumsums[letter] = cs
        return cs

    def abelian_complexity(self, n: int) -> int:
        return len(self.parikh_set(n))

    def _sorted(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``sorted_suffixes`` of a window holding every length-n factor.

        A sort to depth d is exact for every length up to d rounded up to
        a power of two, and a longer prefix holds every factor at the same
        first start, so the one kept sort answers such lengths whose
        window it holds; any other length sorts ``window(n)`` to depth n.
        """
        window = self.window(n)
        if len(window) > PROFILE_CAP:
            raise ResourceLimitError(
                f"length-{n} factors need a {len(window)}-symbol window, over the profile cap of {PROFILE_CAP}"
            )
        if self._sort is None or len(self._sort[1]) < len(window) or self._sort[0] < n:
            self._sort = (1 << (n - 1).bit_length(), *sorted_suffixes(window, n))
        return self._sort[1:]

    def distinct_profile(self, n_max: int) -> np.ndarray:
        """rho(1..n_max) as an array, from ``_sorted(n_max)``.

        A factor of an infinite word extends to the right, so the window
        for n_max also holds every shorter factor.
        """
        return distinct_substring_profile(*self._sorted(n_max), n_max)

    def subword_complexity(self, n: int) -> int:
        return len(self._first_starts(n))

    def _first_starts(self, n: int) -> np.ndarray:
        """Sorted first starts of the distinct length-n factors.

        In ``_sorted(n)``, a factor is a run of neighbours that share at
        least n symbols, and its first start is the least start in the
        run; a suffix shorter than n is a run of its own and starts past
        len(order) - n.
        """
        order, lcp = self._sorted(n)
        heads = np.concatenate(([0], np.flatnonzero(lcp < n) + 1))
        first = np.minimum.reduceat(order, heads)
        first = first[first <= len(order) - n]
        first.sort()
        return first

    def factor_index(self, n: int) -> dict[bytes, int]:
        """Every length-n factor with its first occurrence, in that order.

        The first occurrences are ``_first_starts(n)``, with no loop over
        the window's starts.
        """
        data = self.window(n).tobytes()
        return {data[i : i + n]: i for i in self._first_starts(n).tolist()}

    def recurrence_index(self, n: int) -> int:
        """Shortest prefix length containing every length-n factor."""
        return int(self._first_starts(n)[-1]) + n


@dataclass(frozen=True)
class ComplexityRow:
    n: int
    rho: int
    rho_ab: int
    rho_plus: int
    ds_min: int
    ds_max: int
    evenness: int

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(ComplexityRow))


@dataclass
class ComplexityTable:
    rows: list[ComplexityRow] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(str(x) for x in row.as_tuple()))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = [dict(zip(CSV_COLUMNS, row.as_tuple())) for row in self.rows]
        return json.dumps(payload, indent=2) + "\n"


def build_complexity_table(
    stream: FixedPointStream, n_from: int, n_to: int, coding: Coding | None = None
) -> ComplexityTable:
    if n_from < 1 or n_to < n_from:
        raise WordDomainError("need 1 <= n_from <= n_to")
    scanner = FactorScanner(stream, coding)
    profile = scanner.distinct_profile(n_to)
    rows = []
    for n in range(n_from, n_to + 1):
        ds = scanner.digit_sum_set(n)
        pset = scanner.parikh_set(n)
        rows.append(
            ComplexityRow(
                n=n,
                rho=int(profile[n - 1]),
                rho_ab=len(pset),
                rho_plus=len(ds),
                ds_min=min(ds),
                ds_max=max(ds),
                # the largest |u|_a - |u|_b over length-n factors u and letters a, b
                evenness=max(max(v) - min(v) for v in pset),
            )
        )
    return ComplexityTable(rows)
