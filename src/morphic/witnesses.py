"""Extremal factors of the doubling fixed point, built in closed form.

For each length n this module assembles a specific factor whose digit
sum sits at the top of the attainable range, together with the exact
occurrence context that proves it really is a factor.  The word is
glued from substitution powers of two letter families:

  surplus_letter(k): the letter whose k-th substitution power carries
    one more 2 than 0 (period 6 in k, defined from k = -1), and
  balanced_letter(l): the letter whose l-th power carries equally many.

The substitution is implemented locally on bytes rather than through
the stream generator; keeping the two routes separate means agreement
between them is evidence, not circularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .morphisms import FixedPointStream, preset
from .words import ResourceLimitError, Word, WordDomainError, ternary_alphabet

# Longest witness built.  `morphic witness --format json` peaks at about
# 21 bytes per symbol (tracemalloc) and reads about 230 MB max RSS here.
WITNESS_CAP = 1 << 23

_TERN = ternary_alphabet()

_IMAGES = (bytes((0, 1)), bytes((1, 2)), bytes((2, 0)))
# translate tables: letter -> first / second letter of its image
_FIRST, _SECOND = (bytes(im[d] for im in _IMAGES).ljust(256, b"\0") for d in range(2))

_SURPLUS_BY_RESIDUE = {0: 2, 1: 1, 2: 1, 3: 0, 4: 0, 5: 2}


def surplus_letter(k: int) -> int:
    """Letter whose k-th substitution power has a single excess 2 over 0."""
    if k < -1:
        raise WordDomainError("surplus_letter is defined from k = -1")
    return _SURPLUS_BY_RESIDUE[k % 6]


def balanced_letter(l: int) -> int:
    """Letter whose l-th substitution power has equally many 2s and 0s."""
    if l < 0:
        raise WordDomainError("balanced_letter needs l >= 0")
    return (l + 1) % 3


@lru_cache(maxsize=256)
def sigma_power_bytes(letter: int, e: int) -> bytes:
    """sigma^e(letter) for the doubling substitution, as raw bytes."""
    if not 0 <= letter <= 2:
        raise WordDomainError("letter must be 0, 1 or 2")
    if e < 0:
        raise WordDomainError("power must be non-negative")
    if e == 0:
        return bytes((letter,))
    prev = sigma_power_bytes(letter, e - 1)
    out = bytearray(2 * len(prev))
    out[0::2] = prev.translate(_FIRST)
    out[1::2] = prev.translate(_SECOND)
    return bytes(out)


def ternary_stream() -> FixedPointStream:
    """Fresh stream of the doubling fixed point 0112122012202001..."""
    m, seed = preset("tml")
    return FixedPointStream(m, seed)


@dataclass(frozen=True)
class WitnessDecomposition:
    """A maximal-digit-sum factor of length n, split at its anchor 2.

    ``bits`` are the low k bits of n (n = 2^k + sum bits[i] 2^i), least
    significant first; they select which substitution powers appear.
    """

    n: int
    k: int
    bits: tuple[int, ...]
    left: Word
    right: Word
    whole: Word

    @property
    def target_digit_sum(self) -> int:
        return self.n + self.k + 1


# Each half depends on k and on half of the bits only, so it is shared by
# many witnesses: 2^ceil(k/2) distinct left halves and 2^floor(k/2) right
# ones for 2^k <= n < 2^(k+1).  256 of each keep every half for n < 2^17.
@lru_cache(maxsize=256)
def _left_half(k: int, even_bits: tuple[int, ...]) -> Word:
    """The witness half before its anchor 2, from bits 0, 2, 4, ... of n."""
    left = bytearray()
    if k > 0:
        if even_bits[0] == 1:
            left.append(1)
        left.append(2)
    for i in range(1, (k - 1) // 2 + 1):
        e = 2 * i + even_bits[i]
        left += sigma_power_bytes(surplus_letter(e), e)
    return Word.from_checked(_TERN, bytes(left))


@lru_cache(maxsize=256)
def _right_half(k: int, odd_bits: tuple[int, ...]) -> Word:
    """The witness half from its anchor 2 on, from bits 1, 3, 5, ... of n."""
    right = bytearray()
    for i in range(k // 2, 0, -1):
        e = 2 * i - 1 + odd_bits[i - 1]
        right += sigma_power_bytes(surplus_letter(e), e)
    right.append(2)
    return Word.from_checked(_TERN, bytes(right))


def witness(n: int) -> WitnessDecomposition:
    """Length-n factor attaining digit sum n + floor(log2 n) + 1."""
    if n < 1:
        raise WordDomainError("witness length must be positive")
    if n > WITNESS_CAP:
        raise ResourceLimitError(f"witness length {n} exceeds the cap of {WITNESS_CAP}")
    k = n.bit_length() - 1
    rem = n - (1 << k)
    bits = tuple((rem >> i) & 1 for i in range(k))
    left, right = _left_half(k, bits[0::2]), _right_half(k, bits[1::2])
    whole = Word.from_checked(_TERN, left.symbols + right.symbols)
    if len(whole) != n:
        raise RuntimeError(f"witness assembly produced length {len(whole)}, wanted {n}")
    return WitnessDecomposition(n, k, bits, left, right, whole)


# a word in which every ordered letter pair occurs:
# 00 01 11 12 22 20 02 21 10
_ALL_PAIRS = (0, 0, 1, 1, 2, 2, 0, 2, 1, 0)


@lru_cache(maxsize=32)
def factor_haystack(K: int) -> bytes:
    """sigma^K(0011220210), which holds sigma^K(xy) for all nine letter pairs xy."""
    return b"".join(sigma_power_bytes(x, K) for x in _ALL_PAIRS)


@lru_cache(maxsize=1)
def _cuts() -> dict[bytes, int]:
    """Where each length-5 factor cuts into images: 0 or 1, a parity.

    sigma^3(0011220210) is a run of images sigma(x) from even starts,
    and its length-5 windows are exactly the length-5 factors, so the
    parity of a window's start is its cut.
    """
    hay = factor_haystack(3)
    return {hay[i : i + 5]: i & 1 for i in range(len(hay) - 4)}


def is_factor(u: Word) -> bool:
    """Exact membership test for factors of the doubling fixed point.

    The fixed point u equals sigma(u), and sigma is recognizable (Mossé,
    TCS 99, 1992): each length-5 factor cuts into the images 01, 12, 20
    at starts of one parity p only (``_cuts``).  So a longer word w is a
    factor iff every letter w[p+1::2] is the successor of the letter
    before it, mod 3, and the preimage w[p::2], after the predecessor of
    w[0] if p = 1, is a factor.  Preimages halve the length down to at
    most 2^6 + 1 = 65 symbols.  Such a factor lies inside sigma^6(xy)
    for a letter pair xy; all nine pairs are factors and occur in
    0011220210, so the factors of that length are exactly the words of
    that length in sigma^6(0011220210) (``factor_haystack``).
    """
    if not u.alphabet.is_ternary:
        raise WordDomainError("membership test requires the alphabet {0,1,2}")
    w = u.symbols
    cuts = _cuts()
    while len(w) > 65:
        p = cuts.get(w[:5])
        if p is None:
            return False
        first = w[p::2]
        if not first.translate(_SECOND).startswith(w[p + 1 :: 2]):
            return False
        w = bytes(((w[0] + 2) % 3,)) + first if p else first
    return w in factor_haystack(6)


@lru_cache(maxsize=32)
def decomposition_haystack(k: int) -> bytes:
    """Occurrence context covering every witness with 2^k <= n < 2^(k+1)."""
    if k < 1:
        raise WordDomainError("decomposition context needs k >= 1")
    return sigma_power_bytes(surplus_letter(k + 2), k + 1) + sigma_power_bytes(
        surplus_letter(k - 2), k + 1
    )


def witness_occurrence(w: WitnessDecomposition) -> int:
    """Least index of the witness inside its occurrence context.

    For n = 1 the context is sigma^3(0), the first eight letters of the
    fixed point.  The least start is the first match of one scan of the
    context, which needs no index.  Raises if the witness does not
    occur, which would falsify the whole construction.
    """
    if w.n == 1:
        hay = sigma_power_bytes(0, 3)
    else:
        hay = decomposition_haystack(w.k)
    idx = hay.find(w.whole.symbols)
    if idx < 0:
        raise RuntimeError(f"witness of length {w.n} missing from its occurrence context")
    return idx
