"""Finite words over small ordered alphabets.

Letters are stored as indices into an Alphabet, so the same machinery
serves bare integer alphabets like {0,1,2}, named alphabets like
{a,b,c}, and recoded integer alphabets such as {0,1,3}.  Words are
immutable values backed by ``bytes``; every transformation returns a
fresh word, so instances are safe to share between threads.

The public constructor ``Word(alphabet, symbols)`` checks that every
symbol indexes the alphabet.  Words the package builds from symbols it
has already checked skip that pass through ``Word.from_checked``:
reversal, slicing and letter swaps (``tau``) of a word, a morphism
applied to a word over its own alphabet, stream prefixes (substituted
from checked images), the extremal factors of ``witnesses`` (joined
from powers of the three-letter substitution) and the factors that
checks cut from a scanner's window.  None of these can produce a symbol
outside the alphabet the word is declared over, so the check could
only pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_LETTERS = 16


class WordDomainError(ValueError):
    """An operation was applied outside its declared domain."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured size cap."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet of distinct small non-negative integer letters.

    ``names`` holds one display token per letter.  When every name is a
    single character, words render as unseparated strings ("0112");
    otherwise they render as comma-separated tokens.
    """

    letters: tuple[int, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        letters = tuple(int(x) for x in self.letters)
        if not letters:
            raise WordDomainError("alphabet must be non-empty")
        if len(letters) > MAX_LETTERS:
            raise WordDomainError(f"alphabet capped at {MAX_LETTERS} letters")
        if letters[0] < 0:
            raise WordDomainError("letters must be non-negative")
        if any(b <= a for a, b in zip(letters, letters[1:])):
            raise WordDomainError("letters must be strictly increasing")
        names = tuple(self.names) if self.names else tuple(str(x) for x in letters)
        if len(names) != len(letters):
            raise WordDomainError("exactly one name per letter required")
        if len(set(names)) != len(names):
            raise WordDomainError("letter names must be distinct")
        for nm in names:
            if not nm or nm != nm.strip() or "," in nm:
                raise WordDomainError(f"bad letter name {nm!r}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "names", names)

    @property
    def size(self) -> int:
        return len(self.letters)

    @property
    def single_char(self) -> bool:
        return all(len(nm) == 1 for nm in self.names)

    @property
    def is_ternary(self) -> bool:
        return self.letters == (0, 1, 2)

    def symbol_of(self, name: str) -> int:
        """Symbol index of the letter with this name."""
        try:
            return self.names.index(name)
        except ValueError:
            raise WordDomainError(f"unknown letter name {name!r}") from None

    def render(self, symbols: bytes) -> str:
        # one translate: symbol s becomes its name, followed by a comma
        # unless every name is one character; the last comma is dropped
        sep = "" if self.single_char else ","
        text = symbols.decode("latin-1").translate({s: nm + sep for s, nm in enumerate(self.names)})
        return text[: len(text) - len(sep)]

    def parse(self, text: str) -> bytes:
        text = text.strip()
        if not text:
            return b""
        if self.single_char:
            tokens: Iterable[str] = text
        else:
            tokens = (tok.strip() for tok in text.split(","))
        index = {nm: i for i, nm in enumerate(self.names)}
        try:
            return bytes(index[tok] for tok in tokens)
        except KeyError as exc:
            raise WordDomainError(f"unknown letter {exc.args[0]!r}") from None


def ternary_alphabet() -> Alphabet:
    return Alphabet((0, 1, 2))


@dataclass(frozen=True)
class Coding:
    """Letter-to-integer map giving each letter a digit value.

    Values need not be distinct or ordered; digit sums are computed
    against them.  The identity coding of an integer alphabet assigns
    each letter its own value.
    """

    alphabet: Alphabet
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(int(v) for v in self.values)
        if len(values) != self.alphabet.size:
            raise WordDomainError("exactly one value per letter required")
        object.__setattr__(self, "values", values)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Coding":
        return cls(alphabet, alphabet.letters)


@dataclass(frozen=True)
class Word:
    """Immutable finite word; symbols are indices into its alphabet."""

    alphabet: Alphabet
    symbols: bytes = b""

    def __post_init__(self) -> None:
        symbols = bytes(self.symbols)
        # deleting every valid symbol leaves only the out-of-range ones
        if symbols.translate(None, bytes(range(self.alphabet.size))):
            raise WordDomainError("symbol out of range for alphabet")
        object.__setattr__(self, "symbols", symbols)

    @classmethod
    def from_checked(cls, alphabet: Alphabet, symbols: bytes) -> "Word":
        """A word over ``symbols`` that are known to index ``alphabet``.

        Skips the range check of the constructor; the caller vouches
        that ``symbols`` is ``bytes`` built from symbols of checked
        words over the same alphabet.
        """
        word = object.__new__(cls)
        object.__setattr__(word, "alphabet", alphabet)
        object.__setattr__(word, "symbols", symbols)
        return word

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str) -> "Word":
        return cls(alphabet, alphabet.parse(text))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word.from_checked(self.alphabet, self.symbols[i])
        return self.symbols[i]

    def __str__(self) -> str:
        return self.alphabet.render(self.symbols)

    def __repr__(self) -> str:
        return f"Word({self})"

    def mirror(self) -> "Word":
        return Word.from_checked(self.alphabet, self.symbols[::-1])

    def parikh(self) -> tuple[int, ...]:
        """Per-letter occurrence counts, in alphabet order."""
        return tuple(self.symbols.count(i) for i in range(self.alphabet.size))

    def digit_sum(self, coding: Coding | None = None) -> int:
        """Sum of the coded letter values; the empty word sums to 0."""
        if coding is None:
            values = self.alphabet.letters
        else:
            if coding.alphabet != self.alphabet:
                raise WordDomainError("coding is over a different alphabet")
            values = coding.values
        return sum(v * self.symbols.count(s) for s, v in enumerate(values) if v)


def _swap_table(c: int) -> bytes:
    a, b = (x for x in (0, 1, 2) if x != c)
    table = bytearray(range(256))
    table[a], table[b] = b, a
    return bytes(table)


# _SWAPS[c] translates a symbol through tau(c, .)
_SWAPS = tuple(_swap_table(c) for c in range(3))


def tau(c: int, u: Word) -> Word:
    """Swap the two letters of {0,1,2} other than c, letterwise.

    An involution: tau(c, tau(c, u)) == u.
    """
    if not u.alphabet.is_ternary:
        raise WordDomainError("letter exchange requires the alphabet {0,1,2}")
    if c not in (0, 1, 2):
        raise WordDomainError("fixed letter must be 0, 1 or 2")
    return Word.from_checked(u.alphabet, u.symbols.translate(_SWAPS[c]))


def code(coding: Coding, u: Word) -> Word:
    """Recode u letterwise into a word over the alphabet of coded values."""
    if coding.alphabet != u.alphabet:
        raise WordDomainError("coding is over a different alphabet")
    target_letters = tuple(sorted(set(coding.values)))
    if target_letters[0] < 0:
        raise WordDomainError("coded letters must be non-negative to form an alphabet")
    target = Alphabet(target_letters)
    table = bytes(target_letters.index(v) for v in coding.values)
    remap = bytes(table[s] if s < len(table) else 0 for s in range(256))
    return Word(target, u.symbols.translate(remap))
