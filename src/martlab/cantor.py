"""Finite binary strings, the standard enumeration, and finite language views.

Strings are ordered by length then lexicographically: the enumeration starts
with the empty string, then ``0``, ``1``, ``00``, ``01``, and so on.  A
language is identified with its characteristic sequence under this
enumeration, so a length-``n`` bit string doubles as the first ``n``
characteristic bits of a language.

Every language here carries an explicit horizon: queries at or past the
horizon raise :class:`~martlab.errors.HorizonExceeded` instead of being
answered silently.  All objects are immutable.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import CapExceeded, HorizonExceeded

__all__ = [
    "BitString",
    "LanguageView",
    "EMPTY",
    "string_index",
    "index_of",
    "all_strings",
    "census",
    "language_of",
    "char_prefix",
]


class BitString:
    """An immutable finite sequence of bits."""

    __slots__ = ("_bits",)

    _bits: str

    def __init__(self, bits: str | Iterable[int] = ""):
        if isinstance(bits, str):
            text = bits
        else:
            text = "".join("1" if b else "0" for b in bits)
        if text.strip("01"):
            raise ValueError(f"not a bit string: {bits!r}")
        object.__setattr__(self, "_bits", text)

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """The ``length``-bit string whose bits are ``value`` in binary."""
        if length == 0:
            return EMPTY
        return cls(format(value, f"0{length}b"))

    def to_int(self) -> int:
        """The bits read as a binary number (empty string reads as 0)."""
        return int(self._bits, 2) if self._bits else 0

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, index) -> int | "BitString":
        if isinstance(index, slice):
            return BitString(self._bits[index])
        return int(self._bits[index])

    def __iter__(self) -> Iterator[int]:
        return (int(c) for c in self._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __str__(self) -> str:
        return self._bits

    def __repr__(self) -> str:
        return f"BitString({self._bits!r})"

    def append(self, bit: int) -> "BitString":
        return BitString(self._bits + ("1" if bit else "0"))

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString(self._bits + other._bits)

    def prefix(self, n: int) -> "BitString":
        return BitString(self._bits[:n])

    def is_prefix_of(self, other: "BitString") -> bool:
        return other._bits.startswith(self._bits)

    def count_ones(self) -> int:
        return self._bits.count("1")

    def bits(self) -> str:
        return self._bits


EMPTY = BitString("")

MASK_CAP = 1 << 24  # a language mask holds one bit per string to its last member


def string_index(i: int) -> BitString:
    """The ``i``-th string in the length-lexicographic enumeration."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    length = (i + 1).bit_length() - 1
    offset = i + 1 - (1 << length)
    return BitString.from_int(offset, length)


def index_of(s: BitString) -> int:
    """Inverse of :func:`string_index`."""
    return (1 << len(s)) - 1 + s.to_int()


def all_strings(length: int) -> Iterator[BitString]:
    """All bit strings of exactly the given length, lexicographically."""
    for v in range(1 << length):
        yield BitString.from_int(v, length)


class LanguageView:
    """A language restricted to its first ``horizon`` strings.

    The view is its first ``horizon`` characteristic bits held as one int:
    bit ``i`` of the mask is set when :func:`string_index` ``(i)`` is a
    member.  Queries with index at or past the horizon raise
    :class:`~martlab.errors.HorizonExceeded`.
    """

    __slots__ = ("_mask", "horizon", "name")

    def __init__(self, mask: int, horizon: int, name: str = ""):
        object.__setattr__(self, "_mask", mask)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("LanguageView is immutable")

    @classmethod
    def from_members(
        cls, members: Iterable[BitString | str], horizon: int, name: str = ""
    ) -> "LanguageView":
        return cls.from_indices(
            [index_of(BitString(m) if isinstance(m, str) else m) for m in members],
            horizon, name,
        )

    @classmethod
    def from_indices(
        cls, indices: Iterable[int], horizon: int, name: str = ""
    ) -> "LanguageView":
        """A negative index raises ``ValueError``; else the first index at or
        past the horizon, in input order, ``HorizonExceeded``, and a member
        at or past ``MASK_CAP`` ``CapExceeded``."""
        inside, past = [], None
        for i in indices:
            if i < 0:
                raise ValueError("index must be nonnegative")
            if i < horizon:
                inside.append(i)
            elif past is None:
                past = i
        if past is not None:
            raise HorizonExceeded(
                f"member {string_index(past) or 'λ'} has index {past} >= horizon {horizon}"
            )
        top = max(inside, default=-1)
        if top >= MASK_CAP:
            raise CapExceeded(f"member index {top} exceeds mask cap {MASK_CAP}")
        bits = bytearray(top // 8 + 1)
        for i in inside:
            bits[i >> 3] |= 1 << (i & 7)
        return cls(int.from_bytes(bits, "little"), horizon, name)

    def contains(self, s: BitString) -> bool:
        return self.contains_index(index_of(s))

    def contains_index(self, i: int) -> bool:
        if not 0 <= i < self.horizon:  # string_index rejects a negative i
            raise HorizonExceeded(
                f"query {string_index(i)!r} (index {i}) is past horizon {self.horizon}"
            )
        return self._mask >> i & 1 == 1

    def members(self) -> list[BitString]:
        """All members, in enumeration order."""
        bits = format(self._mask, "b")[::-1]
        return [string_index(i) for i, c in enumerate(bits) if c == "1"]


def census(language: LanguageView, n: int) -> int:
    """How many of the first ``n`` strings belong to the language."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > language.horizon:
        raise HorizonExceeded(
            f"census at {n} is past horizon {language.horizon}"
        )
    return (language._mask & ((1 << n) - 1)).bit_count()


def language_of(w: BitString) -> LanguageView:
    """The finite language whose characteristic prefix is ``w``."""
    return LanguageView(int(w.bits()[::-1] or "0", 2), len(w), name=f"L({w})")


def char_prefix(language: LanguageView, n: int) -> BitString:
    """First ``n`` bits of the language's characteristic sequence."""
    if n > language.horizon:
        raise HorizonExceeded(
            f"prefix of length {n} is past horizon {language.horizon}"
        )
    # the bit above the first n keeps their leading zeros; dropped on reversal
    top = 1 << max(n, 0)
    return BitString(format(language._mask & (top - 1) | top, "b")[:0:-1])
