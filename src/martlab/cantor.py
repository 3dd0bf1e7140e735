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

from typing import Callable, Iterable, Iterator

from .errors import HorizonExceeded

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
    """A decidable language restricted to the first ``horizon`` strings.

    ``membership`` decides membership of :func:`string_index`-indexed strings;
    queries with index at or past the horizon raise
    :class:`~martlab.errors.HorizonExceeded`.
    """

    __slots__ = ("_membership", "horizon", "name")

    def __init__(
        self,
        membership: Callable[[BitString], bool],
        horizon: int,
        name: str = "",
    ):
        object.__setattr__(self, "_membership", membership)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("LanguageView is immutable")

    @classmethod
    def from_members(
        cls, members: Iterable[BitString | str], horizon: int, name: str = ""
    ) -> "LanguageView":
        member_set = frozenset(
            m if isinstance(m, BitString) else BitString(m) for m in members
        )
        for m in member_set:
            if index_of(m) >= horizon:
                raise HorizonExceeded(
                    f"member {m or 'λ'} has index {index_of(m)} >= horizon {horizon}"
                )
        return cls(lambda s: s in member_set, horizon, name)

    @classmethod
    def from_indices(
        cls, indices: Iterable[int], horizon: int, name: str = ""
    ) -> "LanguageView":
        return cls.from_members(
            [string_index(i) for i in indices], horizon, name
        )

    def contains(self, s: BitString) -> bool:
        if index_of(s) >= self.horizon:
            raise HorizonExceeded(
                f"query {s!r} (index {index_of(s)}) is past horizon {self.horizon}"
            )
        return bool(self._membership(s))

    def contains_index(self, i: int) -> bool:
        return self.contains(string_index(i))

    def members(self) -> list[BitString]:
        """All members, in enumeration order (full horizon scan)."""
        return [
            string_index(i)
            for i in range(self.horizon)
            if self._membership(string_index(i))
        ]


def census(language: LanguageView, n: int) -> int:
    """How many of the first ``n`` strings belong to the language."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > language.horizon:
        raise HorizonExceeded(
            f"census at {n} is past horizon {language.horizon}"
        )
    return sum(
        1 for i in range(n) if language.contains(string_index(i))
    )


def language_of(w: BitString) -> LanguageView:
    """The finite language whose characteristic prefix is ``w``."""
    bits = w.bits()

    def membership(s: BitString) -> bool:
        return bits[index_of(s)] == "1"

    return LanguageView(membership, len(w), name=f"L({w})")


def char_prefix(language: LanguageView, n: int) -> BitString:
    """First ``n`` bits of the language's characteristic sequence."""
    if n > language.horizon:
        raise HorizonExceeded(
            f"prefix of length {n} is past horizon {language.horizon}"
        )
    return BitString(
        "".join(
            "1" if language.contains(string_index(i)) else "0"
            for i in range(n)
        )
    )
