"""Finite binary strings, the standard enumeration, and finite language views.

Strings are ordered by length then lexicographically: the enumeration starts
with the empty string, then ``0``, ``1``, ``00``, ``01``, and so on.  A
string is held as its enumeration code ``int("1" + bits, 2)``, its index
plus one, and text is built only for output.  A language is identified with
its characteristic sequence under this enumeration, so a length-``n`` bit
string doubles as the first ``n`` characteristic bits of a language.

Every language here carries an explicit horizon: queries at or past the
horizon raise :class:`~martlab.errors.HorizonExceeded` instead of being
answered silently.  All objects are immutable.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, HorizonExceeded

__all__ = [
    "BitString",
    "LanguageView",
    "EMPTY",
    "string_index",
    "index_of",
    "all_strings",
    "level_names",
    "char_prefix",
    "mirror",
]


class BitString:
    """An immutable finite sequence of bits, held as its enumeration code."""

    __slots__ = ("_code",)

    def __init__(self, bits: str | Iterable[int] = ""):
        text = bits if isinstance(bits, str) else "".join("1" if b else "0" for b in bits)
        if text.strip("01"):
            raise ValueError(f"not a bit string: {bits!r}")
        _set_code(self, int("1" + text, 2))

    def __setattr__(self, name, value):
        raise AttributeError("BitString is immutable")

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """The ``length``-bit string whose bits are ``value`` in binary."""
        if value < 0 or value >> length:
            raise ValueError(f"{value} is not a {length}-bit value")
        return _of(1 << length | value)

    def to_int(self) -> int:
        """The bits read as a binary number (empty string reads as 0)."""
        return self._code ^ (1 << (self._code.bit_length() - 1))

    def __len__(self) -> int:
        return self._code.bit_length() - 1

    def __iter__(self) -> Iterator[int]:
        return map(int, self.bits())

    def __eq__(self, other) -> bool:
        return self._code == other._code if isinstance(other, BitString) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._code)

    def __repr__(self) -> str:
        return f"BitString({self.bits()!r})"

    def append(self, bit: int) -> "BitString":
        return _of(self._code << 1 | (1 if bit else 0))

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return _of(((self._code - 1) << len(other)) + other._code)

    def prefix(self, n: int) -> "BitString":
        """The first ``n`` bits: the string itself when ``n >= len``."""
        if n < 0:
            raise ValueError(f"prefix length {n} is negative")
        drop = len(self) - n
        return self if drop <= 0 else _of(self._code >> drop)

    def bits(self) -> str:
        return format(self._code, "b")[1:]

    __str__ = bits


_new, _set_code = object.__new__, BitString._code.__set__  # __setattr__ refuses writes


def _of(code: int) -> BitString:
    s = _new(BitString)  # code is positive: the string's index plus one
    _set_code(s, code)
    return s


EMPTY = _of(1)

MASK_CAP = 1 << 24  # a language mask holds one bit per string to its last member


def string_index(i: int) -> BitString:
    """The ``i``-th string in the length-lexicographic enumeration."""
    if i < 0:
        raise ValueError("index must be nonnegative")
    return _of(i + 1)


def index_of(s: BitString) -> int:
    """Inverse of :func:`string_index`."""
    return s._code - 1


def all_strings(length: int) -> Iterator[BitString]:
    """All bit strings of exactly the given length, lexicographically."""
    return map(_of, range(1 << length, 2 << length))


def mirror(value: int, width: int) -> int:
    """The ``width``-bit ``value`` reversed: mask bit ``i`` is string character ``i``."""
    return int(format(value, f"0{width}b")[::-1], 2) if width else 0


# a level past this many bits is named in slices of 2**SLICE_BITS strings
SLICE_BITS = 12


@functools.cache
def _names(k: int) -> tuple[str, ...]:
    """The bits of every length-``k`` string, ``k <= SLICE_BITS``."""
    return tuple([w + b for w in _names(k - 1) for b in "01"]) if k else ("",)


def level_names(k: int) -> Iterator[Sequence[str]]:
    """The bits of every length-``k`` string as text, in index order.

    The names come in slices of at most ``2**SLICE_BITS`` strings, so a deep
    level is never held whole: past ``SLICE_BITS`` bits each slice shares one
    prefix, concatenated onto every ``SLICE_BITS``-bit suffix.  The names of
    the levels up to ``SLICE_BITS`` are built once per process.
    """
    if k <= SLICE_BITS:
        yield _names(k)
        return
    suffixes = _names(SLICE_BITS)
    for p in _names(k - SLICE_BITS):
        yield [p + s for s in suffixes]


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
        at or past ``MASK_CAP`` ``CapExceeded``.

        The least and the greatest index decide every error, and the mask
        is one string of binary digits, a ``1`` at each member, read by
        ``int(..., 2)``."""
        indices = list(indices)
        if not indices:
            return cls(0, horizon, name)
        top = max(indices)
        if min(indices) < 0:
            raise ValueError("index must be nonnegative")
        if top >= horizon:
            past = next(i for i in indices if i >= horizon)
            raise HorizonExceeded(
                f"member {string_index(past) or 'λ'} has index {past} >= horizon {horizon}"
            )
        if top >= MASK_CAP:
            raise CapExceeded(f"member index {top} exceeds mask cap {MASK_CAP}")
        digits = bytearray(b"0") * (top + 1)  # bit i is digit top - i
        for i in indices:
            digits[top - i] = 49  # ord("1")
        return cls(int(digits, 2), horizon, name)

    def contains(self, s: BitString) -> bool:
        return self.contains_index(index_of(s))

    def contains_index(self, i: int) -> bool:
        if not 0 <= i < self.horizon:  # string_index rejects a negative i
            raise HorizonExceeded(
                f"query {string_index(i)!r} (index {i}) is past horizon {self.horizon}"
            )
        return self._mask >> i & 1 == 1


def char_prefix(language: LanguageView, n: int) -> BitString:
    """First ``n`` bits of the language's characteristic sequence."""
    if n > language.horizon:
        raise HorizonExceeded(f"prefix of length {n} is past horizon {language.horizon}")
    n = max(n, 0)
    return BitString.from_int(mirror(language._mask & ((1 << n) - 1), n), n)
