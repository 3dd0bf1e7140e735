"""``BitString`` as martlab held it before a string was its enumeration
code: the bits as text, sliced, joined and re-parsed by every method.

Test-local brute-force twin of :class:`martlab.cantor.BitString` and of the
enumeration functions :func:`string_index`, :func:`index_of` and
:func:`all_strings`, which here format and parse text too.
"""

from __future__ import annotations

from typing import Iterable, Iterator


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
