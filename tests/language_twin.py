"""A language as a frozenset of member strings, as martlab held it before masks.

Test-local oracle for :class:`martlab.cantor.LanguageView` and
:func:`~martlab.cantor.char_prefix`.  Every member is a ``BitString`` in a
frozenset, and every query maps its index to a string with
:func:`~martlab.cantor.string_index` and asks the set.  Errors are raised
with the same types and messages: a negative index is a ``ValueError``, and
past the horizon the first offending member, in input order, or the query
is named.

:func:`census` counts the members among a language's first strings, and
:func:`language_of` reads a characteristic prefix back into a language; the
tests use both as oracles, on a :class:`Language` or a ``LanguageView``.

:func:`mask_from_indices` is ``LanguageView.from_indices`` as it was built
before it read its errors off the least and greatest index: one loop that
checks each index in input order and sets its bit in a byte array.
"""

from typing import Iterable

from martlab.cantor import MASK_CAP, BitString, LanguageView, index_of, string_index
from martlab.errors import CapExceeded, HorizonExceeded


class Language:
    def __init__(self, members: Iterable[BitString], horizon: int, name: str = ""):
        self.member_set = frozenset(members)
        self.horizon = horizon
        self.name = name

    @classmethod
    def from_members(cls, members, horizon: int, name: str = "") -> "Language":
        strings = [m if isinstance(m, BitString) else BitString(m) for m in members]
        for m in strings:
            if index_of(m) >= horizon:
                raise HorizonExceeded(
                    f"member {m or 'λ'} has index {index_of(m)} >= horizon {horizon}"
                )
        return cls(strings, horizon, name)

    @classmethod
    def from_indices(cls, indices, horizon: int, name: str = "") -> "Language":
        return cls.from_members([string_index(i) for i in indices], horizon, name)

    def contains(self, s: BitString) -> bool:
        if index_of(s) >= self.horizon:
            raise HorizonExceeded(
                f"query {s!r} (index {index_of(s)}) is past horizon {self.horizon}"
            )
        return s in self.member_set

    def contains_index(self, i: int) -> bool:
        return self.contains(string_index(i))


def census(language: Language | LanguageView, n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > language.horizon:
        raise HorizonExceeded(f"census at {n} is past horizon {language.horizon}")
    return sum(1 for i in range(n) if language.contains_index(i))


def language_of(w: BitString) -> Language:
    return Language(
        [string_index(i) for i, bit in enumerate(w) if bit], len(w), name=f"L({w})"
    )


def char_prefix(language: Language, n: int) -> BitString:
    if n > language.horizon:
        raise HorizonExceeded(
            f"prefix of length {n} is past horizon {language.horizon}"
        )
    return BitString("".join(
        "1" if language.contains_index(i) else "0" for i in range(n)
    ))


def mask_from_indices(indices, horizon: int) -> int:
    """The mask with bit ``i`` set for each index ``i``, raising as
    ``LanguageView.from_indices`` does."""
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
    return int.from_bytes(bits, "little")
