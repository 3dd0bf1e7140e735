"""Desk-scale counting oracles: witness relations evaluated by enumeration.

A :class:`WitnessRelation` stands in for a nondeterministic machine: its
computation paths are the witness cube of a declared width ``k``, and
``accepts(n, y)`` names the length-``n`` inputs that witness ``y`` accepts.
A witness is its ``k``-bit int and an input its index among the strings of
its length, both read most significant bit first, which is their text
order.  :func:`level_counts` gives every input of a length its
accepting-path count from one pass over the relation's sweep,
:meth:`WitnessRelation.witnesses`, building no
:class:`~martlab.cantor.BitString`; every relation cover decides its leaves
from those counts.  The sweep is the whole cube unless the relation names
its well-formed witnesses, a subset of the cube that holds every witness
that accepts anything; the ones it skips accept nothing, so the counts, the
width ``k`` and the gap ``2 * accepts - 2**k`` are those of the whole cube.

Enumeration is exhaustive and capped at ``WITNESS_CAP`` witness bits, so
every count stays exact and fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .cantor import BitString
from .errors import CapExceeded

__all__ = [
    "WitnessRelation",
    "WITNESS_CAP",
    "count",
    "explicit_set_relation",
    "level_counts",
    "sat_relation",
]

WITNESS_CAP = 22


@dataclass(frozen=True)
class WitnessRelation:
    """A finitely described witness relation.

    ``witness_length`` maps input length to the witness-cube width ``k``;
    ``accepts(n, y)`` takes the witness as its ``k``-bit int ``y``, most
    significant bit first, and gives the indices of the length-``n`` inputs
    it accepts, each once.  It must be deterministic and total on its
    domain.  ``well_formed(n)``, when given, yields in increasing order
    distinct witnesses of the cube that include every one whose ``accepts``
    is nonempty; :meth:`witnesses` sweeps it in place of the cube.
    """

    name: str
    witness_length: Callable[[int], int]
    accepts: Callable[[int, int], Iterable[int]]
    well_formed: Callable[[int], Iterable[int]] | None = None

    def witnesses(self, n: int) -> Iterable[int]:
        """The witnesses a length-``n`` sweep asks, in increasing order: the
        well-formed ones, or else the whole cube ``range(2**k)``."""
        if self.well_formed is None:
            return range(1 << self.witness_length(n))
        return self.well_formed(n)

    @classmethod
    def from_image(
        cls,
        name: str,
        witness_length: Callable[[int], int],
        image: Callable[[int, int], int | None],
        well_formed: Callable[[int], Iterable[int]] | None = None,
    ) -> "WitnessRelation":
        """The relation whose witness ``y`` accepts the one length-``n``
        input of index ``image(n, y)``, or none where that is ``None``;
        ``well_formed`` is as the field of that name, and every witness it
        skips must have no image."""

        def accepts(n: int, y: int) -> tuple[int, ...]:
            x = image(n, y)
            return () if x is None else (x,)

        return cls(name, witness_length, accepts, well_formed)


def level_counts(rel: WitnessRelation, n: int) -> list[int]:
    """The accepting-path count of every length-``n`` input, in index order,
    from one pass over the relation's sweep, ``rel.witnesses(n)``.

    The cube's width is checked before the sweep starts.  A sweep of the
    well-formed witnesses skips only witnesses that accept nothing, so the
    counts are those of the whole cube of width ``k``.
    """
    k = rel.witness_length(n)
    if k < 0:
        raise ValueError(f"{rel.name}: negative witness length {k}")
    if k > WITNESS_CAP:
        raise CapExceeded(
            f"{rel.name}: witness length {k} exceeds cap {WITNESS_CAP} on |x|={n}"
        )
    counts, accepts = [0] * (1 << n), rel.accepts
    for y in rel.witnesses(n):
        for i in accepts(n, y):
            counts[i] += 1
    return counts


def count(rel: WitnessRelation, x: BitString) -> int:
    """The accepting-path count of ``x``: its entry in :func:`level_counts`."""
    return level_counts(rel, len(x))[x.to_int()]


def explicit_set_relation(
    name: str, members: Iterable[BitString | str]
) -> WitnessRelation:
    """Membership in an explicit finite set, with the empty witness.

    The witness cube has width zero, so each member has exactly one
    accepting path; this is a valid unique-witness relation.
    """
    by_length: dict[int, set[int]] = {}
    for m in members:
        m = m if isinstance(m, BitString) else BitString(m)
        by_length.setdefault(len(m), set()).add(m.to_int())
    return WitnessRelation(
        name=name,
        witness_length=lambda n: 0,
        accepts=lambda n, y: by_length.get(n, ()),
    )


def sat_relation(num_vars: int) -> WitnessRelation:
    """Satisfying assignments of the formula a truth table encodes.

    The input ``x`` is a ``2**num_vars``-bit truth table; a witness ``y``
    assigns the variables, and accepts every table whose row ``y`` is 1.
    """
    rows = 1 << num_vars

    def accepts(n: int, y: int) -> list[int]:
        if n != rows:
            raise ValueError(f"input length {n} != 2**{num_vars} truth-table rows")
        bit = 1 << (rows - 1 - y)  # row y is the table's y-th bit
        return [i for i in range(1 << rows) if i & bit]

    return WitnessRelation(
        name=f"sat-{num_vars}",
        witness_length=lambda n: num_vars,
        accepts=accepts,
    )
