"""Desk-scale counting oracles: witness relations evaluated by enumeration.

A :class:`WitnessRelation` stands in for a nondeterministic machine: its
computation paths are the full witness cube of a declared length, and the
three counting modes read off the accepting-path count, the number of
distinct emitted outputs, and the accepting-minus-rejecting gap.  A relation
whose every witness accepts at most one input of each length can say which
through an ``image`` map.  :func:`level_counts` gives every input of a
length its accepting-path count: from one pass over the cube for a relation
with an ``image``, input by input for any other.

Enumeration is exhaustive and capped at ``WITNESS_CAP`` witness bits, so
every count stays exact and fast.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from .cantor import BitString, all_strings
from .errors import CapExceeded, SpanModeUnavailable

__all__ = [
    "CountMode",
    "WitnessRelation",
    "WITNESS_CAP",
    "count",
    "explicit_set_relation",
    "level_counts",
    "sat_relation",
]

WITNESS_CAP = 22


class CountMode(enum.Enum):
    WITNESS_COUNT = "witness-count"
    DISTINCT_OUTPUT_COUNT = "distinct-output-count"
    ACCEPT_MINUS_REJECT = "accept-minus-reject"


@dataclass(frozen=True)
class WitnessRelation:
    """A finitely described witness relation.

    ``witness_length`` maps input length to the witness-cube width;
    ``verify`` must be deterministic and total on its domain.  ``emit`` is
    only needed for distinct-output counting.  ``image(n, y)``, where given,
    is the only length-``n`` input the witness ``y`` accepts, or ``None``
    if it accepts none.
    """

    name: str
    witness_length: Callable[[int], int]
    verify: Callable[[BitString, BitString], bool]
    emit: Callable[[BitString, BitString], BitString] | None = None
    image: Callable[[int, BitString], BitString | None] | None = None

    @classmethod
    def from_image(
        cls,
        name: str,
        witness_length: Callable[[int], int],
        image: Callable[[int, BitString], BitString | None],
    ) -> "WitnessRelation":
        """The relation ``verify(x, y) = image(len(x), y) == x``; every
        accepting witness emits itself."""
        return cls(
            name=name,
            witness_length=witness_length,
            verify=lambda x, y: image(len(x), y) == x,
            emit=lambda x, y: y,
            image=image,
        )


def _witness_cube(rel: WitnessRelation, n: int) -> tuple[int, range]:
    """The width and the witnesses of the cube over length-``n`` inputs."""
    k = rel.witness_length(n)
    if k < 0:
        raise ValueError(f"{rel.name}: negative witness length {k}")
    if k > WITNESS_CAP:
        raise CapExceeded(
            f"{rel.name}: witness length {k} exceeds cap {WITNESS_CAP} on |x|={n}"
        )
    return k, range(1 << k)


def count(rel: WitnessRelation, mode: CountMode, x: BitString) -> int:
    """Exact count over the witness cube in the requested mode.

    Only ACCEPT_MINUS_REJECT may return a negative number.
    """
    k, cube = _witness_cube(rel, len(x))
    if mode is CountMode.DISTINCT_OUTPUT_COUNT and rel.emit is None:
        raise SpanModeUnavailable(f"{rel.name} has no emit map")

    accepts = 0
    outputs: set[BitString] = set()
    for v in cube:
        y = BitString.from_int(v, k)
        if rel.verify(x, y):
            accepts += 1
            if mode is CountMode.DISTINCT_OUTPUT_COUNT:
                outputs.add(rel.emit(x, y))

    if mode is CountMode.WITNESS_COUNT:
        return accepts
    if mode is CountMode.DISTINCT_OUTPUT_COUNT:
        return len(outputs)
    return 2 * accepts - (1 << k)


def level_counts(rel: WitnessRelation, n: int) -> list[int]:
    """``count(rel, CountMode.WITNESS_COUNT, x)`` for every length-``n``
    input ``x``, in index order.

    A relation with an ``image`` is counted in one pass over its witness
    cube, in ``2**k`` image calls instead of ``2**n * 2**k`` verify calls.
    The cube's width is checked before the first ``image`` or ``verify``.
    """
    k, cube = _witness_cube(rel, n)
    image = rel.image
    if image is None:
        return [count(rel, CountMode.WITNESS_COUNT, x) for x in all_strings(n)]
    counts = [0] * (1 << n)
    for v in cube:
        x = image(n, BitString.from_int(v, k))
        if x is not None:
            counts[x.to_int()] += 1
    return counts


def explicit_set_relation(
    name: str, members: Iterable[BitString | str]
) -> WitnessRelation:
    """Membership in an explicit finite set, with the empty witness.

    The witness cube has width zero, so each member has exactly one
    accepting path; this is a valid unique-witness relation.
    """
    member_set = frozenset(
        m if isinstance(m, BitString) else BitString(m) for m in members
    )
    return WitnessRelation(
        name=name,
        witness_length=lambda n: 0,
        verify=lambda x, y: x in member_set,
        emit=lambda x, y: x,
    )


def sat_relation(num_vars: int) -> WitnessRelation:
    """Satisfying assignments of the formula a truth table encodes.

    The input ``x`` is a ``2**num_vars``-bit truth table; a witness ``y``
    assigns the variables, and ``x[y]`` decides acceptance.  The emit map is
    the assignment itself, so distinct-output and witness counts agree.
    """
    rows = 1 << num_vars

    def verify(x: BitString, y: BitString) -> bool:
        if len(x) != rows:
            raise ValueError(
                f"input length {len(x)} != 2**{num_vars} truth-table rows"
            )
        return x[y.to_int()] == 1

    return WitnessRelation(
        name=f"sat-{num_vars}",
        witness_length=lambda n: num_vars,
        verify=verify,
        emit=lambda x, y: y,
    )
