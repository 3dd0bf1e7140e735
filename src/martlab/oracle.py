"""Desk-scale counting oracles: witness relations evaluated by enumeration.

A :class:`WitnessRelation` stands in for a nondeterministic machine: its
computation paths are the full witness cube of a declared length, and the
three counting modes read off the accepting-path count, the number of
distinct emitted outputs, and the accepting-minus-rejecting gap.  A relation
whose every witness accepts at most one input of each length can say which
through an ``image`` map, and then :func:`level_counts` counts every input of
a length from one pass over the cube.

Enumeration is exhaustive and capped at ``WITNESS_CAP`` witness bits, so
every count stays exact and fast.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from .cantor import BitString
from .errors import CapExceeded, SpanModeUnavailable, UniquenessViolation

__all__ = [
    "CountMode",
    "WitnessRelation",
    "WITNESS_CAP",
    "count",
    "decide_unique",
    "exists",
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


def exists(rel: WitnessRelation, x: BitString) -> bool:
    """``count(...) > 0``, stopping at the first accepting witness."""
    k, cube = _witness_cube(rel, len(x))
    return any(rel.verify(x, BitString.from_int(v, k)) for v in cube)


def level_counts(rel: WitnessRelation, n: int) -> list[int]:
    """The accepting-witness count of every length-``n`` input, in index
    order, from one pass over the witness cube through ``rel.image``.

    Equal to ``count(rel, CountMode.WITNESS_COUNT, x)`` for each ``x``, in
    ``2**k`` image calls instead of ``2**n * 2**k`` verify calls.
    """
    k, cube = _witness_cube(rel, n)
    image = rel.image
    counts = [0] * (1 << n)
    for v in cube:
        x = image(n, BitString.from_int(v, k))
        if x is not None:
            counts[x.to_int()] += 1
    return counts


def decide_unique(rel: WitnessRelation, x: BitString) -> bool:
    """Accept iff exactly one witness; reject iff none.

    More than one witness means the relation is not a valid unique-witness
    stand-in, which is an error rather than an answer.
    """
    c = count(rel, CountMode.WITNESS_COUNT, x)
    if c > 1:
        raise UniquenessViolation(f"{rel.name}: {c} witnesses on {x!r}")
    return c == 1


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
