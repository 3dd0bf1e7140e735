"""Evaluable betting functions on binary prefixes.

A :class:`Martingale` bundles an exact evaluator (when one exists), a
precision-``r`` approximate evaluator, the value at the empty string, an
optional freeze depth past which values repeat, and a metadata tag recording
the counting class the construction claims (recorded, never proved).

The operations here are the generic checks every construction must survive:
the exact averaging law, success scans against ``2**((1-s)*n)`` thresholds,
the bit-by-bit diagonalization that defeats a given martingale, and
finite-horizon dimension statistics on a fixed dyadic grid.  Every check or
export over a whole prefix tree reads it through :func:`levels`, one
level-order walk that evaluates each node once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, TypeVar

from .cantor import EMPTY, BitString
from .dyadic import (
    Dyadic,
    ONE,
    cmp_pow2,
    grid_floor_one_minus_log2_ratio,
)
from .errors import NegativeValue

T = TypeVar("T")

__all__ = [
    "Martingale",
    "RatioForm",
    "AveragingViolation",
    "AveragingReport",
    "SuccessReport",
    "DimensionReport",
    "levels",
    "averaging_report",
    "verify_averaging",
    "success_scan",
    "diagonalize",
    "empirical_dimension",
    "tree_csv",
    "tree_json",
    "tree_dot",
]


@dataclass(frozen=True)
class RatioForm:
    """A martingale written as integer numerator over a power of two.

    ``numerator(w) / 2**log_denominator(w)`` must equal the exact value; the
    numerator plays the counting-function role, the denominator the
    polynomial-time power-of-two role.
    """

    numerator: Callable[[BitString], int]
    log_denominator: Callable[[BitString], int]

    def value(self, w: BitString) -> Dyadic:
        return Dyadic(self.numerator(w), self.log_denominator(w))


@dataclass(frozen=True)
class Martingale:
    """An evaluable betting function.

    ``exact`` may be None for approximation-only martingales (aggregates of
    infinite families); ``approx(w, r)`` must then be within ``2**-r`` of the
    true value.  ``freeze_depth = n`` declares that strings longer than ``n``
    take the value of their length-``n`` prefix.
    """

    approx: Callable[[BitString, int], Dyadic]
    exact: Callable[[BitString], Dyadic] | None
    initial_capital: Dyadic
    freeze_depth: int | None = None
    class_tag: str = "unclassified"
    supermartingale: bool = False
    ratio: RatioForm | None = None
    meta: Mapping = field(default_factory=dict)

    @classmethod
    def from_exact(
        cls,
        evaluate: Callable[[BitString], Dyadic],
        freeze_depth: int | None = None,
        class_tag: str = "unclassified",
        supermartingale: bool = False,
        ratio: RatioForm | None = None,
        meta: Mapping | None = None,
    ) -> "Martingale":
        def approx(w: BitString, r: int) -> Dyadic:
            return evaluate(w)

        return cls(
            approx=approx,
            exact=evaluate,
            initial_capital=evaluate(EMPTY),
            freeze_depth=freeze_depth,
            class_tag=class_tag,
            supermartingale=supermartingale,
            ratio=ratio,
            meta=dict(meta or {}),
        )

    @classmethod
    def constant(cls, value: Dyadic) -> "Martingale":
        if value.is_negative():
            raise NegativeValue(f"constant martingale value {value}")
        return cls.from_exact(
            lambda w: value, freeze_depth=0, class_tag="constant"
        )

    def value(self, w: BitString) -> Dyadic:
        if self.exact is None:
            raise ValueError("martingale has no exact evaluator")
        v = self.exact(w)
        if v.is_negative():
            raise NegativeValue(f"negative value {v} at {w!r}")
        return v

    def value_approx(self, w: BitString, r: int) -> Dyadic:
        return self.approx(w, r)


@dataclass(frozen=True)
class AveragingViolation:
    node: BitString
    parent_value: Dyadic
    child_sum: Dyadic


@dataclass(frozen=True)
class AveragingReport:
    """Averaging-law violations; ``unfrozen`` lists the nodes at the checked
    ``freeze_depth`` (None: not checked) whose children differ from them."""

    depth: int
    supermartingale: bool
    violations: tuple[AveragingViolation, ...]
    freeze_depth: int | None = None
    unfrozen: tuple[BitString, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def frozen(self) -> bool:
        return not self.unfrozen


def levels(
    value: Callable[[BitString], T], depth: int
) -> Iterator[tuple[list[BitString], list[T]]]:
    """Level-order walk of the prefix tree: ``(nodes, values)`` per level.

    Levels ``0..depth`` come in order, each in index (lexicographic) order,
    so the children of ``nodes[i]`` are ``2i`` and ``2i + 1`` of the next
    level.  ``value`` (a ``Dyadic`` or ``Fraction`` evaluator) is called
    exactly once per node.
    """
    nodes = [EMPTY]
    for k in range(depth + 1):
        if k:
            nodes = [w.append(b) for w in nodes for b in (0, 1)]
        yield nodes, [value(w) for w in nodes]


def averaging_report(
    value: Callable[[BitString], T],
    depth: int,
    supermartingale: bool = False,
    freeze_depth: int | None = None,
) -> AveragingReport:
    """Check ``2*d(w) == d(w0) + d(w1)`` for every ``w`` shorter than depth.

    Supermartingales are held to the relaxed ``>=`` law.  A ``freeze_depth``
    below ``depth`` is checked too: both children of each node at that level
    must repeat its value.  One walk, values compared exactly; findings come
    out in level, then lexicographic, order.
    """
    if freeze_depth is not None and freeze_depth >= depth:
        freeze_depth = None
    violations, unfrozen = [], []
    parents, parent_values = [], []
    for k, (nodes, values) in enumerate(levels(value, depth)):
        children = zip(parents, parent_values, values[0::2], values[1::2])
        for w, v, v0, v1 in children:
            child_sum = v0 + v1
            doubled = v + v
            if doubled < child_sum if supermartingale else doubled != child_sum:
                violations.append(AveragingViolation(w, v, child_sum))
            if k - 1 == freeze_depth and (v0 != v or v1 != v):
                unfrozen.append(w)
        parents, parent_values = nodes, values
    return AveragingReport(
        depth, supermartingale, tuple(violations), freeze_depth, tuple(unfrozen)
    )


def verify_averaging(m: Martingale, depth: int) -> AveragingReport:
    """:func:`averaging_report` on ``m``'s exact values and freeze depth."""
    return averaging_report(m.value, depth, m.supermartingale, m.freeze_depth)


@dataclass(frozen=True)
class SuccessReport:
    """Threshold crossings of a martingale along one prefix sequence."""

    horizon: int
    s: Dyadic
    values: tuple[Dyadic, ...]
    success_levels: frozenset[int]
    unitary_hit: int | None

    def succeeded(self) -> bool:
        return bool(self.success_levels)


def success_scan(m: Martingale, S: BitString, s: Dyadic) -> SuccessReport:
    """Exact comparison ``d(S[:n]) >= 2**((1-s)*n)`` at every level.

    At ``s == 1`` the threshold is constant 1, the finite surrogate of
    unbounded success at this horizon.
    """
    values = []
    levels = set()
    unitary = None
    one_minus_s = ONE - s
    for n in range(len(S) + 1):
        v = m.value(S.prefix(n))
        values.append(v)
        exponent = one_minus_s * Dyadic(n)
        if cmp_pow2(v, exponent) >= 0:
            levels.add(n)
        if unitary is None and v >= ONE:
            unitary = n
    return SuccessReport(len(S), s, tuple(values), frozenset(levels), unitary)


def diagonalize(m: Martingale, N: int) -> BitString:
    """The length-``N`` prefix that the martingale cannot grow on.

    Each next bit is 1 exactly when the 1-child value is strictly smaller;
    ties go to 0.  The value trace along the result is non-increasing.
    """
    w = EMPTY
    for _ in range(N):
        zero_value = m.value(w.append(0))
        one_value = m.value(w.append(1))
        w = w.append(1 if one_value < zero_value else 0)
    return w


@dataclass(frozen=True)
class DimensionReport:
    """Grid-quantized ``1 - log2(d(S[:n]))/n`` statistics over one prefix.

    ``levels[n]`` is None where the value is zero (the +infinity sentinel).
    ``best``/``worst`` are the min/max over levels; ``worst`` is None when
    any level is +infinity.
    """

    grid_bits: int
    levels: tuple[Dyadic | None, ...]
    best: Dyadic | None
    worst: Dyadic | None

    @property
    def has_infinite_level(self) -> bool:
        return any(v is None for v in self.levels)


def empirical_dimension(
    m: Martingale, S: BitString, grid_bits: int = 10
) -> DimensionReport:
    """Finite-horizon dimension witnesses along ``S``.

    For ``1 <= n <= |S|`` the statistic ``1 - log2(d(S[:n]))/n`` is floored
    onto the ``2**-grid_bits`` grid with exact comparisons; the min over
    levels witnesses dimension, the max strong dimension, both relative to
    this horizon only.
    """
    if len(S) < 1:
        raise ValueError("needs a prefix of length at least 1")
    levels: list[Dyadic | None] = []
    for n in range(1, len(S) + 1):
        v = m.value(S.prefix(n))
        if v.is_zero():
            levels.append(None)
        else:
            levels.append(grid_floor_one_minus_log2_ratio(v, n, grid_bits))
    finite = [v for v in levels if v is not None]
    best = min(finite) if finite else None
    worst = max(finite) if len(finite) == len(levels) else None
    return DimensionReport(grid_bits, tuple(levels), best, worst)


def tree_csv(m: Martingale, depth: int) -> str:
    """Level-order ``node,value`` dump with values rendered ``p/2**k``."""
    lines = ["node,value"]
    for nodes, values in levels(m.value, depth):
        lines.extend(f"{w or 'λ'},{v}" for w, v in zip(nodes, values))
    return "\n".join(lines) + "\n"


def tree_json(m: Martingale, depth: int) -> str:
    """``{node: value}`` as key-sorted JSON; the root's key is ``""``."""
    tree = {}
    for nodes, values in levels(m.value, depth):
        tree.update(zip(map(str, nodes), map(str, values)))
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def tree_dot(m: Martingale, depth: int) -> str:
    """DOT rendering, root on top, 0-child left, value-1 leaves highlighted."""
    lines = [
        "digraph martingale {",
        "  ordering=out;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for k, (nodes, values) in enumerate(levels(m.value, depth)):
        for w, v in zip(nodes, values):
            name = f'"{w or "λ"}"'
            attrs = f'label="{v}"'
            if k == depth and v >= ONE:
                attrs += ", style=filled, fillcolor=palegreen"
            lines.append(f"  {name} [{attrs}];")
            if k < depth:
                lines.extend(f'  {name} -> "{w}{b}";' for b in "01")
    lines.append("}")
    return "\n".join(lines) + "\n"
