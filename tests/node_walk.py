"""The per-node prefix-tree walk, as martlab ran it before row kernels.

Test-local oracles for :func:`martlab.martingale.levels` and everything that
reads it.  Here every node is a ``BitString`` and every value is evaluated
by a callable, once per node, as a ``Dyadic`` (or a ``Fraction``), and
added and compared as a ``Fraction``: :func:`averaging_report` is the twin
of ``verify_averaging`` (and, on ``Fraction`` values, of
``verify_averaging_exact``), and :func:`tree_csv`, :func:`tree_json` and
:func:`tree_dot` are the twins of the dumps, whose written text
:func:`dumped` collects.  Pass ``m.value`` and ``m.freeze_depth`` of a
martingale ``m``.

The scans along one path, as martlab ran them before path kernels, are here
too: every prefix is a ``BitString`` evaluated by ``value`` as a ``Dyadic``,
and thresholds are ``Fraction`` exponents, compared by :func:`cmp_pow2`, the
form of ``martlab.dyadic.cmp_pow2`` before it took integer pairs.  No value
is added through ``Dyadic``, which has no arithmetic, so these twins share
no sum with the code they check.  :func:`success_scan`,
:func:`empirical_dimension` and :func:`diagonalize` (with the value trace
along its result) are the twins of ``martingale``'s functions of those
names and of ``cmd_diagonalize``'s trace.
"""

import json
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Iterator, TypeVar

from martlab.cantor import EMPTY, BitString, all_strings
from martlab.constructions import _leveled
from martlab.dyadic import (
    GRID_BITS,
    ONE,
    ZERO,
    Dyadic,
    grid_floor_one_minus_log2_ratio,
    pow_bit_length,
)
from martlab.martingale import (
    AveragingReport,
    AveragingViolation,
    DimensionReport,
    Martingale,
    RatioForm,
    SuccessReport,
)

T = TypeVar("T")


def as_fraction(v: Dyadic | Fraction) -> Fraction:
    """A value as a ``Fraction``: a ``Dyadic`` is ``num / 2**log_den``."""
    return v if isinstance(v, Fraction) else Fraction(v.num, 1 << v.log_den)


def as_dyadic(f: Fraction) -> Dyadic:
    """A ``Fraction`` whose denominator is a power of two, as a ``Dyadic``."""
    log_den = f.denominator.bit_length() - 1
    assert f.denominator == 1 << log_den, f
    return Dyadic(f.numerator, log_den)


def levels(
    value: Callable[[BitString], T], depth: int
) -> Iterator[tuple[list[BitString], list[T]]]:
    """Level-order walk of the prefix tree: ``(nodes, values)`` per level.

    Levels ``0..depth`` come in order, each in index (lexicographic) order,
    so the children of ``nodes[i]`` are ``2i`` and ``2i + 1`` of the next
    level.  ``value`` is called exactly once per node.
    """
    nodes = [EMPTY]
    for k in range(depth + 1):
        if k:
            nodes = [w.append(b) for w in nodes for b in (0, 1)]
        yield nodes, [value(w) for w in nodes]


def tabled(value: Callable[[BitString], Dyadic], depth: int, **kwargs) -> Martingale:
    """The martingale taking ``value(w)`` at every string ``w`` of length at
    most ``depth``, read from a table of rows: level ``k`` holds each value
    over the level's largest log-denominator, and the kernel reads the two
    children of each prefix off the next row.  ``kwargs`` go to
    ``Martingale.from_ratio``."""
    rows = []
    for _, values in levels(value, depth):
        log_den = max(v.log_den for v in values)
        rows.append(([v.num << (log_den - v.log_den) for v in values], log_den))

    def kernel():
        i, bit = 0, None  # the prefix reached reads i in row k
        for nums, log_den in rows[1:]:
            bit = yield nums[2 * i], nums[2 * i + 1], log_den
            i = 2 * i + bit

    return Martingale.from_ratio(rows.__getitem__, kernel, **kwargs)


def table_form(table: dict[str, int], n: int) -> RatioForm:
    """The leveled counting form ``table[w] / 2**(n - |w|)`` to level ``n``,
    whose ``numerator`` reads the table: counts that need not add up."""
    return _leveled(
        lambda w: table[str(w)],
        lambda k: [table[str(w)] for w in all_strings(k)],
        n,
        "table",
    ).ratio


def stepped(m: Martingale, steps: list) -> Martingale:
    """``m`` with a kernel that records the bit sent at each step."""
    kernel = m.ratio.kernel

    def recorded():
        inner, bit = kernel(), None
        while True:
            steps.append(bit)
            bit = yield inner.send(bit)

    return replace(m, ratio=replace(m.ratio, kernel=recorded))


def averaging_report(
    value: Callable[[BitString], T],
    depth: int,
    supermartingale: bool = False,
    freeze_depth: int | None = None,
) -> AveragingReport:
    """Check ``2*d(w) == d(w0) + d(w1)`` for every ``w`` shorter than depth.

    Supermartingales are held to the relaxed ``>=`` law.  A ``freeze_depth``
    below ``depth`` is checked too: both children of each node at that level
    must repeat its value.  Findings come out in level, then lexicographic,
    order.
    """
    if freeze_depth is not None and freeze_depth >= depth:
        freeze_depth = None
    violations, unfrozen = [], []
    parents, parent_values = [], []
    for k, (nodes, values) in enumerate(levels(value, depth)):
        children = zip(parents, parent_values, values[0::2], values[1::2])
        for w, v, v0, v1 in children:
            child_sum = as_fraction(v0) + as_fraction(v1)
            doubled = 2 * as_fraction(v)
            if doubled < child_sum if supermartingale else doubled != child_sum:
                if isinstance(v, Dyadic):  # reported as verify_averaging does
                    child_sum = as_dyadic(child_sum)
                violations.append(AveragingViolation(w, v, child_sum))
            if k - 1 == freeze_depth and (v0 != v or v1 != v):
                unfrozen.append(w)
        parents, parent_values = nodes, values
    return AveragingReport(
        depth, supermartingale, tuple(violations), freeze_depth, tuple(unfrozen)
    )


def tree_csv(value: Callable[[BitString], T], depth: int) -> str:
    lines = ["node,value"]
    for nodes, values in levels(value, depth):
        lines.extend(f"{w or 'λ'},{v}" for w, v in zip(nodes, values))
    return "\n".join(lines) + "\n"


def tree_json(value: Callable[[BitString], T], depth: int) -> str:
    tree = {}
    for nodes, values in levels(value, depth):
        tree.update(zip(map(str, nodes), map(str, values)))
    return json.dumps(tree, indent=2, sort_keys=True) + "\n"


def tree_dot(value: Callable[[BitString], T], depth: int) -> str:
    lines = [
        "digraph martingale {",
        "  ordering=out;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for k, (nodes, values) in enumerate(levels(value, depth)):
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


def dumped(dump: Callable, m: Martingale, depth: int) -> str:
    """The text that ``dump``, one of martlab's tree dumps, writes for ``m``
    to ``depth``, collected into one string."""
    parts = []
    dump(m, depth, parts.append)
    return "".join(parts)


def cmp_pow2(value: Dyadic, exponent: Fraction) -> int:
    """Exact three-way comparison of ``value`` against ``2**exponent``, a
    canonical ``Dyadic`` against a ``Fraction`` whose denominator is a power
    of two: for ``value = m / 2**j > 0`` and ``exponent = p / 2**k`` in
    lowest terms, ``m**(2**k)`` against ``2**(p + j * 2**k)``, outside
    ``m``'s bit-length band from the bit length alone, inside it from
    :func:`~martlab.dyadic.pow_bit_length`."""
    m = value.num
    if m <= 0:
        return -1
    k = exponent.denominator.bit_length() - 1
    assert exponent.denominator == 1 << k, exponent
    target = exponent.numerator + (value.log_den << k)
    b = m.bit_length()
    if target < (b - 1) << k:
        return 1
    if target >= b << k:
        return -1
    floor_log = pow_bit_length(m, 1 << k) - 1
    if target != floor_log:
        return 1 if target < floor_log else -1
    return 0 if m & (m - 1) == 0 else 1


def success_scan(
    value: Callable[[BitString], Dyadic], S: BitString, s: Dyadic
) -> SuccessReport:
    """``d(S[:n]) >= 2**((1-s)*n)`` at every level, ``value`` per prefix."""
    values, levels, unitary = [], set(), None
    one_minus_s = 1 - as_fraction(s)
    for n in range(len(S) + 1):
        v = value(S.prefix(n))
        values.append(v)
        if cmp_pow2(v, one_minus_s * n) >= 0:
            levels.add(n)
        if unitary is None and v >= ONE:
            unitary = n
    return SuccessReport(len(S), s, tuple(values), frozenset(levels), unitary)


def empirical_dimension(
    value: Callable[[BitString], Dyadic], S: BitString
) -> DimensionReport:
    """``1 - log2(d(S[:n]))/n`` on the grid for ``1 <= n <= |S|``."""
    levels = []
    for n in range(1, len(S) + 1):
        v = value(S.prefix(n))
        levels.append(
            None if v == ZERO
            else grid_floor_one_minus_log2_ratio(v.num, v.log_den, n, GRID_BITS)
        )
    finite = [v for v in levels if v is not None]
    best = min(finite) if finite else None
    worst = max(finite) if len(finite) == len(levels) else None
    return DimensionReport(GRID_BITS, tuple(levels), best, worst)


def diagonalize(
    value: Callable[[BitString], Dyadic], N: int
) -> tuple[BitString, list[Dyadic]]:
    """The length-``N`` prefix that takes the strictly smaller child, ties
    to 0, and the values along it from the root."""
    w = EMPTY
    for _ in range(N):
        w = w.append(1 if value(w.append(1)) < value(w.append(0)) else 0)
    return w, [value(w.prefix(k)) for k in range(N + 1)]
