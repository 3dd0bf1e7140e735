"""Evaluable betting functions on binary prefixes.

A :class:`Martingale` is exact: it bundles its counting form, the value at
the empty string and an optional freeze depth past which values repeat.  A
value known only to a precision is a
:class:`~martlab.combinators.Approximation`, never a ``Martingale``.  The
class a numerator is counted in is stated by its construction's docstring
and checked by ``tests/test_counting_classes.py``, never recorded here.

The operations here are the generic checks every construction must survive:
the exact averaging law, success scans against ``2**((1-s)*n)`` thresholds,
the bit-by-bit diagonalization that defeats a given martingale, and
finite-horizon dimension statistics on a fixed dyadic grid.  Every check or
export over a whole prefix tree reads the ``RatioForm`` rows through
:func:`levels`, integer numerators over one power of two per level;
``BitString`` names and value text are built only for the findings and the
dump lines.  The CSV, JSON and DOT dumps render a level a slice at a
time and pass each slice's lines, joined into one string, to the ``write``
they are given: node names come from :func:`~martlab.cantor.level_names`,
at most ``2**SLICE_BITS`` per slice, and each distinct numerator is rendered
once, so no whole deep level of names or lines, and no whole text, is held.
The JSON dump holds every level's row and writes the tree in pre-order,
which is the key order of ``json.dumps(..., sort_keys=True)``, one subtree
of up to ``SLICE_BITS`` levels at a time.  Every read along one
path (the success scan, the dimension statistics, diagonalization and its
trace, a node's value) steps the ``RatioForm`` kernel through one checked
walker, which yields integer pairs ``(numerator, log_den)``.  The success
thresholds and the dimension grid floors read those pairs as they come,
through :func:`~martlab.dyadic.cmp_pow2` and
:func:`~martlab.dyadic.grid_floor_one_minus_log2_ratio`, and a success
scan reports the pairs themselves, which :func:`~martlab.dyadic.text`
renders; a ``Dyadic`` is built only for each reported grid floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from operator import add, lt
from typing import Callable, Generator, Iterator, Mapping, Sequence

from .cantor import SLICE_BITS, BitString, level_names
from .dyadic import (
    GRID_BITS,
    Dyadic,
    cmp_pow2,
    grid_floor_one_minus_log2_ratio,
    text,
)
from .errors import CapExceeded, NegativeValue

# a tree walk, a generic cover or a conditional expectation enumerates all
# 2**level strings of its deepest level
LEVEL_CAP = 22

__all__ = [
    "LEVEL_CAP",
    "Martingale",
    "RatioForm",
    "AveragingViolation",
    "AveragingReport",
    "SuccessReport",
    "DimensionReport",
    "levels",
    "verify_averaging",
    "success_scan",
    "diagonalize",
    "empirical_dimension",
    "tree_csv",
    "tree_json",
    "tree_dot",
]


Kernel = Generator[tuple[int, int, int], int | None, None]


@dataclass(frozen=True)
class RatioForm:
    """A martingale as integer numerators, the counting functions, over
    powers of two.

    ``row(k)`` is the form on a whole level: the numerators of the ``2**k``
    strings of length ``k`` in index order, over one shared log-denominator,
    as ``(numerators, log_den)``.  ``kernel()`` is the form along one path:
    a fresh generator at the root that yields the numerators of the two
    children of the prefix it has reached over their shared log-denominator,
    ``(zero, one, log_den)``, and is sent the chosen bit (None first); it may
    be stepped forever, as a frozen form's children repeat it.  The two
    agree: the children at the ``i``-th length-``k`` string are entries
    ``2i`` and ``2i + 1`` of row ``k + 1``.  Kernels compose: a sum steps
    its members' kernels.  Only a leveled form, frozen at its level ``n``,
    supplies ``numerator(w)``: its count at ``w.prefix(n)``, over
    ``2**max(0, n - |w|)``.
    """

    row: Callable[[int], tuple[list[int], int]]
    kernel: Callable[[], Kernel]
    numerator: Callable[[BitString], int] | None = None


@dataclass(frozen=True)
class Martingale:
    """An evaluable betting function, exact by type.

    ``ratio`` is its counting form, a :class:`RatioForm`, and
    ``initial_capital`` is the value ``row(0)`` gives the empty string;
    whether the numerator is #P, SpanP or GapP is the construction's claim,
    not a field.  ``freeze_depth = n`` declares that strings longer than
    ``n`` take the value of their length-``n`` prefix.  ``meta`` carries the
    kind, as ``{"construction": kind}``; nothing in the package reads it,
    and the benchmark's traced spans name each ``value`` call after it.
    """

    ratio: RatioForm
    initial_capital: Dyadic
    freeze_depth: int | None
    supermartingale: bool
    meta: Mapping

    @classmethod
    def from_ratio(
        cls,
        row: Callable[[int], tuple[list[int], int]],
        kernel: Callable[[], Kernel],
        freeze_depth: int | None = None,
        supermartingale: bool = False,
        meta: Mapping | None = None,
        numerator: Callable[[BitString], int] | None = None,
    ) -> "Martingale":
        """The martingale of a counting form; its capital is ``row(0)``'s."""
        (root,), log_den = row(0)
        return cls(
            ratio=RatioForm(row, kernel, numerator),
            initial_capital=Dyadic(root, log_den),
            freeze_depth=freeze_depth,
            supermartingale=supermartingale,
            meta=dict(meta or {}),
        )

    @classmethod
    def constant(cls, value: Dyadic) -> "Martingale":
        if value.is_negative():
            raise NegativeValue(f"constant martingale value {value}")
        num, log_den = value.num, value.log_den
        return cls.from_ratio(
            lambda k: ([num] * (1 << k), log_den),
            partial(_repeat, num, log_den),
            freeze_depth=0,
        )

    def value(self, w: BitString) -> Dyadic:
        """The value at ``w``, read no deeper than the freeze depth: the walk
        along ``w``, except that the root is the capital (a constant takes no
        kernel step) and a leveled form counts once."""
        freeze = self.freeze_depth
        n = len(w) if freeze is None else min(len(w), freeze)
        if n and self.ratio.numerator is None:
            bits = iter(w)
            for num, log_den in _walk(self, n, lambda zero, one: next(bits)):
                pass
            return Dyadic(num, log_den)
        v = Dyadic(self.ratio.numerator(w), freeze - n) if n else self.initial_capital
        if v.is_negative():
            raise NegativeValue(f"negative value {v} at {w.prefix(n)!r}")
        return v

    def path(self, S: BitString) -> Iterator[tuple[int, int]]:
        """``value(S.prefix(n))`` as ``(numerator, log_den)``, for ``n`` from
        0 to ``|S|`` in order: one walk of the form's kernel.  The
        numerator need not be in lowest terms; a negative value raises as
        ``value`` does, at the same prefix."""
        bits = iter(S)
        return _walk(self, len(S), lambda zero, one: next(bits))


def _repeat(num: int, log_den: int) -> Kernel:
    """The kernel past a freeze: both children repeat the prefix."""
    while True:
        yield num, num, log_den


def _walk(
    m: Martingale, n: int, pick: Callable[[int, int], int]
) -> Iterator[tuple[int, int]]:
    """The value at each of the ``n + 1`` prefixes of one path, in order,
    as ``(numerator, log_den)``: the capital, then one kernel step per bit,
    each prefix extended by the bit ``pick(zero, one)`` of its two
    children's numerators.  A negative value raises
    :class:`~martlab.errors.NegativeValue` at its prefix."""
    num, log_den, bits = m.initial_capital.num, m.initial_capital.log_den, []
    kernel, bit = m.ratio.kernel(), None
    while True:
        if num < 0:
            w = BitString(bits)
            raise NegativeValue(f"negative value {text(num, log_den)} at {w!r}")
        yield num, log_den
        if len(bits) == n:
            return
        zero, one, log_den = kernel.send(bit)
        bit = pick(zero, one)
        bits.append(bit)
        num = one if bit else zero


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


def levels(m: Martingale, depth: int) -> Iterator[tuple[int, list[int], int]]:
    """Level-order walk of the prefix tree: ``(k, numerators, log_den)``.

    Levels ``0..depth`` come in order, each read from the counting form's
    ``row``.  ``numerators[i] / 2**log_den`` is the value at the length-``k``
    string whose bits read ``i``, so the children of entry ``i`` are entries
    ``2i`` and ``2i + 1`` of the next level.  A negative value raises
    :class:`~martlab.errors.NegativeValue` at the first such node.  A depth
    past :data:`LEVEL_CAP` raises :class:`~martlab.errors.CapExceeded` before
    any level is read.
    """
    if depth > LEVEL_CAP:
        raise CapExceeded(f"depth {depth} exceeds enumeration cap {LEVEL_CAP}")
    row = m.ratio.row
    for k in range(depth + 1):
        nums, log_den = row(k)
        if min(nums) < 0:
            i = next(i for i, v in enumerate(nums) if v < 0)
            w = BitString.from_int(i, k)
            raise NegativeValue(f"negative value {text(nums[i], log_den)} at {w!r}")
        yield k, nums, log_den


def _slices(
    m: Martingale, depth: int
) -> Iterator[tuple[int, Sequence[str], list[int], int]]:
    """Every level of :func:`levels` cut into the slices of
    :func:`~martlab.cantor.level_names`: ``(k, names, numerators, log_den)``,
    the numerators of the named strings in index order."""
    for k, nums, log_den in levels(m, depth):
        start = 0
        for names in level_names(k):
            yield k, names, nums[start:start + len(names)], log_den
            start += len(names)


def _texts(nums: list[int], render: Callable[[int], str]) -> list[str]:
    """``render(v)`` for each numerator ``v``, called once per distinct value."""
    rendered = {v: render(v) for v in set(nums)}
    return list(map(rendered.__getitem__, nums))


def verify_averaging(m: Martingale, depth: int) -> AveragingReport:
    """Check ``2*d(w) == d(w0) + d(w1)`` for every ``w`` shorter than depth.

    Supermartingales are held to the relaxed ``>=`` law.  A ``freeze_depth``
    below ``depth`` is checked too: both children of each node at that level
    must repeat its value.  One :func:`levels` walk; each level is compared
    with the one above as integers over a common power of two, and findings
    come out in level, then lexicographic, order.
    """
    freeze = m.freeze_depth
    if freeze is not None and freeze >= depth:
        freeze = None
    violations, unfrozen = [], []
    parents, parent_log_den = [], 0
    for k, nums, log_den in levels(m, depth):
        if k:
            sums = list(map(add, nums[0::2], nums[1::2]))
            # 2 p / 2**pl against s / 2**cl is p << (1 + cl - pl) against s
            lhs, rhs = _common(parents, sums, 1 + log_den - parent_log_den)
            if any(map(lt, lhs, rhs)) if m.supermartingale else lhs != rhs:
                violations.extend(
                    AveragingViolation(
                        BitString.from_int(i, k - 1),
                        Dyadic(parents[i], parent_log_den),
                        Dyadic(sums[i], log_den),
                    )
                    for i, (a, b) in enumerate(zip(lhs, rhs))
                    if (a < b if m.supermartingale else a != b)
                )
            if k - 1 == freeze:
                top, zeros = _common(parents, nums[0::2], log_den - parent_log_den)
                top, ones = _common(parents, nums[1::2], log_den - parent_log_den)
                if top != zeros or top != ones:
                    unfrozen.extend(
                        BitString.from_int(i, k - 1)
                        for i, (a, b0, b1) in enumerate(zip(top, zeros, ones))
                        if a != b0 or a != b1
                    )
        parents, parent_log_den = nums, log_den
    return AveragingReport(
        depth, m.supermartingale, tuple(violations), freeze, tuple(unfrozen)
    )


def _common(a: list[int], b: list[int], shift: int) -> tuple[list[int], list[int]]:
    """``a << shift`` and ``b``, with a negative shift moved onto ``b``, so
    the two rows compare entry by entry."""
    if shift > 0:
        return [x << shift for x in a], b
    if shift < 0:
        return a, [x << -shift for x in b]
    return a, b


@dataclass(frozen=True)
class SuccessReport:
    """Threshold crossings of a martingale along one prefix sequence.

    ``values`` holds the value at each prefix as the walk's integer pair
    ``(numerator, log_den)``, in any terms."""

    horizon: int
    s: Dyadic
    values: tuple[tuple[int, int], ...]
    success_levels: frozenset[int]
    unitary_hit: int | None


def success_scan(m: Martingale, S: BitString, s: Dyadic) -> SuccessReport:
    """Exact comparison ``d(S[:n]) >= 2**((1-s)*n)`` at every level.

    At ``s == 1`` the threshold is constant 1, the finite surrogate of
    unbounded success at this horizon.
    """
    pairs = tuple(m.path(S))
    # the threshold exponent at level n is (1 - s) * n = p * n / 2**k
    p, k = (1 << s.log_den) - s.num, s.log_den
    levels = frozenset(
        n for n, (num, log_den) in enumerate(pairs) if cmp_pow2(num, log_den, p * n, k) >= 0
    )
    unitary = next((n for n, (num, log_den) in enumerate(pairs) if num >> log_den), None)
    return SuccessReport(len(S), s, pairs, levels, unitary)


def diagonalize(m: Martingale, N: int) -> BitString:
    """The length-``N`` prefix that the martingale cannot grow on.

    Each next bit is 1 exactly when the 1-child value is strictly smaller;
    ties go to 0.  The value trace along the result is non-increasing.  The
    form's kernel is walked once, each bit picked by comparing the two
    children's numerators; a negative value raises as in
    :meth:`Martingale.path`.
    """
    bits = []

    def pick(zero: int, one: int) -> int:
        bits.append(1 if one < zero else 0)
        return bits[-1]

    for _ in _walk(m, N, pick):
        pass
    return BitString(bits)


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


def empirical_dimension(m: Martingale, S: BitString) -> DimensionReport:
    """Finite-horizon dimension witnesses along ``S``.

    For ``1 <= n <= |S|`` the statistic ``1 - log2(d(S[:n]))/n`` is floored
    onto the ``2**-GRID_BITS`` grid with exact comparisons; the min over
    levels witnesses dimension, the max strong dimension, both relative to
    this horizon only.
    """
    if len(S) < 1:
        raise ValueError("needs a prefix of length at least 1")
    levels: list[Dyadic | None] = []
    path = m.path(S)
    next(path)  # the root is no level
    for n, (num, log_den) in enumerate(path, 1):
        levels.append(
            grid_floor_one_minus_log2_ratio(num, log_den, n, GRID_BITS) if num else None
        )
    finite = [v for v in levels if v is not None]
    best = min(finite) if finite else None
    worst = max(finite) if len(finite) == len(levels) else None
    return DimensionReport(GRID_BITS, tuple(levels), best, worst)


def tree_csv(m: Martingale, depth: int, write: Callable[[str], object]) -> None:
    """Level-order ``node,value`` dump with values rendered ``p/2**k``,
    written a slice at a time."""
    write("node,value\n")
    for k, names, nums, log_den in _slices(m, depth):
        tails = _texts(nums, lambda v: f",{text(v, log_den)}\n")
        write("".join(map(add, names if k else ("λ",), tails)))


@cache
def _preorder(b: int) -> list[int]:
    """The nodes of a ``b``-level subtree in pre-order, which is their
    names' sorted order, as positions in its rows laid end to end in level
    order: the ``r``-bit string reading ``q`` is at ``2**r - 1 + q``."""
    names = []
    for r in range(b + 1):
        (level,) = level_names(r)
        names += level
    return sorted(range(len(names)), key=names.__getitem__)


def tree_json(m: Martingale, depth: int, write: Callable[[str], object]) -> None:
    """``{node: value}`` as ``json.dumps(..., indent=2, sort_keys=True)``
    writes it; the root's key is ``""``.  Nothing needs escaping.

    Sorted keys are the tree's pre-order: a node, its 0-subtree, then its
    1-subtree.  Every level's row is held, and the tree is written one
    subtree of ``b = min(depth, SLICE_BITS)`` levels at a time, rooted at
    level ``t = depth - b``.  A subtree's lines are rendered from one slice
    of each of its levels' rows, in level order, and put in pre-order by
    :func:`_preorder`.  Before subtree ``j`` come its ancestors above level
    ``t`` that no earlier subtree shares.
    """
    rows = [(nums, log_den) for _, nums, log_den in levels(m, depth)]
    b = min(depth, SLICE_BITS)
    t = depth - b
    order = _preorder(b)
    sep = '{\n  "'
    for j in range(1 << t):
        # the ancestors at levels t - z .. t - 1, where j ends in z zero bits
        z = (j & -j).bit_length() - 1 if j else t
        lines = [f'{BitString.from_int(j >> (t - k), k)}": '
                 f'"{text(rows[k][0][j >> (t - k)], rows[k][1])}"' for k in range(t - z, t)]
        prefix, subtree = str(BitString.from_int(j, t)), []
        for r in range(b + 1):
            nums, log_den = rows[t + r]
            (names,) = level_names(r)
            tails = _texts(nums[j << r:(j + 1) << r], lambda v: f'": "{text(v, log_den)}"')
            subtree += map(add, map(prefix.__add__, names) if t else names, tails)
        lines += map(subtree.__getitem__, order)
        write(sep + ',\n  "'.join(lines))
        sep = ',\n  "'
    write("\n}\n")


def tree_dot(m: Martingale, depth: int, write: Callable[[str], object]) -> None:
    """DOT rendering, root on top, 0-child left, value-1 leaves highlighted,
    written a slice at a time."""
    write('digraph martingale {\n  ordering=out;\n'
          '  node [shape=box, fontname="monospace"];\n')
    for k, names, nums, log_den in _slices(m, depth):
        one = 1 << log_den

        def tail(v: int) -> str:
            lit = ", style=filled, fillcolor=palegreen" if k == depth and v >= one else ""
            return f'" [label="{text(v, log_den)}"{lit}];\n'

        shown, tails = names if k else ("λ",), _texts(nums, tail)
        # a name is spelled five times on an inner node's lines: one f-string
        # per node builds them faster than a chain of concatenations
        if k < depth:
            lines = [f'  "{s}{t}  "{s}" -> "{w}0";\n  "{s}" -> "{w}1";\n'
                     for s, w, t in zip(shown, names, tails)]
        else:
            lines = [f'  "{s}{t}' for s, t in zip(shown, tails)]
        write("".join(lines))
    write("}\n")
