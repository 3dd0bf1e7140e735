"""The five betting constructions.

Each factory returns a :class:`~martlab.martingale.Martingale` in counting
form: an integer numerator, from witness counts or the construction's closed
form, over a power of two.  The leveled constructions (cover, conditional
expectation, subset) freeze at their level; the acceptance and
superset-tracking constructions grow without bound.  Leveled numerators come
from a binary search over sorted members or from one leaf row of the
``2**n`` leaves, summed pairwise up to the root.  A leaf row is filled from
sparse row positions, ``x.to_int()`` of each length-``n`` string ``x`` that
counts, so building one reads no string that counts nothing.

Each construction also supplies its counting form a level at a time, as the
``row`` kernel that :func:`~martlab.martingale.levels` reads: per-level
histograms of an explicit cover's members, the pairwise-summed leaf rows,
a closed-form count per integer index, and for the growing constructions
each level's parent row times that level's two betting factors.  It
supplies the form along one path too, as the generator kernel that every
read along a path walks: a growing construction multiplies its running
product by each position's two factors and adds the position's
log-denominator to a running sum, and a leveled one counts both children
of each prefix up to its level.  A leveled form alone keeps a
count per string, ``numerator``, for an approximation that reads it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import add
from typing import Callable, Iterable, Mapping

from .cantor import EMPTY, BitString, LanguageView, all_strings, char_prefix, string_index
from .errors import (
    CapExceeded,
    NegativeValue,
    RowSumViolation,
    UniquenessViolation,
)
from .martingale import LEVEL_CAP, Kernel, Martingale, _repeat
from .oracle import WitnessRelation, level_counts

__all__ = [
    "Cover",
    "AcceptanceSpec",
    "cover_martingale",
    "condexp_martingale",
    "subset_martingale",
    "acceptance_martingale",
    "biimmunity_martingale",
]


@dataclass(frozen=True)
class Cover:
    """A set of length-``level`` strings the cover martingale bets on.

    A cover kind supplies one function: ``count(w)``, the exact number of
    members extending a prefix ``w`` with ``|w| <= level``.  Membership is
    read off it, once, here: :meth:`contains` is the count at the level.
    :meth:`from_members` counts by binary search, in ``O(log m)`` per
    prefix; :meth:`from_predicate` reads each leaf once and sums pairwise;
    covers with product structure count in closed form, past the
    enumeration cap.  A kind may also supply ``row(k)``, the count of every
    length-``k`` prefix in index order, which :meth:`level_row` reads.  A
    cover records no counting class: the relation, subset and mcsp kinds
    name theirs in their docstrings.
    """

    level: int
    count: Callable[[BitString], int]
    name: str = "cover"
    row: Callable[[int], list[int]] | None = None

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"cover level {self.level} is negative")

    def contains(self, x: BitString) -> bool:
        """Membership: False on every string whose length is not the level."""
        return len(x) == self.level and self.count(x) > 0

    def level_row(self, k: int) -> list[int]:
        """``count`` of every length-``k`` prefix, ``k <= level``, in index
        order: the kind's ``row`` when it has one, else ``count`` per prefix."""
        if self.row is not None:
            return self.row(k)
        return [self.count(w) for w in all_strings(k)]

    @classmethod
    def from_members(cls, members: Iterable[BitString | str], level: int) -> "Cover":
        """The cover of ``members``, each a :class:`BitString` or its bits as
        text, read as an integer: every text is checked before any length,
        and each check names the first member in input order that fails it."""
        members = list(members)
        texts = [m for m in members if isinstance(m, str)]
        if "".join(texts).strip("01"):
            bad = next(m for m in texts if m.strip("01"))
            raise ValueError(f"not a bit string: {bad!r}")
        for m in members:
            if len(m) != level:
                raise ValueError(f"member {m} does not have length {level}")
        values = sorted({
            int(m or "0", 2) if isinstance(m, str) else m.to_int() for m in members
        })

        def count(w: BitString) -> int:
            # the extensions of w read as the integers [v << free, (v+1) << free)
            free, v = level - len(w), w.to_int()
            return bisect_left(values, v + 1 << free) - bisect_left(values, v << free)

        def row(k: int) -> list[int]:
            # one histogram: member v extends the length-k prefix v >> (level - k)
            shift, counts = level - k, [0] * (1 << k)
            for v in values:
                counts[v >> shift] += 1
            return counts

        return cls(level, count, "explicit-cover", row)

    @classmethod
    def from_predicate(
        cls,
        predicate: Callable[[BitString], bool],
        level: int,
        name: str = "predicate-cover",
    ) -> "Cover":
        return cls._from_leaves(
            lambda: [1 if predicate(x) else 0 for x in all_strings(level)],
            level, name,
        )

    @classmethod
    def from_relation(
        cls, rel: WitnessRelation, level: int, decide: str = "exists"
    ) -> "Cover":
        """Cover decided by a witness relation in one of two modes.

        ``exists`` makes every input with an accepting witness a member, so
        the count at a prefix ``w`` is a SpanP function: the number of
        distinct extensions ``y`` emitted by the accepting pairs ``(y, z)``,
        ``z`` a witness on ``wy``.  ``unique`` makes the count at ``w`` a #P
        function, the number of those accepting pairs, by refusing an input
        with more than one accepting witness:
        :class:`~martlab.errors.UniquenessViolation`.

        Every leaf's accepting count comes from
        :func:`~martlab.oracle.level_counts`, one sweep of the relation's
        witnesses: its well-formed ones where it names them, else the whole
        cube.  The skipped witnesses accept nothing, so each count is the
        cube's.
        The first query, ``count`` or ``contains``, counts the whole
        level and decides every leaf in index order, so an error names the
        first bad leaf, whichever leaf was asked about.
        """
        if decide not in ("exists", "unique"):
            raise ValueError(f"decide must be exists/unique, got {decide!r}")

        def leaves() -> list[int]:
            counts = level_counts(rel, level)
            if decide == "unique":
                for i, accepts in enumerate(counts):
                    if accepts > 1:
                        x = BitString.from_int(i, level)
                        raise UniquenessViolation(
                            f"{rel.name}: {accepts} witnesses on {x!r}"
                        )
            return [min(accepts, 1) for accepts in counts]

        return cls._from_leaves(leaves, level, rel.name)

    @classmethod
    def _from_leaves(
        cls, leaves: Callable[[], list[int]], level: int, name: str
    ) -> "Cover":
        """The cover whose leaf row, 0 or 1 per length-``level`` string in
        index order, ``leaves()`` gives at the first query."""
        if level > LEVEL_CAP:
            raise CapExceeded(
                f"cover level {level} exceeds enumeration cap {LEVEL_CAP}"
            )
        row = _subtree_sums(leaves, level)
        return cls(level, _indexed(row), name, row)


def _subtree_sums(
    leaves: Callable[[], list[int]], n: int
) -> Callable[[int], list[int]]:
    """Row ``k <= n``: the sum of the leaf row ``leaves()``, one entry per
    length-``n`` string in index order, over the extensions of every
    length-``k`` prefix, in index order.

    The first query reads ``leaves()`` once; ``rows[j][v]`` sums the leaves
    below the length-``n - j`` prefix ``v``.
    """
    rows: list[list[int]] = []

    def row(k: int) -> list[int]:
        if not rows:
            rows.append(leaves())
            while len(last := rows[-1]) > 1:
                rows.append(list(map(add, last[::2], last[1::2])))
        return rows[n - k]

    return row


def _indexed(row: Callable[[int], list[int]]) -> Callable[[BitString], int]:
    """A row kernel read at one prefix: ``row(|w|)[w]``."""
    return lambda w: row(len(w))[w.to_int()]


def _leveled(
    count: Callable[[BitString], int],
    row: Callable[[int], list[int]],
    n: int,
    kind: str,
) -> Martingale:
    """``count(w[:n]) / 2**max(0, n - |w|)``, frozen at level ``n``.

    ``row(k)`` is ``count`` on every length-``k`` prefix, ``k <= n``; past
    level ``n`` each entry repeats once per extension, ``2**(k - n)`` times.
    The kernel counts both children of each prefix up to the level, and
    then repeats the count there.  ``numerator`` is one count per string.
    """

    def level_row(k: int) -> tuple[list[int], int]:
        if k <= n:
            return row(k), n - k
        top, copies = row(n), 1 << (k - n)
        nums = [0] * (len(top) * copies)
        for j in range(copies):
            nums[j::copies] = top
        return nums, 0

    def kernel() -> Kernel:
        w = EMPTY
        for free in reversed(range(n)):
            w0, w1 = w.append(0), w.append(1)
            w = w1 if (yield count(w0), count(w1), free) else w0
        yield from _repeat(count(w), 0)

    return Martingale.from_ratio(
        level_row,
        kernel,
        freeze_depth=n,
        meta={"construction": kind},
        numerator=lambda w: count(w.prefix(n)),
    )


def cover_martingale(cover: Cover) -> Martingale:
    """Bet on the chance a uniform length-``level`` extension hits the cover.

    The value at ``w`` is (members extending ``w``) / 2**(level - |w|); at
    the level it is the membership indicator, and longer strings keep their
    length-``level`` prefix value.
    """
    n = cover.level
    return _leveled(cover.count, cover.level_row, n, "cover")


def condexp_martingale(values: Mapping[int, int], n: int) -> Martingale:
    """Bet the conditional expectation of a counting function.

    ``values`` maps the row position ``x.to_int()`` of each length-``n``
    string ``x`` to ``f(x)``; an absent position counts 0.  The value at
    ``w`` is the average of ``f`` over uniform length-``n`` extensions of
    ``w``; leaves take ``f`` itself.  Negative ``f`` values are rejected
    (gap-valued functions do not make betting values), naming the least
    negative position.  The leaf row is filled in one pass over ``values``.
    """
    if n < 0:
        raise ValueError(f"level {n} is negative")
    if n > LEVEL_CAP:
        raise CapExceeded(f"level {n} exceeds enumeration cap {LEVEL_CAP}")
    if values and not 0 <= min(values) <= max(values) < 1 << n:
        bad = next(i for i in values if not 0 <= i < 1 << n)
        raise ValueError(f"position {bad} is not a {n}-bit value")
    negative = [i for i, v in values.items() if v < 0]
    if negative:
        i = min(negative)
        raise NegativeValue(f"f({BitString.from_int(i, n)!r}) = {values[i]} is negative")

    def leaves() -> list[int]:
        row = [0] * (1 << n)
        for i, v in values.items():
            row[i] = v
        return row

    row = _subtree_sums(leaves, n)
    return _leveled(_indexed(row), row, n, "condexp")


def subset_cover(B: LanguageView, n: int) -> Cover:
    """The cover of length-``n`` strings whose languages sit inside ``B``.

    A string qualifies when every 1 bit marks a member of ``B``, so the
    count at ``w`` is a SpanP function: the distinct extensions ``y`` with
    ``wy`` inside ``B``.  Bit
    ``n - 1 - i`` of ``outside`` is set when the ``i``-th string is not in
    ``B``, the complement of ``B``'s characteristic prefix, so a prefix is
    consistent when it shares no 1 bit with the top of ``outside``, and its
    member count is ``2**(free member positions)``; no enumeration is
    needed.
    """
    first = max(B.horizon, 0)
    if n > first:  # the first string past the horizon is named as a query
        B.contains_index(first)
    prefix = char_prefix(B, n)
    outside = prefix.to_int() ^ ((1 << len(prefix)) - 1)

    def count(v: int, k: int) -> int:
        # the length-k prefix whose bits read v
        free = n - k
        if v & (outside >> free):
            return 0
        return 1 << (free - (outside & ((1 << free) - 1)).bit_count())

    return Cover(
        n,
        lambda w: count(w.to_int(), len(w)),
        f"subset({B.name or 'B'})",
        lambda k: [count(v, k) for v in range(1 << k)],
    )


def subset_martingale(B: LanguageView, n: int) -> Martingale:
    """Succeed on prefixes of subsets of ``B``.

    Root value ``2**(census(B, n) - n)``; value 1 exactly on the level-``n``
    strings consistent with ``B``.
    """
    m = cover_martingale(subset_cover(B, n))
    return replace(m, meta={"construction": "subset"})


@dataclass(frozen=True)
class AcceptanceSpec:
    """Per-string betting odds derived from acceptance-path counts.

    ``counts(i) = (f(i, 0), f(i, 1))``, where ``f(i, b)`` is the number of
    computation paths answering ``b`` on the ``i``-th string ``s_i`` out of
    ``2**q(|s_i|)`` total, and ``|s_i|`` is ``(i + 1).bit_length() - 1``;
    the row-sum identity is re-checked on every query.
    """

    counts: Callable[[int], tuple[int, int]]
    q: Callable[[int], int]
    name: str = "acceptance"

    def row(self, i: int) -> tuple[int, int, int]:
        """``(f(i, 0), f(i, 1), q(|s_i|))``, the row-sum identity checked."""
        f0, f1 = self.counts(i)
        q = self.q((i + 1).bit_length() - 1)
        if f0 + f1 != 1 << q:
            x = string_index(i)
            raise RowSumViolation(
                f"{self.name}: f({x!r},0)+f({x!r},1) = {f0}+{f1} != 2**{q}"
            )
        return f0, f1, q

    @classmethod
    def from_gap(
        cls, g: Callable[[int], int], t: Callable[[int], int]
    ) -> "AcceptanceSpec":
        """Gap-function form: ``f(i,1) = g(i)``, ``f(i,0) = 2**t(|s_i|) - g(i)``."""

        def counts(i: int) -> tuple[int, int]:
            one = g(i)
            return (1 << t((i + 1).bit_length() - 1)) - one, one

        return cls(counts=counts, q=t, name="gap-acceptance")

    @classmethod
    def biased(
        cls, target: LanguageView, correct: int, q: int
    ) -> "AcceptanceSpec":
        """Odds ``correct / 2**q`` of answering the target's bit on every string."""
        if not 0 <= correct <= (1 << q):
            raise ValueError(f"correct count {correct} not in [0, 2**{q}]")
        wrong = (1 << q) - correct

        def counts(i: int) -> tuple[int, int]:
            return (wrong, correct) if target.contains_index(i) else (correct, wrong)

        return cls(counts=counts, q=lambda n: q, name=f"biased({correct}/2**{q})")


def _products(factors: Callable[[int], tuple[int, int, int]], **kwargs) -> Martingale:
    """``f(w) / 2**(q_0 + ... + q_{|w|-1})``, never frozen, where
    ``factors(i) = (a0, a1, q_i)`` and
    ``f(w) = factors(0)[w[0]] * ... * factors(|w| - 1)[w[-1]]``.

    Row ``k`` holds ``f`` on every length-``k`` string in index order; each
    level is the one above times that index's two factors, stepped on from
    the last row asked for, the only row kept.  The kernel keeps only its
    running product and log-denominator; each adds ``q_i`` as it steps.
    """
    last = [0, [1], 0]  # the depth, row and log-denominator last asked for

    def row(n: int) -> tuple[list[int], int]:
        k, nums, log_den = last if n >= last[0] else (0, [1], 0)
        for i in range(k, n):
            a0, a1, q = factors(i)
            nums = [x for v in nums for x in (v * a0, v * a1)]
            log_den += q
            last[:] = i + 1, nums, log_den
        return nums, log_den

    def kernel() -> Kernel:
        v, log_den, i = 1, 0, 0
        while True:
            a0, a1, q = factors(i)
            i += 1
            log_den += q
            zero, one = v * a0, v * a1
            v = one if (yield zero, one, log_den) else zero

    return Martingale.from_ratio(row, kernel, **kwargs)


def acceptance_martingale(spec: AcceptanceSpec) -> Martingale:
    """Double-or-scale capital by the declared odds along the enumeration.

    The value at ``w`` is ``2**|w|`` times the product of chosen-row
    probabilities ``f(s_i, w[i]) / 2**q(|s_i|)``.  Never freezes.  The
    numerator is #P: the tuples of a coin and a path answering ``w[i]``, one
    per string ``s_i``, ``i < |w|``.  From a gap spec it is GapP: the product
    of ``2**t ± gap(i)`` as ``w[i]`` is 1 or 0, ``gap(i) = 2 g(i) - 2**t``.
    """
    @lru_cache(maxsize=None)
    def factors(i: int) -> tuple[int, int, int]:
        f0, f1, q = spec.row(i)
        if f0 < 0 or f1 < 0:
            raise NegativeValue(
                f"{spec.name}: negative path count at index {i}"
            )
        return 2 * f0, 2 * f1, q

    return _products(factors, meta={"construction": "acceptance"})


def biimmunity_martingale(A: LanguageView) -> Martingale:
    """Succeed on every language containing ``A``.

    Capital doubles on the 1 branch and dies on the 0 branch wherever the
    enumerated string is in ``A``; elsewhere it stands pat.  The value at
    ``w`` is ``2**ones(A's prefix)`` as long as ``w`` dominates that prefix,
    else 0.  The numerator is #P: the tuples of one-bit paths answering
    ``w``, where both paths on a member of ``A`` answer 1 and elsewhere
    path ``p`` answers ``p``.
    """
    return _products(
        lambda i: (0, 2, 0) if A.contains_index(i) else (1, 1, 0),
        meta={"construction": "biimmunity"},
    )
