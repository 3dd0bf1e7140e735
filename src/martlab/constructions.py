"""The five betting constructions.

Each factory returns a :class:`~martlab.martingale.Martingale` whose exact
evaluator enumerates witnesses or applies the construction's closed form.
The leveled constructions (cover, conditional expectation, subset) freeze at
their level; the acceptance and superset-tracking constructions grow without
bound.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable

from .cantor import BitString, LanguageView, census
from .dyadic import Dyadic, ONE
from .errors import (
    CapExceeded,
    GapViolation,
    NegativeValue,
    RowSumViolation,
)
from .martingale import Martingale, RatioForm
from .oracle import CountMode, WitnessRelation, count, decide_unique

__all__ = [
    "Cover",
    "AcceptanceSpec",
    "cover_martingale",
    "condexp_martingale",
    "subset_martingale",
    "acceptance_martingale",
    "biimmunity_martingale",
    "LEVEL_CAP",
]

# generic extension enumeration is 2**(level - |w|) membership queries
LEVEL_CAP = 22


@dataclass(frozen=True)
class Cover:
    """A set of length-``level`` strings the cover martingale bets on.

    ``contains`` decides membership of length-``level`` strings.
    ``ext_count``, when given, must return the exact number of members
    extending a prefix; covers with product structure use it to dodge the
    enumeration cap.
    """

    level: int
    contains: Callable[[BitString], bool]
    ext_count: Callable[[BitString], int] | None = None
    class_tag: str = "unclassified"
    name: str = "cover"

    @classmethod
    def from_members(
        cls,
        members: Iterable[BitString | str],
        level: int,
        class_tag: str = "explicit",
        name: str = "explicit-cover",
    ) -> "Cover":
        member_set = frozenset(
            m if isinstance(m, BitString) else BitString(m) for m in members
        )
        for m in member_set:
            if len(m) != level:
                raise ValueError(f"member {m} does not have length {level}")

        def ext_count(w: BitString) -> int:
            return sum(1 for m in member_set if w.is_prefix_of(m))

        return cls(level, lambda x: x in member_set, ext_count, class_tag, name)

    @classmethod
    def from_predicate(
        cls,
        predicate: Callable[[BitString], bool],
        level: int,
        class_tag: str = "unclassified",
        name: str = "predicate-cover",
    ) -> "Cover":
        return cls(level, predicate, None, class_tag, name)

    @classmethod
    def from_relation(
        cls,
        rel: WitnessRelation,
        level: int,
        unique_witnesses: bool = False,
        gap_language: bool = False,
        cap: int = LEVEL_CAP,
    ) -> "Cover":
        """Cover decided by a witness relation.

        Unique-witness membership (an accepting-path count stand-in) is
        tagged ``#P``; plain nondeterministic membership is tagged ``SpanP``;
        a gap relation promised to have gap 0 or 1 is tagged ``GapP`` and any
        other gap raises :class:`~martlab.errors.GapViolation`.
        """
        if gap_language:
            def contains(x: BitString) -> bool:
                gap = count(rel, CountMode.ACCEPT_MINUS_REJECT, x, cap)
                if gap not in (0, 1):
                    raise GapViolation(
                        f"{rel.name}: gap {gap} on {x!r} is not 0 or 1"
                    )
                return gap == 1

            tag = "GapP"
        elif unique_witnesses:
            def contains(x: BitString) -> bool:
                return decide_unique(rel, x, cap)

            tag = "#P"
        else:
            def contains(x: BitString) -> bool:
                return count(rel, CountMode.WITNESS_COUNT, x, cap) > 0

            tag = "SpanP"
        return cls(level, contains, None, tag, rel.name)


def _extensions(w: BitString, level: int) -> Iterable[BitString]:
    for v in range(1 << (level - len(w))):
        yield w + BitString.from_int(v, level - len(w))


def cover_martingale(cover: Cover, cap: int = LEVEL_CAP) -> Martingale:
    """Bet on the chance a uniform length-``level`` extension hits the cover.

    The value at ``w`` is (members extending ``w``) / 2**(level - |w|); at
    the level it is the membership indicator, and longer strings keep their
    length-``level`` prefix value.
    """
    n = cover.level
    if cover.ext_count is not None:
        ext_count = cover.ext_count
    else:
        if n > cap:
            raise CapExceeded(
                f"cover level {n} exceeds enumeration cap {cap}"
            )
        contains = lru_cache(maxsize=None)(cover.contains)

        def ext_count(w: BitString) -> int:
            return sum(1 for x in _extensions(w, n) if contains(x))

    @lru_cache(maxsize=None)
    def numerator(w: BitString) -> int:
        return ext_count(w.prefix(n))

    ratio = RatioForm(numerator, lambda w: max(0, n - len(w)))

    def evaluate(w: BitString) -> Dyadic:
        return Dyadic(numerator(w), max(0, n - len(w)))

    return Martingale.from_exact(
        evaluate,
        freeze_depth=n,
        class_tag=cover.class_tag,
        ratio=ratio,
        meta={"construction": "cover", "level": n, "cover": cover.name},
    )


def condexp_martingale(
    f: Callable[[BitString], int],
    n: int,
    class_tag: str = "#P",
    cap: int = LEVEL_CAP,
) -> Martingale:
    """Bet the conditional expectation of a counting function.

    The value at ``w`` is the average of ``f`` over uniform length-``n``
    extensions of ``w``; leaves take ``f`` itself.  Negative ``f`` values are
    rejected (gap-valued functions do not make betting values).
    """
    if n > cap:
        raise CapExceeded(f"level {n} exceeds enumeration cap {cap}")

    @lru_cache(maxsize=None)
    def f_checked(x: BitString) -> int:
        v = f(x)
        if v < 0:
            raise NegativeValue(f"f({x!r}) = {v} is negative")
        return v

    @lru_cache(maxsize=None)
    def numerator(w: BitString) -> int:
        w = w.prefix(n)
        return sum(f_checked(x) for x in _extensions(w, n))

    ratio = RatioForm(numerator, lambda w: max(0, n - len(w)))

    def evaluate(w: BitString) -> Dyadic:
        return Dyadic(numerator(w), max(0, n - len(w)))

    return Martingale.from_exact(
        evaluate,
        freeze_depth=n,
        class_tag=class_tag,
        ratio=ratio,
        meta={"construction": "condexp", "level": n},
    )


def subset_cover(B: LanguageView, n: int, class_tag: str = "SpanP") -> Cover:
    """The cover of length-``n`` strings whose languages sit inside ``B``.

    A string qualifies when every 1 bit marks a member of ``B``.  The member
    count over any prefix has the closed form ``2**(free member positions)``,
    so no enumeration is needed.
    """
    member_bits = [B.contains_index(i) for i in range(n)]
    ones_before = [0]
    for bit in member_bits:
        ones_before.append(ones_before[-1] + (1 if bit else 0))

    def consistent(w: BitString) -> bool:
        return all(
            member_bits[i] for i, b in enumerate(w) if b
        )

    def ext_count(w: BitString) -> int:
        if not consistent(w):
            return 0
        return 1 << (ones_before[n] - ones_before[len(w)])

    return Cover(
        level=n,
        contains=consistent,
        ext_count=ext_count,
        class_tag=class_tag,
        name=f"subset({B.name or 'B'})",
    )


def subset_martingale(
    B: LanguageView, n: int, class_tag: str = "SpanP"
) -> Martingale:
    """Succeed on prefixes of subsets of ``B``.

    Root value ``2**(census(B, n) - n)``; value 1 exactly on the level-``n``
    strings consistent with ``B``.
    """
    m = cover_martingale(subset_cover(B, n, class_tag))
    meta = dict(m.meta)
    meta["construction"] = "subset"
    meta["census"] = census(B, n)
    return replace(m, class_tag=class_tag, meta=meta)


@dataclass(frozen=True)
class AcceptanceSpec:
    """Per-string betting odds derived from acceptance-path counts.

    ``f(x, b)`` is the number of computation paths answering ``b`` on input
    ``x`` out of ``2**q(|x|)`` total; the row-sum identity is re-checked on
    every query.
    """

    f: Callable[[BitString, int], int]
    q: Callable[[int], int]
    class_tag: str = "#P"
    name: str = "acceptance"

    def row(self, x: BitString) -> tuple[int, int]:
        f0, f1 = self.f(x, 0), self.f(x, 1)
        total = 1 << self.q(len(x))
        if f0 + f1 != total:
            raise RowSumViolation(
                f"{self.name}: f({x!r},0)+f({x!r},1) = {f0}+{f1} != 2**{self.q(len(x))}"
            )
        return f0, f1

    @classmethod
    def from_gap(
        cls,
        g: Callable[[BitString], int],
        t: Callable[[int], int],
        name: str = "gap-acceptance",
    ) -> "AcceptanceSpec":
        """Gap-function form: ``f(x,1) = g(x)`` and ``f(x,0) = 2**t(|x|) - g(x)``."""
        return cls(
            f=lambda x, b: g(x) if b else (1 << t(len(x))) - g(x),
            q=t,
            class_tag="GapP",
            name=name,
        )

    @classmethod
    def biased(
        cls, target: LanguageView, correct: int, q: int
    ) -> "AcceptanceSpec":
        """Odds ``correct / 2**q`` of answering the target's bit on every string."""
        if not 0 <= correct <= (1 << q):
            raise ValueError(f"correct count {correct} not in [0, 2**{q}]")

        def f(x: BitString, b: int) -> int:
            member = target.contains(x)
            return correct if b == int(member) else (1 << q) - correct

        return cls(f=f, q=lambda n: q, name=f"biased({correct}/{1 << q})")


def acceptance_martingale(spec: AcceptanceSpec) -> Martingale:
    """Double-or-scale capital by the declared odds along the enumeration.

    The value at ``w`` is ``2**|w|`` times the product of chosen-row
    probabilities ``f(s_i, w[i]) / 2**q(|s_i|)``.  Never freezes.
    """
    from .cantor import string_index

    @lru_cache(maxsize=None)
    def row(i: int) -> tuple[int, int]:
        f0, f1 = spec.row(string_index(i))
        if f0 < 0 or f1 < 0:
            raise NegativeValue(
                f"{spec.name}: negative path count at index {i}"
            )
        return f0, f1

    @lru_cache(maxsize=None)
    def numerator(w: BitString) -> int:
        if len(w) == 0:
            return 1
        f0, f1 = row(len(w) - 1)
        return 2 * numerator(w.prefix(len(w) - 1)) * (f1 if w[len(w) - 1] else f0)

    @lru_cache(maxsize=None)
    def log_denominator(w: BitString) -> int:
        return sum(spec.q(len(string_index(i))) for i in range(len(w)))

    ratio = RatioForm(numerator, log_denominator)

    def evaluate(w: BitString) -> Dyadic:
        return Dyadic(numerator(w), log_denominator(w))

    return Martingale.from_exact(
        evaluate,
        freeze_depth=None,
        class_tag=spec.class_tag,
        ratio=ratio,
        meta={"construction": "acceptance", "spec": spec.name},
    )


def biimmunity_martingale(
    A: LanguageView, class_tag: str = "#P"
) -> Martingale:
    """Succeed on every language containing ``A``.

    Capital doubles on the 1 branch and dies on the 0 branch wherever the
    enumerated string is in ``A``; elsewhere it stands pat.  The value at
    ``w`` is ``2**ones(A's prefix)`` as long as ``w`` dominates that prefix,
    else 0.
    """

    @lru_cache(maxsize=None)
    def evaluate(w: BitString) -> Dyadic:
        if len(w) == 0:
            return ONE
        parent = w.prefix(len(w) - 1)
        v = evaluate(parent)
        member = A.contains_index(len(w) - 1)
        if w[len(w) - 1]:
            return v.scale2(1) if member else v
        return Dyadic(0) if member else v

    ratio = RatioForm(lambda w: evaluate(w).num, lambda w: 0)

    return Martingale.from_exact(
        evaluate,
        freeze_depth=None,
        class_tag=class_tag,
        ratio=ratio,
        meta={"construction": "biimmunity", "language": A.name},
    )
