"""Entropy rates of per-level language families and covering certificates.

A family is one cover per string length.  The entropy-rate table records the
exact member count at each level and the ratio ``log2(count) / n`` floored
onto the ``2**-10`` grid; the max over levels is the finite-horizon surrogate
of the rate.

A certificate audits the three covering-measure conditions at desk scale:
membership of supplied witness prefixes (the infinite "covers the class
infinitely often" claim is honestly reduced to a finite witness set and
labeled as claimed), the per-level count gap ``count < 2**(n - f(n))`` as an
integer comparison, and the declared modulus for the capital series
``sum 2**-f(n)`` on audited tails.  A valid certificate converts directly
into a martingale family whose aggregate covers every certified element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .cantor import EMPTY, BitString
from .combinators import ConvergenceModulus, MartingaleFamily
from .constructions import Cover, cover_martingale
from .dyadic import GRID_BITS, Dyadic, grid_floor_log2_ratio

__all__ = [
    "LevelFamily",
    "EntropyRateReport",
    "EntropyCertificate",
    "level_count",
    "entropy_rate",
    "mc_certificate",
    "certificate_family",
]


@dataclass(frozen=True)
class LevelFamily:
    """Per-level covers; ``cover_at(n)`` may be None for an empty level."""

    cover_at: Callable[[int], Cover | None]
    name: str = "family"

    @classmethod
    def from_predicate(
        cls, predicate: Callable[[BitString], bool], name: str
    ) -> "LevelFamily":
        def cover_at(n: int) -> Cover:
            return Cover.from_predicate(predicate, n, name=f"{name}@{n}")

        return cls(cover_at, name)


def level_count(fam: LevelFamily, n: int) -> int:
    """Exact ``|members at level n|``, as the cover counts itself."""
    return _size(fam.cover_at(n))


def _size(cover: Cover | None) -> int:
    return 0 if cover is None else cover.count(EMPTY)


@dataclass(frozen=True)
class EntropyRateReport:
    horizon: int
    grid_bits: int
    counts: tuple  # per level 1..H
    ratios: tuple  # grid-floored Dyadic per level; None where count is 0
    max_ratio: Dyadic | None


def entropy_rate(fam: LevelFamily, horizon: int) -> EntropyRateReport:
    """Exact counts and grid-floored ``log2(count)/n`` up to the horizon."""
    counts = []
    ratios: list[Dyadic | None] = []
    for n in range(1, horizon + 1):
        c = level_count(fam, n)
        counts.append(c)
        ratios.append(None if c == 0 else grid_floor_log2_ratio(c, n, GRID_BITS))
    finite = [r for r in ratios if r is not None]
    return EntropyRateReport(
        horizon,
        GRID_BITS,
        tuple(counts),
        tuple(ratios),
        max(finite) if finite else None,
    )


@dataclass(frozen=True)
class LevelVerdict:
    level: int
    count: int
    gap: int
    count_below_gap: bool


@dataclass(frozen=True)
class WitnessVerdict:
    witness: BitString
    covered_at: int | None


@dataclass(frozen=True)
class ModulusVerdict:
    i: int
    start: int
    tail: Dyadic
    ok: bool


@dataclass(frozen=True)
class EntropyCertificate:
    """Audited desk-scale evidence for a covering-measure claim.

    The class-coverage condition is recorded as *claimed for* the supplied
    witnesses only; no finite audit can check an infinitely-often claim.
    """

    family_name: str
    horizon: int
    levels: tuple[LevelVerdict, ...]
    witnesses: tuple[WitnessVerdict, ...]
    modulus_audits: tuple[ModulusVerdict, ...]
    valid: bool
    failing_level: int | None

    def to_text(self) -> str:
        lines = [
            f"certificate for {self.family_name} up to level {self.horizon}",
            f"status: {'VALID' if self.valid else 'INVALID'}"
            + (
                f" (first failure at level {self.failing_level})"
                if self.failing_level is not None
                else ""
            ),
            "claimed-for witnesses:",
        ]
        for wv in self.witnesses:
            where = (
                f"covered at level {wv.covered_at}"
                if wv.covered_at is not None
                else "NOT COVERED within horizon"
            )
            lines.append(f"  {wv.witness or 'λ'}: {where}")
        lines.append("per-level count gaps:")
        for lv in self.levels:
            lines.append(
                f"  n={lv.level}: count={lv.count} "
                f"{'<' if lv.count_below_gap else '>='} 2^({lv.level}-{lv.gap})"
            )
        lines.append("modulus tail audits:")
        for mv in self.modulus_audits:
            lines.append(
                f"  i={mv.i}: tail from {mv.start} sums to {mv.tail} "
                f"{'<=' if mv.ok else '>'} 2^-{mv.i}"
            )
        return "\n".join(lines) + "\n"


def mc_certificate(
    fam: LevelFamily,
    gap: Callable[[int], int],
    modulus: Callable[[int], int],
    horizon: int,
    witnesses: Iterable[BitString] = (),
    audit_is: tuple[int, ...] = (0, 2, 4, 8),
) -> EntropyCertificate:
    """Audit the covering conditions and assemble the certificate.

    ``gap`` is the integer capital-gap function; level ``n`` passes when
    ``count < 2**(n - gap(n))`` (count 0 passes vacuously).  ``modulus``
    promises ``sum_{n >= modulus(i)} 2**-gap(n) <= 2**-i``, audited here over
    the family's levels, 1 to the horizon.  Each level's cover is fetched
    once, for its count and for the witnesses not yet covered, and dropped
    before the next.  Each tail is one integer over ``2**G``, for ``G`` at
    least every gap and every audited ``i``, compared with ``2**-i`` by a
    shift; only the tail the certificate prints is a ``Dyadic``.
    """
    levels = []
    failing = None
    witnesses = tuple(witnesses)
    covered_at: list[int | None] = [None] * len(witnesses)
    gaps = []  # gap(n) of level n at gaps[n - 1]
    for n in range(1, horizon + 1):
        cover = fam.cover_at(n)
        c = _size(cover)
        g = gap(n)
        gaps.append(g)
        if c == 0:
            ok = True
        elif n - g < 0:
            ok = False
        else:
            ok = c < (1 << (n - g))
        levels.append(LevelVerdict(n, c, g, ok))
        if not ok and failing is None:
            failing = n
        for j, w in enumerate(witnesses):
            if (
                covered_at[j] is None
                and len(w) >= n
                and cover is not None
                and cover.contains(w.prefix(n))
            ):
                covered_at[j] = n
    witness_verdicts = list(map(WitnessVerdict, witnesses, covered_at))

    G = max([0, *gaps, *audit_is])
    audits = []
    for i in audit_is:
        start = modulus(i)
        # sum of 2**-gap(n) over levels max(start, 1)..horizon, over 2**G
        tail = sum(1 << G - g for g in gaps[max(start, 1) - 1 :])
        audits.append(ModulusVerdict(i, start, Dyadic(tail, G), tail <= 1 << G - i))

    valid = (
        failing is None
        and all(a.ok for a in audits)
        and all(wv.covered_at is not None for wv in witness_verdicts)
    )
    return EntropyCertificate(
        fam.name,
        horizon,
        tuple(levels),
        tuple(witness_verdicts),
        tuple(audits),
        valid,
        failing,
    )


def certificate_family(
    fam: LevelFamily,
    cert: EntropyCertificate,
    gap: Callable[[int], int],
    modulus: Callable[[int], int],
) -> tuple[MartingaleFamily, ConvergenceModulus]:
    """The certified cover family as summable martingales.

    Member ``n`` is the cover martingale at level ``n``; its support is the
    levels ``1..horizon`` with a cover, and every other member is zero.
    Capitals are bounded by ``2**-gap(n)`` thanks to the certified count
    gap, and the certificate's modulus lifts to the family by the usual
    ``2**|w|`` shift.
    """
    if not cert.valid:
        raise ValueError("refusing to aggregate an invalid certificate")
    covers = {
        n: cover
        for n in range(1, cert.horizon + 1)
        if (cover := fam.cover_at(n)) is not None
    }
    family = MartingaleFamily(
        generator=lambda n: cover_martingale(covers[n]),
        capital_bound=lambda n: Dyadic.pow2(-gap(n)),
        name=f"covers({fam.name})",
        support=tuple(covers),
    )
    lifted = ConvergenceModulus(
        lambda w, i: modulus(i + len(w)),
        name=f"lifted({fam.name})",
    )
    return family, lifted
