"""Aggregation machinery for families of exact martingales.

Finite sums are pointwise and exact.  Infinite sums are truncated through a
declared convergence modulus: ``m(w, i)`` promises that the tail from index
``m(w, i)`` onward is at most ``2**-i``, and every query audits that promise
on a finite window (a necessary check; no finite artifact can verify the
infinite claim).  On top of the truncated sums sit the two covering
aggregates — one certifying unit value on covered prefixes, one certifying
``2**((1-t)n)`` growth — and the approximate-counting transform that trades
an exact martingale for a supermartingale evaluable from a multiplicative
approximation of its numerator.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .cantor import EMPTY, BitString
from .dyadic import Dyadic, ONE, ZERO, cmp_pow2
from .errors import (
    ApproximatorOutOfBand,
    CapitalBoundViolation,
    DegenerateFamily,
    ModulusViolation,
    NegativeValue,
)
from .martingale import Martingale, RatioForm, averaging_report

__all__ = [
    "MartingaleFamily",
    "ConvergenceModulus",
    "ApproxSupermartingale",
    "sum_finite",
    "scale_pow2",
    "sum_family",
    "aggregate_martingale",
    "borel_cantelli_measure",
    "borel_cantelli_dimension",
    "unit_certificate",
    "dimension_certificate",
    "geometric_modulus",
    "approx_supermartingale",
    "ratio_power",
    "worst_case_gamma",
    "DEFAULT_AUDIT_PAD",
    "DEFAULT_ROOT_PRECISION",
]

DEFAULT_AUDIT_PAD = 8
DEFAULT_ROOT_PRECISION = 20


@dataclass(frozen=True)
class MartingaleFamily:
    """A generated family ``n -> martingale`` with declared root capitals.

    ``support_end``, when set, promises the zero martingale from that index
    on; aggregates over such families are finite sums and stay exact.
    """

    generator: Callable[[int], Martingale]
    capital_bound: Callable[[int], Dyadic]
    name: str = "family"
    support_end: int | None = None
    _members: dict = field(default_factory=dict, repr=False, compare=False)

    def member(self, n: int) -> Martingale:
        # cached so member-level memoization survives across queries
        if n not in self._members:
            self._members[n] = self.generator(n)
        return self._members[n]


@dataclass(frozen=True)
class ConvergenceModulus:
    """A tail-bound promise ``sum_{n >= fn(w, i)} d_n(w) <= 2**-i``."""

    fn: Callable[[BitString, int], int]
    name: str = "modulus"

    def __call__(self, w: BitString, i: int) -> int:
        m = self.fn(w, i)
        if m < 0:
            raise ValueError(f"{self.name}: negative modulus {m}")
        return m


def geometric_modulus(
    delta: Dyadic, log2_scale: int = 0, name: str | None = None
) -> ConvergenceModulus:
    """A valid modulus for capitals bounded by ``2**(log2_scale - delta*n)``.

    Grouping the tail into blocks of ``e = ceil(1/delta)`` terms bounds it by
    ``2**(log2_scale + e.bit_length() + 1 - delta*M)``, so it suffices to push
    ``delta * M`` past ``i + |w| + log2_scale + e.bit_length() + 1`` (the
    ``|w|`` term covers the ``2**|w|`` growth of values off the root).
    """
    if not delta > ZERO:
        raise ValueError("delta must be positive")
    e = max(1, -((-1 << delta.log_den) // delta.num))  # ceil(1/delta)
    pad = e.bit_length() + 1 + log2_scale

    def fn(w: BitString, i: int) -> int:
        target = i + len(w) + pad
        # ceil(target / delta) with delta = p / 2**k
        return max(0, -((-target << delta.log_den) // delta.num))

    return ConvergenceModulus(
        fn, name or f"geometric(delta={delta}, scale=2**{log2_scale})"
    )


def sum_finite(a: Martingale, b: Martingale) -> Martingale:
    """Exact pointwise sum; capitals add."""
    if a.exact is None or b.exact is None:
        raise ValueError("finite sums need exact evaluators")

    def evaluate(w: BitString) -> Dyadic:
        return a.value(w) + b.value(w)

    if a.freeze_depth is not None and b.freeze_depth is not None:
        freeze = max(a.freeze_depth, b.freeze_depth)
    else:
        freeze = None

    ratio = None
    if a.ratio is not None and b.ratio is not None:
        ra, rb = a.ratio, b.ratio

        def numerator(w: BitString) -> int:
            la, lb = ra.log_denominator(w), rb.log_denominator(w)
            common = max(la, lb)
            return (ra.numerator(w) << (common - la)) + (
                rb.numerator(w) << (common - lb)
            )

        def log_denominator(w: BitString) -> int:
            return max(ra.log_denominator(w), rb.log_denominator(w))

        ratio = RatioForm(numerator, log_denominator)

    tag = a.class_tag if a.class_tag == b.class_tag else "mixed"
    return Martingale.from_exact(
        evaluate,
        freeze_depth=freeze,
        class_tag=tag,
        supermartingale=a.supermartingale or b.supermartingale,
        ratio=ratio,
        meta={"construction": "sum", "parts": (a.meta, b.meta)},
    )


def scale_pow2(m: Martingale, k: int) -> Martingale:
    """Exact scaling by ``2**k`` (martingale law is scale-invariant)."""
    if m.exact is None:
        raise ValueError("scaling needs an exact evaluator")

    def evaluate(w: BitString) -> Dyadic:
        return m.value(w).scale2(k)

    ratio = None
    if m.ratio is not None:
        r = m.ratio
        if k >= 0:
            ratio = RatioForm(
                lambda w: r.numerator(w) << k, r.log_denominator
            )
        else:
            ratio = RatioForm(
                r.numerator, lambda w: r.log_denominator(w) - k
            )

    return Martingale.from_exact(
        evaluate,
        freeze_depth=m.freeze_depth,
        class_tag=m.class_tag,
        supermartingale=m.supermartingale,
        ratio=ratio,
        meta={**dict(m.meta), "scaled_by_log2": k},
    )


def _partial_sum(
    fam: MartingaleFamily, w: BitString, start: int, stop: int
) -> Dyadic:
    """``sum_{start <= n < stop} d_n(w)``, cut off at the family's support."""
    if fam.support_end is not None:
        stop = min(stop, fam.support_end)
    total = ZERO
    for n in range(start, stop):
        total = total + fam.member(n).value(w)
    return total


def _audit_tail(
    fam: MartingaleFamily,
    mod: ConvergenceModulus,
    w: BitString,
    i: int,
    pad: int,
) -> None:
    """Check the modulus promise on a finite window past ``m(w, i)``."""
    start = mod(w, i)
    tail = _partial_sum(fam, w, start, start + pad)
    if tail > Dyadic.pow2(-i):
        raise ModulusViolation(
            f"{mod.name}: tail from {start} at ({w!r}, {i}) already sums to "
            f"{tail} > 2**-{i} within the audit window"
        )


def sum_family(
    fam: MartingaleFamily,
    mod: ConvergenceModulus,
    w: BitString,
    r: int,
    audit_pad: int = DEFAULT_AUDIT_PAD,
    validate: bool = True,
) -> Dyadic:
    """Truncated family sum ``sum_{n < m(w, r)} d_n(w)``.

    Within ``2**-r`` of the full sum whenever the modulus promise holds; the
    promise is audited on a finite window before summing.
    """
    if validate:
        _audit_tail(fam, mod, w, r, audit_pad)
    return _partial_sum(fam, w, 0, mod(w, r))


def aggregate_martingale(
    fam: MartingaleFamily,
    mod: ConvergenceModulus,
    class_tag: str = "family-sum",
    audit_pad: int = DEFAULT_AUDIT_PAD,
) -> Martingale:
    """The family sum as a martingale.

    Families with finite support sum exactly; otherwise only the truncated
    approximate evaluator exists and the metadata records the modulus.
    """
    if fam.support_end is not None:
        end = fam.support_end

        @lru_cache(maxsize=None)
        def evaluate(w: BitString) -> Dyadic:
            return _partial_sum(fam, w, 0, end)

        return Martingale.from_exact(
            evaluate,
            freeze_depth=None,
            class_tag=class_tag,
            meta={
                "construction": "family-sum",
                "family": fam.name,
                "support_end": end,
                "modulus": mod.name,
            },
        )

    def approx(w: BitString, r: int) -> Dyadic:
        return sum_family(fam, mod, w, r, audit_pad=audit_pad)

    root = approx(EMPTY, DEFAULT_ROOT_PRECISION)
    return Martingale(
        approx=approx,
        exact=None,
        initial_capital=root,
        freeze_depth=None,
        class_tag=class_tag,
        meta={
            "construction": "family-sum",
            "family": fam.name,
            "modulus": mod.name,
            "initial_capital_precision": DEFAULT_ROOT_PRECISION,
        },
    )


def _audit_family(
    fam: MartingaleFamily,
    mod: ConvergenceModulus,
    audit_levels: int,
    audit_is: tuple[int, ...],
) -> None:
    horizon = audit_levels
    if fam.support_end is not None:
        horizon = min(horizon, fam.support_end)
    degenerate = True
    for n in range(horizon):
        member = fam.member(n)
        bound = fam.capital_bound(n)
        if member.initial_capital > bound:
            raise CapitalBoundViolation(
                f"{fam.name}: member {n} has capital {member.initial_capital} "
                f"> declared bound {bound}"
            )
        if not member.initial_capital.is_zero():
            degenerate = False
    if degenerate:
        raise DegenerateFamily(
            f"{fam.name}: every member up to {horizon} has zero capital"
        )
    # the declared capital series must survive its own modulus
    for i in audit_is:
        start = mod(EMPTY, i)
        stop = start + DEFAULT_AUDIT_PAD
        if fam.support_end is not None:
            stop = min(stop, fam.support_end)
        tail = ZERO
        for n in range(start, stop):
            tail = tail + fam.capital_bound(n)
        if tail > Dyadic.pow2(-i):
            raise ModulusViolation(
                f"{fam.name}: declared capital tail from {start} exceeds "
                f"2**-{i} on audit"
            )


def borel_cantelli_measure(
    fam: MartingaleFamily,
    mod: ConvergenceModulus,
    audit_levels: int = 16,
    audit_is: tuple[int, ...] = (0, 4, 8),
    seed: int | None = None,
) -> Martingale:
    """Aggregate whose value is at least 1 wherever any member reaches 1.

    Audits the declared capital bounds and the modulus before aggregating;
    identically-zero families are rejected as degenerate.  A seed widens the
    fixed audit set with reproducible random picks.
    """
    if seed is not None:
        rnd = _random.Random(seed)
        audit_is = tuple(audit_is) + tuple(
            rnd.randrange(0, 16) for _ in range(2)
        )
    _audit_family(fam, mod, audit_levels, audit_is)
    return aggregate_martingale(fam, mod, class_tag="borel-cantelli")


@dataclass(frozen=True)
class CoverageCertificate:
    level: int
    node: BitString
    member_value: Dyadic
    partial_sum: Dyadic
    threshold_log2: Dyadic
    covered: bool


def unit_certificate(
    fam: MartingaleFamily,
    mod: ConvergenceModulus,
    n: int,
    w: BitString,
    r: int = DEFAULT_ROOT_PRECISION,
) -> CoverageCertificate:
    """Certify ``d(w) >= 1`` from member ``n`` reaching 1 at ``w``.

    The partial sum is extended through index ``n``, so the certificate is an
    exact lower-bound witness regardless of truncation.  This is
    :func:`dimension_certificate` of the unscaled family at ``t = 1``.
    """
    return dimension_certificate(fam, fam, mod, ONE, n, w, r)


def borel_cantelli_dimension(
    fam: MartingaleFamily,
    s: Dyadic,
    t: Dyadic,
    audit_levels: int = 16,
) -> tuple[MartingaleFamily, ConvergenceModulus, Martingale]:
    """Scale family members by ``2**ceil((1-t)n)`` and aggregate.

    Requires ``t > s`` and audited capitals ``d_n(root) <= 2**((s-1)n)``.
    The scaled capitals are geometric with ratio ``2**-(t-s)``, which yields
    the modulus.  Returns the scaled family, its modulus, and the aggregate.
    """
    if not t > s:
        raise ValueError(f"needs t > s, got s={s}, t={t}")
    horizon = audit_levels
    if fam.support_end is not None:
        horizon = min(horizon, fam.support_end)
    one_minus_s = ONE - s
    for n in range(horizon):
        capital = fam.member(n).initial_capital
        # d_n(root) <= 2**((s-1)n), compared without evaluating the power
        if cmp_pow2(capital, -(one_minus_s * Dyadic(n))) > 0:
            raise CapitalBoundViolation(
                f"{fam.name}: member {n} capital {capital} exceeds "
                f"2**((s-1)*{n}) for s={s}"
            )

    one_minus_t = ONE - t

    def shift(n: int) -> int:
        return (one_minus_t * Dyadic(n)).ceil()

    scaled = MartingaleFamily(
        generator=lambda n: scale_pow2(fam.member(n), shift(n)),
        capital_bound=lambda n: fam.capital_bound(n).scale2(shift(n)),
        name=f"{fam.name}*2^ceil((1-t)n)",
        support_end=fam.support_end,
    )
    mod = geometric_modulus(t - s, log2_scale=1)
    agg = aggregate_martingale(scaled, mod, class_tag="borel-cantelli-dim")
    return scaled, mod, agg


def dimension_certificate(
    scaled_fam: MartingaleFamily,
    base_fam: MartingaleFamily,
    mod: ConvergenceModulus,
    t: Dyadic,
    n: int,
    w: BitString,
    r: int = DEFAULT_ROOT_PRECISION,
) -> CoverageCertificate:
    """Certify aggregate value at least ``2**((1-t)n)`` at a covered node."""
    member_value = base_fam.member(n).value(w)
    partial = _partial_sum(scaled_fam, w, 0, max(mod(w, r), n + 1))
    threshold = (ONE - t) * Dyadic(n)
    covered = member_value >= ONE and cmp_pow2(partial, threshold) >= 0
    return CoverageCertificate(n, w, member_value, partial, threshold, covered)


def ratio_power(n: int) -> Fraction:
    """The per-level damping ``((n-1)/(n+1))**n``; increases toward e**-2."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return Fraction(n - 1, n + 1) ** n


def worst_case_gamma(n: int) -> Fraction:
    """Retention guaranteed for any in-band approximator: ``(1-1/n)`` of
    :func:`ratio_power`."""
    return Fraction(n - 1, n) * ratio_power(n)


@dataclass(frozen=True)
class ApproxSupermartingale:
    """Result of the approximate-counting transform at one level.

    Values are exact general rationals internally; the exported martingale
    floors them onto a ``2**-32`` grid (or finer when more precision is
    asked), which is where the recorded one-step error bound lives.  The
    relaxed averaging law is checked on the rationals, never the floors.
    """

    level: int
    exact_value: Callable[[BitString], Fraction]
    martingale: Martingale
    damping: Fraction
    guaranteed_gamma: Fraction

    def verify_averaging_exact(self, depth: int) -> list[BitString]:
        """Nodes (if any) violating ``2 d(v) >= d(v0) + d(v1)``, in rationals."""
        report = averaging_report(self.exact_value, depth, supermartingale=True)
        return [violation.node for violation in report.violations]


EXPORT_GRID_BITS = 32


def approx_supermartingale(
    form: RatioForm,
    h: Callable[[BitString], int],
    n: int,
    class_tag: str = "approx",
) -> ApproxSupermartingale:
    """Supermartingale from a multiplicative approximation of a numerator.

    ``h`` must stay within a ``1/n`` relative band of the true numerator on
    every queried string (checked exactly: ``(n-1) f <= n h <= (n+1) f``).
    The value at ``v`` is ``h(v)/g(v)`` damped by ``((n-1)/(n+1))**|v|``,
    frozen at level ``n``; damping the deeper nodes harder is what turns the
    approximation error into a supermartingale instead of breaking the
    averaging law.
    """
    if n < 2:
        raise ValueError("transform needs level n >= 2")
    rho = Fraction(n - 1, n + 1)

    @lru_cache(maxsize=None)
    def band_checked(x: BitString) -> int:
        fx = form.numerator(x)
        hx = h(x)
        if fx < 0 or hx < 0:
            raise NegativeValue(
                f"approximation transform needs nonnegative counts at {x!r}"
            )
        if not ((n - 1) * fx <= n * hx <= (n + 1) * fx):
            raise ApproximatorOutOfBand(
                f"h({x!r}) = {hx} outside [(1-1/{n}) f, (1+1/{n}) f] "
                f"for f = {fx}"
            )
        return hx

    @lru_cache(maxsize=None)
    def exact_value(v: BitString) -> Fraction:
        v = v.prefix(n)
        hv = band_checked(v)
        return Fraction(hv, 1 << form.log_denominator(v)) * rho ** len(v)

    def approx(v: BitString, r: int) -> Dyadic:
        grid = max(r, EXPORT_GRID_BITS)
        fr = exact_value(v)
        return Dyadic((fr.numerator << grid) // fr.denominator, grid)

    martingale = Martingale(
        approx=approx,
        exact=None,
        initial_capital=approx(EMPTY, EXPORT_GRID_BITS),
        freeze_depth=n,
        class_tag=class_tag,
        supermartingale=True,
        meta={
            "construction": "approx-supermartingale",
            "level": n,
            "export_grid_bits": EXPORT_GRID_BITS,
        },
    )
    return ApproxSupermartingale(
        level=n,
        exact_value=exact_value,
        martingale=martingale,
        damping=ratio_power(n),
        guaranteed_gamma=worst_case_gamma(n),
    )
