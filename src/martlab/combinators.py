"""Aggregation machinery for families of exact martingales.

Finite sums are pointwise and exact: a sum, a ``2**k`` scaling and a
finitely supported family sum are counting forms again, each row and each
kernel step the members' numerators added over their largest
log-denominator, or shifted.  A finite family is its support: members off
it are zero, so they are never built, audited or summed.  Infinite sums are
truncated through a declared convergence modulus: ``m(w, i)`` promises that
the tail from index ``m(w, i)`` onward is at most ``2**-i``, and every query
audits that promise on a finite window (a necessary check; no finite
artifact can verify the infinite claim); the sum of an infinite family is an
:class:`Approximation`, known only to a requested precision.  A truncated
sum reads each member's value as its ``(num, log_den)`` pair, brings the
pairs once to their largest log-denominator and adds the integers; each
tail audit is one shift comparison of such a sum against ``2**-i``, and a
``Dyadic`` is built only for a result.  On top of
the truncated sums sit the two covering certificates — one of unit value on
covered prefixes, one of ``2**((1-t)n)`` growth, with ``1-s``, ``1-t`` and
``t-s`` as numerators over one power of two — and the
approximate-counting transform that trades an exact martingale for a
supermartingale evaluable from a multiplicative approximation of its
numerator, whose relaxed averaging law is checked on one integer row form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from operator import add
from typing import Callable, Iterable

from .cantor import EMPTY, BitString, all_strings
from .dyadic import Dyadic, ONE, ZERO, cmp_pow2, text
from .errors import (
    ApproximatorOutOfBand,
    CapitalBoundViolation,
    DegenerateFamily,
    ModulusViolation,
    NegativeValue,
)
from .martingale import Kernel, Martingale, RatioForm, _repeat, verify_averaging

__all__ = [
    "Approximation",
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
class Approximation:
    """A value known only to a precision: ``approx(w, r)`` is within
    ``2**-r`` of the true value at ``w``, and ``initial_capital`` is one such
    value at the root.  The sum of an infinite family and the transform's
    grid export are the two; neither has a counting form, so neither is a
    :class:`~martlab.martingale.Martingale`."""

    approx: Callable[[BitString, int], Dyadic]
    initial_capital: Dyadic
    supermartingale: bool


_ZERO_MEMBER = Martingale.constant(ZERO)


@dataclass(frozen=True)
class MartingaleFamily:
    """A generated family ``n -> martingale`` with declared root capitals.

    ``support``, when set, lists in increasing order the only indices whose
    members may be nonzero.  Every other member is the zero martingale: the
    generator is never asked for it, and no audit or sum reads it, so
    ``capital_bound`` too is read only on the support (a zero member adds
    nothing to a tail).  Aggregates over such families are finite sums and
    stay exact.
    """

    generator: Callable[[int], Martingale]
    capital_bound: Callable[[int], Dyadic]
    name: str = "family"
    support: tuple[int, ...] | None = None
    _members: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def member(self, n: int) -> Martingale:
        if self.support is not None and n not in self.support:
            return _ZERO_MEMBER
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


def geometric_modulus(delta: Dyadic, log2_scale: int = 0) -> ConvergenceModulus:
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

    return ConvergenceModulus(fn, f"geometric(delta={delta}, scale=2**{log2_scale})")


def _aligned_sum(terms: list[tuple[Martingale, int]], **kwargs) -> Martingale:
    """The exact pointwise sum of ``2**k`` times ``m`` over the pairs ``(m,
    k)`` of ``terms``: on each row, and at each step of the kernel, every
    term's numerators are brought to the terms' largest log-denominator
    (at least 0), and they add.  No terms sum to 0."""
    forms = [(m.ratio, k) for m, k in terms]

    def row(n: int) -> tuple[list[int], int]:
        rows = [(*r.row(n), k) for r, k in forms]
        common = max([0] + [log_den - k for _, log_den, k in rows])
        total = [0] * (1 << n)
        for nums, log_den, k in rows:
            total = list(map(add, total, [v << (common - log_den + k) for v in nums]))
        return total, common

    def kernel() -> Kernel:
        kernels, bit = [(r.kernel(), k) for r, k in forms], None
        while True:
            zero = one = common = 0
            for member, k in kernels:
                z, o, log_den = member.send(bit)
                log_den -= k
                if log_den > common:  # bring the sum so far to the new denominator
                    up, common = log_den - common, log_den
                    zero, one = zero << up, one << up
                zero += z << (common - log_den)
                one += o << (common - log_den)
            bit = yield zero, one, common

    return Martingale.from_ratio(row, kernel, **kwargs)


def sum_finite(a: Martingale, b: Martingale) -> Martingale:
    """Exact pointwise sum over the common power of two; capitals add."""
    freezes = (a.freeze_depth, b.freeze_depth)
    return _aligned_sum(
        [(a, 0), (b, 0)],
        freeze_depth=None if None in freezes else max(freezes),
        supermartingale=a.supermartingale or b.supermartingale,
        meta={"construction": "sum"},
    )


def scale_pow2(m: Martingale, k: int) -> Martingale:
    """Exact scaling by ``2**k`` (martingale law is scale-invariant): the
    sum of one term."""
    return _aligned_sum(
        [(m, k)],
        freeze_depth=m.freeze_depth,
        supermartingale=m.supermartingale,
        meta=m.meta,
    )


def _indices(fam: MartingaleFamily, start: int, stop: int) -> Iterable[int]:
    """The indices in ``[start, stop)`` whose members may be nonzero: the
    support's, for a finite family."""
    if fam.support is None:
        return range(start, stop)
    return [n for n in fam.support if start <= n < stop]


def _sum_pairs(values: list[Dyadic]) -> tuple[int, int]:
    """The sum of ``values`` as ``(num, log_den)``: every value's pair
    brought once to their largest log-denominator, and the numerators
    added.  No values sum to ``(0, 0)``."""
    common = max([v.log_den for v in values], default=0)
    return sum(v.num << common - v.log_den for v in values), common


def _exceeds(num: int, log_den: int, r: int) -> bool:
    """Whether ``num / 2**log_den > 2**-r``: ``num * 2**r`` against
    ``2**log_den``, with both shifts nonnegative."""
    return num << max(r, 0) > 1 << log_den - min(r, 0)


def _partial_sum(
    fam: MartingaleFamily, w: BitString, start: int, stop: int
) -> tuple[int, int]:
    """``sum_{start <= n < stop} d_n(w)`` as ``(num, log_den)``, over the
    support's indices only: each member's ``value(w)`` read as its pair,
    and the pairs summed by :func:`_sum_pairs`."""
    return _sum_pairs([fam.member(n).value(w) for n in _indices(fam, start, stop)])


def sum_family(
    fam: MartingaleFamily, mod: ConvergenceModulus, w: BitString, r: int
) -> Dyadic:
    """Truncated family sum ``sum_{n < m(w, r)} d_n(w)``.

    Within ``2**-r`` of the full sum whenever the modulus promise holds; the
    promise is audited first, on the ``DEFAULT_AUDIT_PAD`` terms from
    ``m(w, r)`` on, as one integer comparison of their summed pair against
    ``2**-r``.  The truncated sum is a pair too, and only the result is a
    ``Dyadic``.
    """
    start = mod(w, r)
    tail = _partial_sum(fam, w, start, start + DEFAULT_AUDIT_PAD)
    if _exceeds(*tail, r):
        raise ModulusViolation(
            f"{mod.name}: tail from {start} at ({w!r}, {r}) already sums to "
            f"{text(*tail)} > 2**-{r} within the audit window"
        )
    return Dyadic(*_partial_sum(fam, w, 0, start))


def aggregate_martingale(
    fam: MartingaleFamily, mod: ConvergenceModulus
) -> Martingale | Approximation:
    """The family sum.

    A family with finite support sums exactly, to a martingale whose rows
    and kernel steps are its support members' and no others.  Otherwise the
    sum is an :class:`Approximation`: ``approx`` is :func:`sum_family`,
    truncated by the modulus, and the initial capital is the root sum at
    precision ``DEFAULT_ROOT_PRECISION``.
    """
    if fam.support is not None:
        return _aligned_sum(
            [(fam.member(n), 0) for n in fam.support],
            meta={"construction": "family-sum"},
        )
    approx = partial(sum_family, fam, mod)
    return Approximation(approx, approx(EMPTY, DEFAULT_ROOT_PRECISION),
                         supermartingale=False)


def _audit_family(
    fam: MartingaleFamily, mod: ConvergenceModulus, audit_levels: int
) -> None:
    degenerate = True
    for n in _indices(fam, 0, audit_levels):
        capital = fam.member(n).initial_capital
        bound = fam.capital_bound(n)
        if capital > bound:
            raise CapitalBoundViolation(
                f"{fam.name}: member {n} has capital {capital} "
                f"> declared bound {bound}"
            )
        if capital.num:
            degenerate = False
    if degenerate:
        raise DegenerateFamily(
            f"{fam.name}: every member below {audit_levels} has zero capital"
        )
    # the declared capital series must survive its own modulus
    for i in (0, 4, 8):
        start = mod(EMPTY, i)
        window = _indices(fam, start, start + DEFAULT_AUDIT_PAD)
        if _exceeds(*_sum_pairs([fam.capital_bound(n) for n in window]), i):
            raise ModulusViolation(
                f"{fam.name}: declared capital tail from {start} exceeds "
                f"2**-{i} on audit"
            )


def borel_cantelli_measure(
    fam: MartingaleFamily, mod: ConvergenceModulus, audit_levels: int = 16
) -> Martingale | Approximation:
    """Aggregate whose value is at least 1 wherever any member reaches 1.

    Audits the declared capital bounds and the modulus (its tail promise at
    ``i = 0, 4, 8``) before aggregating; identically-zero families are
    rejected as degenerate.
    """
    _audit_family(fam, mod, audit_levels)
    return aggregate_martingale(fam, mod)


@dataclass(frozen=True)
class CoverageCertificate:
    level: int
    node: BitString
    partial_sum: Dyadic
    covered: bool


def unit_certificate(
    fam: MartingaleFamily, mod: ConvergenceModulus, n: int, w: BitString
) -> CoverageCertificate:
    """Certify ``d(w) >= 1`` from member ``n`` reaching 1 at ``w``.

    The partial sum is extended through index ``n``, so the certificate is an
    exact lower-bound witness regardless of truncation.  This is
    :func:`dimension_certificate` of the unscaled family at ``t = 1``.
    """
    return dimension_certificate(fam, fam, mod, ONE, n, w)


def borel_cantelli_dimension(
    fam: MartingaleFamily,
    s: Dyadic,
    t: Dyadic,
    audit_levels: int = 16,
) -> tuple[MartingaleFamily, ConvergenceModulus]:
    """Scale family members by ``2**ceil((1-t)n)``.

    Requires ``t > s`` and audited capitals ``d_n(root) <= 2**((s-1)n)``.
    The scaled capitals are geometric with ratio ``2**-(t-s)``, which yields
    the modulus.  Returns the scaled family and its modulus, the inputs of
    :func:`dimension_certificate`.
    """
    if not t > s:
        raise ValueError(f"needs t > s, got s={s}, t={t}")
    # 1 - s, 1 - t and t - s as numerators over one 2**L
    L = max(s.log_den, t.log_den)
    s_num, t_num = s.num << L - s.log_den, t.num << L - t.log_den
    one_minus_s, one_minus_t = (1 << L) - s_num, (1 << L) - t_num
    for n in _indices(fam, 0, audit_levels):
        capital = fam.member(n).initial_capital
        # d_n(root) <= 2**((s-1)n), compared without evaluating the power
        if cmp_pow2(capital.num, capital.log_den, -one_minus_s * n, L) > 0:
            raise CapitalBoundViolation(
                f"{fam.name}: member {n} capital {capital} exceeds "
                f"2**((s-1)*{n}) for s={s}"
            )

    def shift(n: int) -> int:
        return -(-one_minus_t * n >> L)  # ceil((1-t)n)

    def capital_bound(n: int) -> Dyadic:
        bound, k = fam.capital_bound(n), shift(n)
        return Dyadic(bound.num << max(k, 0), bound.log_den - min(k, 0))

    scaled = MartingaleFamily(
        generator=lambda n: scale_pow2(fam.member(n), shift(n)),
        capital_bound=capital_bound,
        name=f"{fam.name}*2^ceil((1-t)n)",
        support=fam.support,
    )
    return scaled, geometric_modulus(Dyadic(t_num - s_num, L), log2_scale=1)


def dimension_certificate(
    scaled_fam: MartingaleFamily,
    base_fam: MartingaleFamily,
    mod: ConvergenceModulus,
    t: Dyadic,
    n: int,
    w: BitString,
) -> CoverageCertificate:
    """Certify aggregate value at least ``2**((1-t)n)`` at a covered node."""
    member_value = base_fam.member(n).value(w)
    stop = max(mod(w, DEFAULT_ROOT_PRECISION), n + 1)
    num, log_den = _partial_sum(scaled_fam, w, 0, stop)
    one_minus_t = (1 << t.log_den) - t.num  # over 2**t.log_den
    covered = member_value >= ONE and cmp_pow2(
        num, log_den, one_minus_t * n, t.log_den
    ) >= 0
    return CoverageCertificate(n, w, Dyadic(num, log_den), covered)


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

    Values are exact general rationals internally; the exported
    approximation ``martingale`` floors them onto a ``2**-32`` grid (or
    finer when more precision is asked), which is where the recorded
    one-step error bound lives.  The
    relaxed averaging law is checked on the exact values, never the floors.
    ``scaled`` is the exact value times the constant ``(n+1)**n``, in
    counting form: at a length-``k`` string, ``k <= n``, the band-checked
    approximation ``h`` times ``(n-1)**k (n+1)**(n-k)``, over the base
    form's ``2**L``; past level ``n`` it repeats level ``n``.
    """

    level: int
    exact_value: Callable[[BitString], Fraction]
    martingale: Approximation
    damping: Fraction
    scaled: Martingale

    def verify_averaging_exact(self, depth: int) -> list[BitString]:
        """Nodes (if any) violating ``2 d(v) >= d(v0) + d(v1)``, in level then
        lexicographic order: :func:`~martlab.martingale.verify_averaging` of
        ``scaled``, whose constant factor leaves the law unchanged.

        Below level ``n`` the law at a parent ``p`` with children ``c``
        reads ``2 h_p (n+1) 2**L_c >= (h_0 + h_1) (n-1) 2**L_p``.  From level
        ``n`` on every child repeats its parent, which meets the law with
        equality, so levels past ``n`` are not read.
        """
        report = verify_averaging(self.scaled, min(depth, self.level))
        return [v.node for v in report.violations]


EXPORT_GRID_BITS = 32


def approx_supermartingale(
    form: RatioForm, h: Callable[[BitString], int], n: int
) -> ApproxSupermartingale:
    """Supermartingale from a multiplicative approximation of a numerator.

    ``h`` must stay within a ``1/n`` relative band of the true numerator on
    every queried string (checked exactly: ``(n-1) f <= n h <= (n+1) f``),
    and is called once per string.  The value at ``v`` is ``h(v)/g(v)``
    damped by ``((n-1)/(n+1))**|v|``, frozen at level ``n``; damping the
    deeper nodes harder is what turns the approximation error into a
    supermartingale instead of breaking the averaging law.
    """
    if n < 2:
        raise ValueError("transform needs level n >= 2")
    approximation = lru_cache(maxsize=None)(h)
    weight = [(n - 1) ** k * (n + 1) ** (n - k) for k in range(n + 1)]

    def checked(x: BitString, fx: int) -> int:
        """``h(x)``, checked against the band around ``f(x) = fx``."""
        hx = approximation(x)
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

    def row(k: int) -> tuple[list[int], int]:
        top = min(k, n)
        fs, log_den = form.row(top)
        nums = [checked(x, fx) * weight[top] for x, fx in zip(all_strings(top), fs)]
        return [v for v in nums for _ in range(1 << (k - top))], log_den

    def kernel() -> Kernel:
        base, w, bit = form.kernel(), EMPTY, None
        for k in range(1, n + 1):
            f0, f1, log_den = base.send(bit)
            w0, w1 = w.append(0), w.append(1)
            zero, one = checked(w0, f0) * weight[k], checked(w1, f1) * weight[k]
            bit = yield zero, one, log_den
            w, num = (w1, one) if bit else (w0, zero)
        yield from _repeat(num, log_den)

    scaled = Martingale.from_ratio(row, kernel, freeze_depth=n, supermartingale=True)

    def exact_value(v: BitString) -> Fraction:
        d = scaled.value(v)
        return Fraction(d.num, (n + 1) ** n << d.log_den)

    def approx(v: BitString, r: int) -> Dyadic:
        grid = max(r, EXPORT_GRID_BITS)
        fr = exact_value(v)
        return Dyadic((fr.numerator << grid) // fr.denominator, grid)

    return ApproxSupermartingale(
        level=n,
        exact_value=exact_value,
        martingale=Approximation(
            approx, approx(EMPTY, EXPORT_GRID_BITS), supermartingale=True
        ),
        damping=ratio_power(n),
        scaled=scaled,
    )
