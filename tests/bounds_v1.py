"""The covering report's size-bound layer as martlab decided it on
``fractions.Fraction`` brackets, before they were integer numerators.

Test-local brute-force twin of the bracket helpers in
:mod:`martlab.circuits`: the same brackets, refined on the same ``2**-g``
grids, with every value a reduced ``Fraction``.  It refines from the
package's own ``_BRACKET_BITS`` up to its ``_BRACKET_CAP``, so a test that
changes the start changes it for both.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from martlab import circuits
from martlab.dyadic import Dyadic, grid_floor_log2_ratio
from martlab.errors import DegenerateParameter, IndeterminateComparison


def refine(decide: Callable[[int], bool | int | None], what: str):
    """``decide(g)`` for ``g`` doubling from the package's start to its cap."""
    g = circuits._BRACKET_BITS
    while g <= circuits._BRACKET_CAP:
        verdict = decide(g)
        if verdict is not None:
            return verdict
        g *= 2
    raise IndeterminateComparison(
        f"{what}: undecided at the 2**-{circuits._BRACKET_CAP} precision cap"
    )


def log2_bracket(m: int, g: int) -> tuple[Fraction, Fraction]:
    """``[lo, hi]`` around ``log2(m)`` for an integer ``m >= 1``."""
    if m & (m - 1) == 0:
        k = Fraction(m.bit_length() - 1)
        return k, k
    low = grid_floor_log2_ratio(m, 1, g)
    lo = Fraction(low.num, 1 << low.log_den)
    return lo, lo + Fraction(1, 1 << g)


def log2_ratio_bracket(x_lo: Fraction, x_hi: Fraction, g: int) -> tuple[Fraction, Fraction]:
    """``[lo, hi]`` around ``log2(x)`` for rationals ``0 < x_lo <= x <= x_hi``."""
    lo = log2_bracket(x_lo.numerator, g)[0] - log2_bracket(x_lo.denominator, g)[1]
    hi = log2_bracket(x_hi.numerator, g)[1] - log2_bracket(x_hi.denominator, g)[0]
    return lo, hi


def size_bracket(n: int, alpha: Dyadic, g: int) -> tuple[Fraction, Fraction]:
    """``[lo, hi]`` around ``s = (2**n / n) (1 + alpha log2(n) / n)``."""
    base = Fraction(1 << n, n)
    slope = base * Fraction(alpha.num, 1 << alpha.log_den) / n
    ends = [base + slope * end for end in log2_bracket(n, g)]
    return min(ends), max(ends)


def lutz_size_bound_floor(n: int, alpha: Dyadic) -> int:
    if n < 2:
        raise DegenerateParameter("size bound needs n >= 2")

    def floor(g: int) -> int | None:
        lo, hi = size_bracket(n, alpha, g)
        return lo // 1 if lo // 1 == hi // 1 else None

    return refine(floor, "size bound floor")


def e_bounds(terms: int) -> tuple[Fraction, Fraction]:
    """The factorial series for e to ``terms`` terms, and that plus ``2 / terms!``."""
    num, fact = 1, 1
    for k in range(1, terms):
        num = num * k + 1
        fact *= k
    return Fraction(num, fact), Fraction(num * terms + 2, fact * terms)


def analytic_bound(count: int, n: int, alpha: Dyadic) -> bool:
    """``count <= (48 e s)**s`` for ``count >= 1`` and ``s >= 0``."""

    def holds(g: int) -> bool | None:
        s_lo, s_hi = size_bracket(n, alpha, g)
        if s_lo == s_hi == 0:
            return count <= 1
        if s_lo <= 0:
            return None
        e_lo, e_hi = e_bounds(g // 2 + 4)
        log_lo, log_hi = log2_ratio_bracket(48 * e_lo * s_lo, 48 * e_hi * s_hi, g)
        rhs = [s * log for s in (s_lo, s_hi) for log in (log_lo, log_hi)]
        lhs_lo, lhs_hi = log2_bracket(count, g)
        if lhs_hi <= min(rhs):
            return True
        if lhs_lo > max(rhs):
            return False
        return None

    return refine(holds, f"{count} <= (48 e s)**s")


def log2_below(count: int, n: int, Q: Fraction, target: Fraction) -> bool:
    """``log2(count) + Q log2(n) < target`` for ``count >= 1``."""

    def below(g: int) -> bool | None:
        c_lo, c_hi = log2_bracket(count, g)
        ends = [Q * end for end in log2_bracket(n, g)]
        if c_hi + max(ends) < target:
            return True
        if c_lo + min(ends) >= target:
            return False
        return None

    return refine(below, f"log2({count}) + {Q} log2({n}) < {target}")


def gap_terms(n: int, alpha: Dyadic) -> tuple[str, Fraction, Fraction]:
    """The report's ``f(N)`` text and condition (ii) as ``(text, Q, 2**n - R)``,
    for ``f(N) = R + Q log2(n)``."""
    rows = 1 << n
    coeff = (1 - Fraction(alpha.num, 1 << alpha.log_den) / 2) * Fraction(rows, n)
    if n & (n - 1) == 0:
        R = coeff * (n.bit_length() - 1)
        return str(R), Fraction(0), rows - R
    return f"{coeff}*log2({n})", coeff, Fraction(rows)
