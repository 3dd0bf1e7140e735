"""Exact arithmetic on rationals whose denominators are powers of two.

A :class:`Dyadic` is ``num / 2**log_den`` with an arbitrary-precision integer
numerator.  Every value is kept in canonical form (numerator odd, or
``log_den == 0``), so equality of values is structural equality.  A
``Dyadic`` parses, prints and compares exactly, and has no arithmetic: code
that sums or scales values reads their ``(num, log_den)`` pairs, brings them
to one power of two and adds or shifts the integers, and builds a
``Dyadic`` only for a result.  Nothing in this module ever rounds.

Signed numerators are permitted because accept-minus-reject counting can go
negative; betting values proper are checked for nonnegativity where they are
produced, not here.

:func:`text` is the one rendering of a value, ``p`` or ``p/d`` in lowest
terms, and it takes the value as an integer pair in any terms, so a path
prints its walk's pairs without a ``Dyadic`` per line; :func:`texts`
renders a list of pairs and decides the interpreter's print cap on the
whole list before it renders any.

The module also houses the exact-logarithm helpers used for success
thresholds (compare a value against ``2**(p/2**k)``) and for quantizing
``log2`` ratios onto a fixed dyadic grid.  They take integer pairs, the
value as ``(m, j)`` for ``m / 2**j`` and the exponent as ``(p, k)`` for
``p / 2**k``, in any terms, so a scan along a path compares its walk's
numerators without building a ``Dyadic`` per prefix; only a reported grid
floor is one.  Both reduce to the bit length of ``m**(2**k)`` for an
integer ``m``, which :func:`pow_bit_length` finds without building the
power.  It brackets ``m**e`` between two ends computed from the leading
``t`` bits in one square-and-multiply, one end rounded down after every
multiplication and one rounded up over a shared shift, and doubles ``t``
while the two ends' bit lengths differ.  Once ``t`` covers ``m**e`` nothing
is rounded, so the exact full power is the fallback.  No floating point is
involved.
"""

from __future__ import annotations

import sys

from .errors import CapExceeded

__all__ = [
    "Dyadic",
    "ZERO",
    "ONE",
    "text",
    "texts",
    "cmp_pow2",
    "pow_bit_length",
    "grid_floor_one_minus_log2_ratio",
    "grid_floor_log2_ratio",
    "GRID_BITS",
]


class Dyadic:
    """An exact rational with a power-of-two denominator, compared by value
    and not hashable."""

    __slots__ = ("num", "log_den")

    num: int
    log_den: int

    def __init__(self, num: int, log_den: int = 0):
        if log_den < 0:
            raise ValueError("log_den must be nonnegative")
        if log_den and not num & 1:
            num, log_den = _lowest(num, log_den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "log_den", log_den)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def pow2(cls, exponent: int) -> "Dyadic":
        """Exact ``2**exponent`` for any integer exponent."""
        if exponent >= 0:
            return cls(1 << exponent, 0)
        return cls(1, -exponent)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse ``"p"`` or ``"p/d"`` where ``d`` is a power of two."""
        text = text.strip()
        if "/" in text:
            num_text, den_text = text.split("/", 1)
            num = int(num_text)
            den = int(den_text)
            if den <= 0 or den & (den - 1):
                raise ValueError(f"denominator {den} is not a power of two")
            return cls(num, den.bit_length() - 1)
        return cls(int(text), 0)

    # -- value queries -----------------------------------------------------

    def is_negative(self) -> bool:
        return self.num < 0

    # -- ordering ----------------------------------------------------------

    def _cmp(self, other: "Dyadic") -> int:
        lhs = self.num << max(0, other.log_den - self.log_den)
        rhs = other.num << max(0, self.log_den - other.log_den)
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        # canonical form makes equality structural
        return self.num == other.num and self.log_den == other.log_den

    # ``a <= b`` is answered by its reflection, ``b >= a``

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return text(self.num, self.log_den)

    __repr__ = __str__


ZERO = Dyadic(0)
ONE = Dyadic(1)

# the grid ``2**-GRID_BITS`` that reported log2 ratios are floored onto
GRID_BITS = 10


def _lowest(num: int, log_den: int) -> tuple[int, int]:
    """``num / 2**log_den`` with its common factors of two stripped."""
    # (num & -num) isolates the low set bit, and a zero numerator strips the
    # whole denominator
    shift = (num & -num).bit_length() - 1 if num else log_den
    if shift > log_den:
        shift = log_den
    return num >> shift, log_den - shift


def text(num: int, log_den: int) -> str:
    """The value ``num / 2**log_den``, a pair in any terms, as ``p`` or
    ``p/d`` in lowest terms: the one rendering of a value.  A numerator or
    denominator past the interpreter's int-to-text limit raises
    :class:`~martlab.errors.CapExceeded`."""
    if log_den and not num & 1:
        num, log_den = _lowest(num, log_den)
    try:
        return f"{num}/{1 << log_den}" if log_den else str(num)
    except ValueError as exc:  # past the interpreter's int-to-text limit
        raise CapExceeded(
            f"value with a {num.bit_length()}-bit numerator over "
            f"2**{log_den} exceeds the "
            f"{sys.get_int_max_str_digits()}-digit print cap"
        ) from exc


def texts(pairs: tuple[tuple[int, int], ...]) -> list[str]:
    """:func:`text` of each ``(num, log_den)`` pair, in order.

    The print cap is decided on the pairs first, so the first value past it
    raises before any text is built.  ``str`` refuses an integer of more
    than ``limit`` digits, that is one at least ``10**limit``; as
    ``2**(3 * limit) < 10**limit``, a pair with fewer bits prints.  A longer
    pair is compared in lowest terms with ``10**limit``, and only a value
    past it is rendered, which raises.
    """
    limit = sys.get_int_max_str_digits()  # 0: no limit
    bits = 3 * limit
    if limit and any(d >= bits or n.bit_length() >= bits for n, d in pairs):
        cap = 10**limit
        den_bits = (cap - 1).bit_length()  # 2**log_den >= cap from here on
        for num, log_den in pairs:
            if log_den and not num & 1:
                num, log_den = _lowest(num, log_den)
            if log_den >= den_bits or not -cap < num < cap:
                text(num, log_den)
    return [text(num, log_den) for num, log_den in pairs]


def _pow_bit_bounds(m: int, e: int, t: int) -> tuple[int, int]:
    """A lower and an upper bound on ``(m**e).bit_length()``: one
    square-and-multiply of two ends ``lo <= hi`` over one shared ``shift``,
    with ``lo * 2**shift <= m**f <= hi * 2**shift`` for each partial power
    ``m**f``.  Each step drops ``hi``'s bits past the leading ``t`` from
    both ends, ``lo`` rounded down and ``hi`` up, which keeps the bracket.
    The lower bound reads ``lo``, which may round to 0; then it is below
    the upper bound and decides nothing."""
    lo = hi = 1
    shift = 0
    for bit in bin(e)[2:]:
        lo *= lo
        hi *= hi
        shift *= 2
        if bit == "1":
            lo *= m
            hi *= m
        drop = hi.bit_length() - t
        if drop > 0:
            lo >>= drop
            hi = -(-hi >> drop)
            shift += drop
    return lo.bit_length() + shift, hi.bit_length() + shift


def pow_bit_length(m: int, e: int) -> int:
    """Exact ``(m**e).bit_length()`` for ``m >= 1``, ``e >= 0``, from the
    bracket described in the module docstring."""
    if m < 1 or e < 0:
        raise ValueError("requires m >= 1 and e >= 0")
    t = 64
    while True:
        lower, upper = _pow_bit_bounds(m, e, t)
        if lower == upper:
            return lower
        t *= 2


def _is_pow2(m: int) -> bool:
    return m & (m - 1) == 0


def cmp_pow2(m: int, j: int, p: int, k: int) -> int:
    """Exact three-way comparison of ``m / 2**j`` against ``2**(p / 2**k)``.

    The value and the exponent come as integer pairs, ``j, k >= 0``, in
    any terms: a scan passes its walk's numerator and log-denominator, and
    the exponent of level ``n`` as the unreduced ``(p * n, k)``.
    ``2**(p / 2**k)`` is irrational in general; raising both sides to the
    power ``q = 2**k`` clears it, so the exponent's common twos are
    stripped first to keep ``q`` small.  For ``m > 0``,

        m / 2**j >= 2**(p / 2**k)   iff   m**q >= 2**(p + j*q).

    ``m``'s bit length ``b`` puts ``m**q`` in ``[2**((b-1)q), 2**(bq))``,
    which decides every target outside that band; inside it,
    ``floor(log2(m**q))`` comes from :func:`pow_bit_length`, and equality
    holds exactly when ``m`` is a power of two.  Returns -1, 0, or +1.
    """
    if m <= 0:
        # 2**(p / 2**k) is strictly positive
        return -1
    twos = (p & -p).bit_length() - 1 if p else k
    if twos > k:
        twos = k
    p >>= twos
    k -= twos
    target = p + (j << k)
    b = m.bit_length()
    if target < (b - 1) << k:
        return 1
    if target >= b << k:
        return -1
    floor_log = pow_bit_length(m, 1 << k) - 1
    if target != floor_log:
        return 1 if target < floor_log else -1
    return 0 if _is_pow2(m) else 1


def grid_floor_log2_ratio(m: int, n: int, grid_bits: int = GRID_BITS) -> Dyadic:
    """Largest grid multiple of ``2**-grid_bits`` at most ``log2(m) / n``.

    Exact: a grid index ``g`` qualifies iff ``m**(2**grid_bits) >= 2**(g*n)``,
    that is iff ``g*n <= floor(log2(m**(2**grid_bits)))``, one less than
    that power's bit length.  Requires ``m >= 1``.
    """
    if m < 1 or n < 1:
        raise ValueError("requires m >= 1 and n >= 1")
    floor_log = pow_bit_length(m, 1 << grid_bits) - 1
    return Dyadic(floor_log // n, grid_bits)


def grid_floor_one_minus_log2_ratio(
    m: int, j: int, n: int, grid_bits: int = GRID_BITS
) -> Dyadic:
    """Largest grid multiple of ``2**-grid_bits`` at most
    ``1 - log2(m / 2**j)/n``, for the value ``m / 2**j`` as an integer pair
    in any terms.

    Exact for ``m > 0``:  the target equals ``(n + j - log2(m)) / n`` and a
    grid index ``g`` qualifies iff ``2**(scale*(n + j) - g*n) >= m**scale``,
    that is iff ``g*n <= scale*(n + j) - ceil(log2(m**scale))``.  The
    ceiling is the power's bit length, less one when ``m`` is a power of
    two.
    """
    if m <= 0:
        raise ValueError("requires a positive value")
    if n < 1:
        raise ValueError("requires n >= 1")
    scale = 1 << grid_bits
    ceil_log = pow_bit_length(m, scale) - _is_pow2(m)
    return Dyadic((scale * (n + j) - ceil_log) // n, grid_bits)
