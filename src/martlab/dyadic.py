"""Exact arithmetic on rationals whose denominators are powers of two.

A :class:`Dyadic` is ``num / 2**log_den`` with an arbitrary-precision integer
numerator.  Every value is kept in canonical form (numerator odd, or
``log_den == 0``), so equality of values is structural equality.  Addition,
multiplication, and comparison are exact; nothing in this module ever rounds.

Signed numerators are permitted because accept-minus-reject counting can go
negative; betting values proper are checked for nonnegativity where they are
produced, not here.

The module also houses the exact-logarithm helpers used for success
thresholds (compare a value against ``2**(p/2**k)``) and for quantizing
``log2`` ratios onto a fixed dyadic grid.  Both reduce to arbitrary-precision
integer comparisons.
"""

from __future__ import annotations

__all__ = [
    "Dyadic",
    "ZERO",
    "ONE",
    "HALF",
    "cmp_pow2",
    "grid_floor_one_minus_log2_ratio",
    "grid_floor_log2_ratio",
]


class Dyadic:
    """An exact rational with a power-of-two denominator."""

    __slots__ = ("num", "log_den")

    num: int
    log_den: int

    def __init__(self, num: int, log_den: int = 0):
        if log_den < 0:
            raise ValueError("log_den must be nonnegative")
        if num == 0:
            log_den = 0
        else:
            # strip common factors of two; (num & -num) isolates the low set bit
            tz = (num & -num).bit_length() - 1
            shift = min(tz, log_den)
            if shift:
                num >>= shift
                log_den -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "log_den", log_den)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, value: int) -> "Dyadic":
        return cls(value, 0)

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

    @property
    def denominator(self) -> int:
        return 1 << self.log_den

    def is_zero(self) -> bool:
        return self.num == 0

    def is_negative(self) -> bool:
        return self.num < 0

    def is_integer(self) -> bool:
        return self.log_den == 0

    def floor(self) -> int:
        # Python's >> floors toward -inf, which is what floor needs
        return self.num >> self.log_den

    def ceil(self) -> int:
        return -((-self.num) >> self.log_den)

    def to_float(self) -> float:
        # report-only; may round for huge operands
        return self.num / (1 << self.log_den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        if self.log_den >= other.log_den:
            return Dyadic(
                self.num + (other.num << (self.log_den - other.log_den)),
                self.log_den,
            )
        return Dyadic(
            (self.num << (other.log_den - self.log_den)) + other.num,
            other.log_den,
        )

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self + Dyadic(-other.num, other.log_den)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.log_den)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        return Dyadic(self.num * other.num, self.log_den + other.log_den)

    def __pow__(self, exponent: int) -> "Dyadic":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are exact")
        return Dyadic(self.num**exponent, self.log_den * exponent)

    def scale2(self, k: int) -> "Dyadic":
        """Exact multiplication by ``2**k`` (``k`` may be negative)."""
        if k >= 0:
            return Dyadic(self.num << k, self.log_den)
        return Dyadic(self.num, self.log_den - k)

    def half(self) -> "Dyadic":
        return Dyadic(self.num, self.log_den + 1)

    def avg(self, other: "Dyadic") -> "Dyadic":
        """Exact ``(self + other) / 2``."""
        return (self + other).half()

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

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self.num, self.log_den))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.log_den == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.log_den}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.log_den})"

    def to_decimal(self) -> str:
        """Exact decimal rendering (dyadics terminate in base ten)."""
        if self.log_den == 0:
            return str(self.num)
        sign = "-" if self.num < 0 else ""
        digits = abs(self.num) * 5**self.log_den
        text = str(digits).rjust(self.log_den + 1, "0")
        whole, frac = text[: -self.log_den], text[-self.log_den :]
        return f"{sign}{whole}.{frac}"


ZERO = Dyadic(0)
ONE = Dyadic(1)
HALF = Dyadic(1, 1)


def cmp_pow2(value: Dyadic, exponent: Dyadic) -> int:
    """Exact three-way comparison of ``value`` against ``2**exponent``.

    ``exponent`` is dyadic, so ``2**exponent`` is irrational in general; the
    comparison is decided by raising both sides to the power
    ``2**exponent.log_den``, which clears the fractional exponent:

        value >= 2**(p / 2**k)   iff   value**(2**k) >= 2**p   (value > 0).

    Returns -1, 0, or +1.
    """
    if value.num <= 0:
        # 2**exponent is strictly positive
        return -1
    q = 1 << exponent.log_den
    p = exponent.num
    lhs = value**q
    rhs = Dyadic.pow2(p)
    return lhs._cmp(rhs)


def grid_floor_log2_ratio(m: int, n: int, grid_bits: int = 10) -> Dyadic:
    """Largest grid multiple of ``2**-grid_bits`` at most ``log2(m) / n``.

    Exact: the candidate grid index ``g`` satisfies ``g <= 2**grid_bits *
    log2(m)/n`` iff ``m**(2**grid_bits) >= 2**(g*n)``.  Requires ``m >= 1``.
    """
    if m < 1 or n < 1:
        raise ValueError("requires m >= 1 and n >= 1")
    scale = 1 << grid_bits
    # bracket: 0 <= log2(m)/n <= bitlength(m)
    lo, hi = 0, ((m.bit_length()) * scale) // n + 1
    powered = m**scale
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if powered >= (1 << (mid * n)):
            lo = mid
        else:
            hi = mid - 1
    return Dyadic(lo, grid_bits)


def grid_floor_one_minus_log2_ratio(
    value: Dyadic, n: int, grid_bits: int = 10
) -> Dyadic:
    """Largest grid multiple of ``2**-grid_bits`` at most ``1 - log2(value)/n``.

    Exact for positive ``value = m / 2**j``:  the target equals
    ``(n + j - log2(m)) / n`` and a grid index ``g`` qualifies iff
    ``2**(scale*(n + j) - g*n) >= m**scale``.
    """
    if value.num <= 0:
        raise ValueError("requires a positive value")
    if n < 1:
        raise ValueError("requires n >= 1")
    m, j = value.num, value.log_den
    scale = 1 << grid_bits
    powered = m**scale
    top = scale * (n + j)

    def ok(g: int) -> bool:
        rhs_exp = top - g * n
        if rhs_exp < 0:
            return False
        return (1 << rhs_exp) >= powered

    # bracket generously: |log2(value)| <= bitlength(m) + j
    span = (m.bit_length() + j + n) * scale // n + 2
    lo, hi = -span, span
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid - 1
    return Dyadic(lo, grid_bits)
