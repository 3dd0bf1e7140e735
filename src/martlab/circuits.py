"""Exhaustive Boolean circuit enumeration and the census it produces.

Truth tables over ``n <= 4`` inputs are bit masks (row ``j`` sets variable
``i`` to ``(j >> i) & 1``).  The census maps every reachable table to its
minimum gate count over the fixed basis (fan-in-2 AND/OR, fan-in-1 NOT;
inputs and constants are free), built by breadth-first closure: seed with
projections and constants, then combine everything already reached through
one more gate.  Combining two minimal subcircuits counts both operand
trees, so census sizes are minima over tree-shaped circuits; the tests check
them against a state-space enumeration over circuit DAGs (which can share
gates) at ``n = 2``, where the two notions provably coincide, and bound
them from below with it at ``n = 3`` up to 5 gates.

A census holds sizes and their counts only: the paper's circuit lower bound
needs only how many tables have small circuits, so no witness circuit is
named or stored.

On top of the census sit the minimum-circuit-size decision, the covering
check for characteristic prefixes whose top length has a small circuit, and
the witness relation that decides circuit size from stack programs run by
the toy machine's table evaluator.

A census carries how many tables take each size: a build has them as the
lengths of its levels, and the cache stores them after the size bytes, so
no load recounts.  The histogram, ``count_at_most``, the covering report and
an ``mcsp`` cover's whole-table count all read them.  The covering report
decides on integers: a ``log2`` bracket is a pair of numerators over
``2**g``, the size bound's bracket a pair over one shared denominator, and
each verdict one cross-multiplied comparison, with no power raised to a
denominator.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import gcd
from typing import Callable
from pathlib import Path

from . import cache, machine
from .cantor import BitString, mirror
from .constructions import Cover
from .dyadic import Dyadic, grid_floor_log2_ratio
from .errors import (
    CapExceeded,
    CensusUnavailable,
    DegenerateParameter,
    IndeterminateComparison,
)
from .oracle import WitnessRelation

__all__ = [
    "TruthTable",
    "CircuitCensus",
    "DEFAULT_BASIS",
    "SIZE_CAP",
    "UNREACHED",
    "build_census",
    "mcsp",
    "mcsp_cover",
    "mcsp_witness_relation",
    "mnp_cover_check",
    "mnp_size_bound_floor",
    "MnpCoverReport",
    "save_census",
    "load_census",
    "cached_census",
    "lutz_size_bound_floor",
]

DEFAULT_BASIS = "and-or-not"
SIZE_CAP = 8
INPUT_CAP = 4
UNREACHED = 255  # the size byte of a table no circuit within the cap computes


@dataclass(frozen=True)
class TruthTable:
    """A complete function table over ``n`` inputs, packed into a mask."""

    n: int
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << (1 << self.n)):
            raise ValueError(f"mask {self.mask} too wide for n={self.n}")

    @classmethod
    def from_bits(cls, bits: BitString) -> "TruthTable":
        rows = len(bits)
        if rows < 1 or rows & (rows - 1):
            raise ValueError(f"table length {rows} is not a power of two")
        return cls(rows.bit_length() - 1, mirror(bits.to_int(), rows))


@dataclass(frozen=True)
class CircuitCensus:
    """Minimum gate counts for every table reachable within ``max_size``.

    Dense and indexed by mask: ``sizes[mask]`` is the table's minimum size,
    or :data:`UNREACHED`; ``counts[s]`` is how many tables take size ``s``,
    for ``s = 0..max_size``.  The fields are what the cache stores, so
    equality compares exactly that.  No witness circuit is kept: ``mcsp``,
    the covers and the covering report read sizes only, and every
    whole-census count reads ``counts``.
    """

    n: int
    max_size: int
    sizes: bytes
    counts: tuple[int, ...]

    def min_size(self, tt: TruthTable) -> int | None:
        if tt.n != self.n:
            raise ValueError(f"table has {tt.n} inputs, census has {self.n}")
        size = self.sizes[tt.mask]
        return None if size == UNREACHED else size

    def count_at_most(self, s: int) -> int:
        if s > self.max_size:
            raise CensusUnavailable(
                f"census caps at size {self.max_size}, asked for {s}"
            )
        return sum(self.counts[: max(s + 1, 0)])

    def histogram(self) -> dict[int, int]:
        return {s: c for s, c in enumerate(self.counts) if c}


def _at_most(sizes: bytes, s: int) -> int:
    """How many entries of ``sizes`` are at most ``s``; an ``mcsp`` cover
    counts its table slices with it."""
    return len(sizes) - len(sizes.translate(None, bytes(range(s + 1))))


# rows per band of an equal split's upper triangle
_BAND = 64


def _cells(by_size: list, s: int, full: int):
    """Level ``s``'s candidate tables as grids: NOT of every level ``s - 1``
    table, then AND and OR of every size split, ``grid[r, c] = lo[r] op
    hi[c]``.  AND and OR are symmetric, so an equal split (``lo`` is ``hi``)
    takes only its upper triangle, ``c >= r``: each band of ``_BAND`` rows
    against the columns from the band's first row on."""
    prev = by_size[s - 1]
    yield full ^ prev
    for i in range((s + 1) // 2):
        lo, hi = by_size[i], by_size[s - 1 - i]
        if i == s - 1 - i:
            for r in range(0, len(lo), _BAND):
                band = lo[r : r + _BAND, None]
                yield band & lo[r:]
                yield band | lo[r:]
        elif len(lo) and len(hi):
            yield lo[:, None] & hi
            yield lo[:, None] | hi


def _check_caps(n: int, max_size: int) -> None:
    if not 1 <= n <= INPUT_CAP:
        raise CapExceeded(f"census supports 1 <= n <= {INPUT_CAP}, got {n}")
    if max_size > SIZE_CAP:
        raise CapExceeded(f"census caps at {SIZE_CAP} gates, got {max_size}")


def build_census(n: int, max_size: int) -> CircuitCensus:
    """Breadth-first closure census: every table's minimum size and how many
    tables take each size, nothing else.

    Level ``s`` marks every candidate of :func:`_cells` (NOT of the previous
    level, AND and OR of every size split), and the marked tables no earlier
    level reached take size ``s``; their number is size ``s``'s count.  No
    witness is found here, as no caller reads one.  Once every table is
    reached the closure stops, as every later level would be empty (``n = 1``
    at 1 gate, ``n = 2`` at 4), and each size past it counts 0.
    """
    _check_caps(n, max_size)
    import numpy as np  # only a cold build pays for numpy; warm paths read bytes

    tables = 1 << (1 << n)
    sizes = np.full(tables, UNREACHED, dtype=np.uint8)
    sizes[[0, tables - 1, *machine.projection_masks(n)]] = 0
    # sorted intp masks, which index the tables with no conversion per lookup
    by_size = [np.flatnonzero(sizes == 0)]
    todo = tables - len(by_size[0])
    for s in range(1, max_size + 1):
        if todo == 0:
            break
        hit = np.zeros(tables, dtype=bool)
        for grid in _cells(by_size, s, tables - 1):
            hit[grid] = True
        by_size.append(np.flatnonzero(hit & (sizes == UNREACHED)))
        sizes[by_size[s]] = s
        todo -= len(by_size[s])
    counts = (tuple(map(len, by_size)) + (0,) * max_size)[: max_size + 1]
    return CircuitCensus(n, max_size, sizes.tobytes(), counts)


def _check_census(census: CircuitCensus, n: int, s: int) -> None:
    """Refuse a census of another ``n``, or one that stops below size ``s``."""
    if census.n != n or s > census.max_size:
        raise CensusUnavailable(
            f"need a census for n={n} up to size {s}, "
            f"have n={census.n} up to {census.max_size}"
        )


def mcsp(tt: TruthTable, s: int, census: CircuitCensus) -> bool:
    """Accept iff some circuit of at most ``s`` gates computes the table."""
    _check_census(census, tt.n, s)
    size = census.min_size(tt)
    return size is not None and size <= s


def mcsp_cover(n: int, s: int, census: CircuitCensus) -> Cover:
    """Cover of length ``2**(n+1) - 1`` characteristic prefixes whose top
    length has a circuit of at most ``s`` gates.

    Membership depends only on the trailing ``2**n`` truth-table bits, so
    extension counts factorize: free prefix bits contribute a power of two
    and the table bits a census count, and no enumeration over the
    ``2**(2**(n+1)-1)`` strings ever happens.  The count at ``w`` is a SpanP
    function: the distinct extensions ``y`` whose trailing truth table has a
    circuit witness of at most ``s`` gates.
    """
    _check_census(census, n, s)
    level = (1 << (n + 1)) - 1
    table_start = (1 << n) - 1  # strings of length n begin at this index
    tables = census.count_at_most(s)

    def count(w: BitString) -> int:
        if len(w) <= table_start:  # every table, under each free prefix bit
            return tables << (table_start - len(w))
        # the tables whose low k rows are w's k table bits v: masks v + j 2**k
        k = len(w) - table_start
        return _at_most(census.sizes[mirror(w.to_int() & ((1 << k) - 1), k) :: 1 << k], s)

    return Cover(level, count, f"mcsp(n={n},s={s})")


def mcsp_witness_relation(n: int, s: int) -> WitnessRelation:
    """Witness-cube form of the circuit-size decision.

    A witness packs, most significant bit first, an op-count header, that
    many ops as the machine's table term writes them, and zero padding, so
    each small stack program is exactly one witness, read and written by
    ``machine`` alone.  The input is the ``2**n``-bit truth table itself,
    and a witness's image is the index of the table its program computes.
    A sweep asks only the programs within the size bound, a small part of
    the cube.  Only tiny (n, s) fit under the witness cap; the relation
    exists to cross-check the census, not to replace it.
    """
    max_ops = 2 * s + 1
    header_bits = max(1, max_ops.bit_length())
    # the longest program within s gates: s + 1 pushes joined by s binary gates
    body = machine.write_ops(n, [("CONST", 0)] * (s + 1) + [("AND",)] * s)[1]

    def image(rows: int, y: int) -> int | None:
        if rows != 1 << n:
            raise ValueError(f"input must be a {1 << n}-bit table")
        ops, used = machine.read_ops(n, y >> body, y, body)
        if ops is None or y & ((1 << body - used) - 1):  # padding is zero
            return None
        # a gate names no operand; past 2s + 1 ops, a program has more gates
        if sum(len(op) == 1 for op in ops) > s:
            return None
        # the input's first bit is row 0, the mask's lowest
        return mirror(machine.table_mask(n, ops), rows)

    def well_formed(_: int):
        """Every program of ``1..max_ops`` ops with at most ``s`` gates,
        under its header and zero padded, in increasing order: each other
        witness has no image."""
        for k in range(1, max_ops + 1):
            for ops in machine.stack_programs(n, k, body, s):
                bits, length = machine.write_ops(n, ops)
                yield (k << length | bits) << body - length

    return WitnessRelation.from_image(
        f"mcsp-witness(n={n},s={s})", lambda _: header_bits + body, image, well_formed
    )


# -- the covering report -------------------------------------------------

# log2 brackets start on the 2**-g grid at g = 16, which decides every report
# for n <= 4 and alpha = k/16, -8 <= alpha <= 4, in one round; g doubles up
# to this cap
_BRACKET_BITS = 16
_BRACKET_CAP = 1 << 12


@dataclass(frozen=True)
class MnpCoverReport:
    n: int
    alpha: Dyadic
    size_bound_floor: int
    census_count: int
    prefix_length: int
    cover_count: int  # exact |A at the prefix length| = 2**(N - 2**n) * census_count
    log2_count_below_gap: bool  # log2 |A| < N - f(N)
    analytic_bound_holds: bool  # census_count <= (48 e s)^s
    f_value: str  # f(N) rendered for the report


def _refine(decide: Callable[[int], bool | int | None], what: str):
    """``decide(g)`` on ``2**-g`` log2 brackets for ``g = 16, 32, ...`` up to
    the precision cap; ``None`` means the brackets were too wide to tell."""
    g = _BRACKET_BITS
    while g <= _BRACKET_CAP:
        verdict = decide(g)
        if verdict is not None:
            return verdict
        g *= 2
    raise IndeterminateComparison(
        f"{what}: undecided at the 2**-{_BRACKET_CAP} precision cap"
    )


def _log2_bracket(m: int, g: int) -> tuple[int, int]:
    """Grid numerators ``(lo, hi)`` with ``lo / 2**g <= log2(m) <= hi / 2**g``
    for an integer ``m >= 1``: the grid floor and one grid step above it, a
    point when ``m`` is a power of two."""
    if m & (m - 1) == 0:
        k = m.bit_length() - 1 << g
        return k, k
    low = grid_floor_log2_ratio(m, 1, g)
    lo = low.num << g - low.log_den
    return lo, lo + 1


def _size_bracket(n: int, alpha: Dyadic, g: int) -> tuple[int, int, int]:
    """``(lo, hi, den)`` with ``lo / den <= s <= hi / den`` for ``s = (2**n /
    n) (1 + alpha log2(n) / n)``, from the bracket on ``log2(n)``; ``den =
    n**2 2**(k + g)`` for ``alpha = a / 2**k``.  A point when ``s`` is
    rational."""
    k = alpha.log_den
    base = n << n + k + g  # 2**n / n over den
    ends = [base + (alpha.num * log << n) for log in _log2_bracket(n, g)]
    return min(ends), max(ends), n * n << k + g


def lutz_size_bound_floor(n: int, alpha: Dyadic) -> int:
    """Exact floor of ``s = (2**n / n) * (1 + alpha * log2(n) / n)``.

    ``s`` is rational when ``n`` is a power of two or ``alpha = 0``, and its
    bracket is then a point; otherwise ``s`` is irrational, so some bracket
    holds no integer and both of its ends share the floor.
    """
    if n < 2:
        raise DegenerateParameter("size bound needs n >= 2")

    def floor(g: int) -> int | None:
        lo, hi, den = _size_bracket(n, alpha, g)
        return lo // den if lo // den == hi // den else None

    return _refine(floor, "size bound floor")


def _e_bounds(terms: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Lower and upper bounds on e as ``(num, den)`` pairs: the factorial
    series to ``terms`` terms, and that sum plus ``2 / terms!``, which exceeds
    the tail."""
    num, fact = 1, 1  # num / fact = sum of 1/k! for k < terms, fact = (terms-1)!
    for k in range(1, terms):
        num = num * k + 1
        fact *= k
    return (num, fact), (num * terms + 2, fact * terms)


def _analytic_bound(count: int, n: int, alpha: Dyadic) -> bool:
    """Exact verdict of ``count <= (48 e s)**s`` for ``count >= 1`` and
    ``s >= 0``: brackets on ``log2(count)`` and ``s * log2(48 e s)`` are
    refined until they separate.  At ``s = 0`` the bound reads ``0**0 = 1``.
    """

    def holds(g: int) -> bool | None:
        s_lo, s_hi, den = _size_bracket(n, alpha, g)
        if s_lo == s_hi == 0:
            return count <= 1
        if s_lo <= 0:
            return None
        # (g/2 + 4)! > 2**g: e is as tight as the logs
        (e_lo, f_lo), (e_hi, f_hi) = _e_bounds(g // 2 + 4)
        # log2(48 e s) within [log_lo, log_hi] / 2**g, from its ends' numerators
        # and denominators
        log_lo = _log2_bracket(48 * e_lo * s_lo, g)[0] - _log2_bracket(f_lo * den, g)[1]
        log_hi = _log2_bracket(48 * e_hi * s_hi, g)[1] - _log2_bracket(f_hi * den, g)[0]
        # s log2(48 e s) and log2(count), both over den 2**g
        rhs = [s * log for s in (s_lo, s_hi) for log in (log_lo, log_hi)]
        lhs_lo, lhs_hi = _log2_bracket(count, g)
        if lhs_hi * den <= min(rhs):
            return True
        if lhs_lo * den > max(rhs):
            return False
        return None

    return _refine(holds, f"{count} <= (48 e s)**s")


def _ratio_text(num: int, den: int) -> str:
    """``num / den`` for ``den > 0`` in lowest terms, ``p`` or ``p/q``."""
    d = gcd(num, den)
    return str(num // d) if d == den else f"{num // d}/{den // d}"


def _log2_below(count: int, n: int, q: int, t: int, den: int) -> bool:
    """Exact verdict of ``log2(count) + (q / den) log2(n) < t / den`` for
    ``count >= 1`` and ``den > 0``, from the brackets on ``log2(count)`` and
    ``log2(n)``.  For ``n <= 4`` and ``count <= 2**(2**n)``, equality needs
    both terms rational; their brackets are then points, so the refinement
    ends.
    """

    def below(g: int) -> bool | None:
        c_lo, c_hi = _log2_bracket(count, g)
        ends = [q * end for end in _log2_bracket(n, g)]
        # both sides over den 2**g
        if c_hi * den + max(ends) < t << g:
            return True
        if c_lo * den + min(ends) >= t << g:
            return False
        return None

    what = f"log2({count}) + {_ratio_text(q, den)} log2({n}) < {_ratio_text(t, den)}"
    return _refine(below, what)


def mnp_size_bound_floor(n: int, alpha: Dyadic, max_size: int) -> int:
    """The size bound floor the covering report counts to, once the
    refusals that depend only on the arguments pass: a census ``(n,
    max_size)`` past the caps, ``n = 1``, and a floor past ``max_size``."""
    _check_caps(n, max_size)
    if n < 2:
        raise DegenerateParameter(
            "n = 1 degenerates (log2(1) = 0 divides the formulas)"
        )
    s_floor = lutz_size_bound_floor(n, alpha)
    if s_floor > max_size:
        raise CensusUnavailable(
            f"size bound floor {s_floor} beyond census max {max_size}"
        )
    return s_floor


def mnp_cover_check(
    n: int, alpha: Dyadic, census: CircuitCensus
) -> MnpCoverReport:
    """Exact audit of the circuit-cover counting inequalities at one length.

    Reports (i) the exact cover count at prefix length ``2**(n+1) - 1``,
    (ii) whether ``log2`` of that count undershoots the length by more than
    the capital-gap function ``(1 - alpha/2) (2**n / n) log2(n)``, and
    (iii) whether the analytic circuit-count bound ``(48 e s)**s`` holds for
    this basis at this ``n``.  The two verdicts are independent; neither is
    inferred from the other.
    """
    s_floor = mnp_size_bound_floor(n, alpha, census.max_size)
    _check_census(census, n, s_floor)
    count = census.count_at_most(s_floor)
    rows = 1 << n
    N = (1 << (n + 1)) - 1
    cover_count = (1 << (N - rows)) * count

    # condition (ii): log2(cover_count) < N - f(N), i.e. log2(count) < 2**n - f(N)
    # f(N) = (1 - alpha/2) * (2**n / n) * log2(n) = (R + Q * log2(n)) / den,
    # with alpha = a / 2**k and (1 - alpha/2) (2**n / n) = coeff / den
    den = n << alpha.log_den + 1
    coeff = ((1 << alpha.log_den + 1) - alpha.num) << n
    if n & (n - 1) == 0:
        R, Q = coeff * (n.bit_length() - 1), 0
        f_text = _ratio_text(R, den)
    else:
        R, Q = 0, coeff
        f_text = f"{_ratio_text(coeff, den)}*log2({n})"
    # an empty cover has log2 = -inf, trivially below
    gap_ok = count == 0 or _log2_below(count, n, Q, rows * den - R, den)

    # condition (iii): census_count <= (48 e s)**s
    analytic = count == 0 or _analytic_bound(count, n, alpha)

    return MnpCoverReport(
        n=n,
        alpha=alpha,
        size_bound_floor=s_floor,
        census_count=count,
        prefix_length=N,
        cover_count=cover_count,
        log2_count_below_gap=gap_ok,
        analytic_bound_holds=analytic,
        f_value=f_text,
    )


# -- cache payload -------------------------------------------------------


def save_census(census: CircuitCensus) -> bytes:
    """The census payload; ``martlab.cache`` stores it under its key.

    The ``T = 2**(2**n)`` size bytes, indexed by mask, then a trailer of the
    ``max_size + 1`` per-size counts as little-endian u32s: no command reads
    a witness circuit, so none is stored.
    """
    return census.sizes + struct.pack(f"<{len(census.counts)}I", *census.counts)


def load_census(payload: bytes, n: int, max_size: int) -> CircuitCensus:
    """Decode a :func:`save_census` payload for the census it was keyed by."""
    tables, trailer = 1 << (1 << n), 4 * (max_size + 1)
    if len(payload) != tables + trailer:
        raise CensusUnavailable(
            f"census payload holds {len(payload)} bytes, n={n} up to size "
            f"{max_size} needs {tables} size bytes and a {trailer}-byte trailer"
        )
    counts = struct.unpack_from(f"<{max_size + 1}I", payload, tables)
    return CircuitCensus(n, max_size, bytes(payload[:tables]), counts)


def cached_census(n: int, max_size: int, cache_dir: Path | str | None) -> CircuitCensus:
    """Build or reload the census keyed by (n, basis, max_size)."""
    return cache.fetch(
        cache_dir,
        f"census_n{n}_s{max_size}_{DEFAULT_BASIS}.bin",
        lambda: build_census(n, max_size),
        save_census,
        lambda payload: load_census(payload, n, max_size),
    )
