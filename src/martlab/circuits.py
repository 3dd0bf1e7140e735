"""Exhaustive Boolean circuit enumeration and the census it produces.

Truth tables over ``n <= 4`` inputs are bit masks (row ``j`` sets variable
``i`` to ``(j >> i) & 1``).  The census maps every reachable table to its
minimum gate count over the fixed basis (fan-in-2 AND/OR, fan-in-1 NOT;
inputs and constants are free), built by breadth-first closure: seed with
projections and constants, then combine everything already reached through
one more gate.  Combining two minimal subcircuits counts both operand
trees, so census sizes are minima over tree-shaped circuits; an independent
state-space enumeration over circuit DAGs (which can share gates) serves as
the oracle at ``n = 2``, where the two notions provably coincide.

On top of the census sit the minimum-circuit-size decision, the covering
check for characteristic prefixes whose top length has a small circuit, and
the translation of census witnesses into stack programs for the toy machine.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, log2 as _float_log2
from pathlib import Path

import numpy as np

from .cantor import BitString
from .constructions import Cover
from .dyadic import Dyadic
from .errors import (
    CapExceeded,
    CensusUnavailable,
    DegenerateParameter,
    IndeterminateComparison,
)
from .machine import encode_table
from .oracle import WitnessRelation

__all__ = [
    "TruthTable",
    "Circuit",
    "CircuitCensus",
    "DEFAULT_BASIS",
    "SIZE_CAP",
    "build_census",
    "dag_minimum_sizes",
    "mcsp",
    "circuit_for",
    "encode_circuit",
    "mcsp_cover",
    "mcsp_witness_relation",
    "mnp_cover_check",
    "MnpCoverReport",
    "save_census",
    "load_census",
    "cached_census",
    "lutz_size_bound_floor",
]

DEFAULT_BASIS = "and-or-not"
SIZE_CAP = 8
INPUT_CAP = 4


@dataclass(frozen=True)
class TruthTable:
    """A complete function table over ``n`` inputs, packed into a mask."""

    n: int
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << (1 << self.n)):
            raise ValueError(f"mask {self.mask} too wide for n={self.n}")

    @classmethod
    def from_bits(cls, bits: BitString | str) -> "TruthTable":
        text = bits.bits() if isinstance(bits, BitString) else bits
        rows = len(text)
        n = rows.bit_length() - 1
        if rows != 1 << n:
            raise ValueError(f"table length {rows} is not a power of two")
        mask = 0
        for j, c in enumerate(text):
            if c == "1":
                mask |= 1 << j
        return cls(n, mask)

    def to_bits(self) -> BitString:
        return BitString(
            "".join("1" if (self.mask >> j) & 1 else "0" for j in range(1 << self.n))
        )

    def __str__(self) -> str:
        return str(self.to_bits())


@dataclass(frozen=True)
class Circuit:
    """A postfix stack program over the basis; size counts gate ops only."""

    n: int
    ops: tuple

    def size(self) -> int:
        return sum(1 for op in self.ops if op[0] in ("NOT", "AND", "OR"))

    def table(self) -> TruthTable:
        full = (1 << (1 << self.n)) - 1
        var_masks = _projection_masks(self.n)
        stack: list[int] = []
        for op in self.ops:
            kind = op[0]
            if kind == "VAR":
                stack.append(var_masks[op[1]])
            elif kind == "CONST":
                stack.append(full if op[1] else 0)
            elif kind == "NOT":
                stack.append(full & ~stack.pop())
            elif kind == "AND":
                stack.append(stack.pop() & stack.pop())
            elif kind == "OR":
                stack.append(stack.pop() | stack.pop())
            else:
                raise ValueError(f"unknown op {op!r}")
        if len(stack) != 1:
            raise ValueError("stack program does not leave one value")
        return TruthTable(self.n, stack[0])


def _projection_masks(n: int) -> list[int]:
    masks = []
    for i in range(n):
        mask = 0
        for j in range(1 << n):
            if (j >> i) & 1:
                mask |= 1 << j
        masks.append(mask)
    return masks


@dataclass(frozen=True)
class CircuitCensus:
    """Minimum gate counts for every table reachable within ``max_size``."""

    n: int
    basis: str
    max_size: int
    sizes: dict  # mask -> minimum size
    witness: dict  # mask -> ("VAR", i) | ("CONST", b) | ("NOT", a) | ("AND", a, b) | ("OR", a, b)

    def min_size(self, tt: TruthTable) -> int | None:
        if tt.n != self.n:
            raise ValueError(f"table has {tt.n} inputs, census has {self.n}")
        return self.sizes.get(tt.mask)

    def count_at_most(self, s: int) -> int:
        if s > self.max_size:
            raise CensusUnavailable(
                f"census caps at size {self.max_size}, asked for {s}"
            )
        return sum(1 for size in self.sizes.values() if size <= s)

    def histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for size in self.sizes.values():
            hist[size] = hist.get(size, 0) + 1
        return dict(sorted(hist.items()))


def build_census(
    n: int, max_size: int, basis: str = DEFAULT_BASIS
) -> CircuitCensus:
    """Breadth-first closure census; deterministic first-reached sizes."""
    if basis != DEFAULT_BASIS:
        raise ValueError(f"unsupported basis {basis!r}")
    if not 1 <= n <= INPUT_CAP:
        raise CapExceeded(f"census supports 1 <= n <= {INPUT_CAP}, got {n}")
    if max_size > SIZE_CAP:
        raise CapExceeded(f"census caps at {SIZE_CAP} gates, got {max_size}")

    full = (1 << (1 << n)) - 1
    sizes: dict[int, int] = {}
    witness: dict[int, tuple] = {}
    by_size: list[np.ndarray] = []

    seeds: list[tuple[int, tuple]] = [(0, ("CONST", 0)), (full, ("CONST", 1))]
    seeds += [(m, ("VAR", i)) for i, m in enumerate(_projection_masks(n))]
    level0 = []
    for mask, how in seeds:
        if mask not in sizes:
            sizes[mask] = 0
            witness[mask] = how
            level0.append(mask)
    by_size.append(np.array(sorted(level0), dtype=np.uint32))

    for s in range(1, max_size + 1):
        found: dict[int, tuple] = {}

        def consider(mask: int, how: tuple) -> None:
            if mask not in sizes and mask not in found:
                found[mask] = how

        prev = by_size[s - 1]
        for a in prev.tolist():
            consider(full & ~a, ("NOT", a))
        for i in range(s):
            j = s - 1 - i
            if j < i:
                break
            left, right = by_size[i], by_size[j]
            if len(left) == 0 or len(right) == 0:
                continue
            for op_name, ufunc in (("AND", np.bitwise_and), ("OR", np.bitwise_or)):
                grid = ufunc.outer(left, right)
                flat = grid.ravel()
                uniq, first = np.unique(flat, return_index=True)
                for mask, idx in zip(uniq.tolist(), first.tolist()):
                    if mask in sizes or mask in found:
                        continue
                    r, c = divmod(idx, len(right))
                    consider(mask, (op_name, int(left[r]), int(right[c])))
        new_masks = sorted(found)
        for mask in new_masks:
            sizes[mask] = s
            witness[mask] = found[mask]
        by_size.append(np.array(new_masks, dtype=np.uint32))

    return CircuitCensus(n, basis, max_size, sizes, witness)


def dag_minimum_sizes(n: int, max_size: int) -> dict[int, int]:
    """Independent oracle: breadth-first search over sets of computed tables.

    A state is the set of tables some circuit DAG has computed; each step
    applies one more gate to anything already computed, so the first level a
    table appears at is its true minimum circuit (not formula) size.
    """
    if n > 2:
        raise CapExceeded("the DAG oracle is meant for n <= 2")
    full = (1 << (1 << n)) - 1
    base = tuple(sorted({0, full, *(_projection_masks(n))}))
    minima = {m: 0 for m in base}
    states = {base}
    for s in range(1, max_size + 1):
        next_states = set()
        for state in states:
            values = state
            candidates = set()
            for a in values:
                candidates.add(full & ~a)
            for ai in range(len(values)):
                for bi in range(ai, len(values)):
                    candidates.add(values[ai] & values[bi])
                    candidates.add(values[ai] | values[bi])
            for mask in candidates:
                if mask in state:
                    continue
                if mask not in minima:
                    minima[mask] = s
                next_states.add(tuple(sorted(set(state) | {mask})))
        states = next_states
        if not states:
            break
    return minima


def mcsp(tt: TruthTable, s: int, census: CircuitCensus) -> bool:
    """Accept iff some circuit of at most ``s`` gates computes the table."""
    if census.n != tt.n:
        raise CensusUnavailable(
            f"census covers n={census.n}, table has n={tt.n}"
        )
    if s > census.max_size:
        raise CensusUnavailable(
            f"census covers sizes up to {census.max_size}, asked {s}"
        )
    size = census.min_size(tt)
    return size is not None and size <= s


def circuit_for(census: CircuitCensus, tt: TruthTable) -> Circuit:
    """Reconstruct the census's first-reached circuit as a stack program."""
    if census.min_size(tt) is None:
        raise CensusUnavailable(f"table {tt} not reached within the census")

    def expand(mask: int) -> tuple:
        how = census.witness[mask]
        if how[0] in ("VAR", "CONST"):
            return (how,)
        if how[0] == "NOT":
            return expand(how[1]) + (("NOT",),)
        return expand(how[1]) + expand(how[2]) + ((how[0],),)

    return Circuit(census.n, expand(tt.mask))


def encode_circuit(circuit: Circuit) -> BitString:
    """A toy-machine program printing the circuit's truth table."""
    return encode_table(circuit.n, circuit.ops)


def measured_encoding_constant(census: CircuitCensus) -> int:
    """Smallest ``c0`` making every census circuit's encoding fit
    ``(size+1) * (c0 + ceil(log2(n + size)))`` bits."""
    c0 = 0
    n = census.n
    for mask in census.sizes:
        circuit = circuit_for(census, TruthTable(n, mask))
        s = circuit.size()
        width = (n + s - 1).bit_length() if n + s > 1 else 0  # ceil(log2(n+s))
        length = len(encode_circuit(circuit))
        needed = -(-length // (s + 1)) - width  # ceil division
        c0 = max(c0, needed)
    return c0


def mcsp_cover(
    n: int, s: int, census: CircuitCensus, class_tag: str = "SpanP"
) -> Cover:
    """Cover of length ``2**(n+1) - 1`` characteristic prefixes whose top
    length has a circuit of at most ``s`` gates.

    Membership depends only on the trailing ``2**n`` truth-table bits, so
    extension counts factorize: free prefix bits contribute a power of two
    and the table bits a census count, and no enumeration over the
    ``2**(2**(n+1)-1)`` strings ever happens.
    """
    if census.n != n or s > census.max_size:
        raise CensusUnavailable(
            f"need a census for n={n} up to size {s}, "
            f"have n={census.n} up to {census.max_size}"
        )
    rows = 1 << n
    level = (1 << (n + 1)) - 1
    table_start = rows - 1  # strings of length n begin at this index
    qualifying = frozenset(
        mask for mask, size in census.sizes.items() if size <= s
    )

    def contains(x: BitString) -> bool:
        tt = TruthTable.from_bits(x[table_start:])
        return tt.mask in qualifying

    # per-prefix counts over table masks, grouped by how many table bits are fixed
    @lru_cache(maxsize=None)
    def count_with_fixed(fixed_bits: str) -> int:
        k = len(fixed_bits)
        prefix_val = int(fixed_bits[::-1], 2) if k else 0
        low_mask = (1 << k) - 1
        return sum(
            1 for mask in qualifying if (mask & low_mask) == prefix_val
        )

    def ext_count(w: BitString) -> int:
        free_prefix = max(0, table_start - len(w))
        fixed_table = w[table_start:].bits() if len(w) > table_start else ""
        return (1 << free_prefix) * count_with_fixed(fixed_table)

    return Cover(
        level=level,
        contains=contains,
        ext_count=ext_count,
        class_tag=class_tag,
        name=f"mcsp(n={n},s={s})",
    )


def mcsp_witness_relation(n: int, s: int) -> WitnessRelation:
    """Witness-cube form of the circuit-size decision.

    A witness packs an op-count header, that many 2-bit opcodes, one ref
    per push opcode, and mandatory zero padding, so each small stack
    program is exactly one witness.  The input is the ``2**n``-bit truth
    table itself.  Only tiny (n, s) fit under the witness cap; the relation
    exists to cross-check the census, not to replace it.
    """
    max_ops = 2 * s + 1
    max_push = s + 1
    header_bits = max(1, max_ops.bit_length())
    ref_width = max(1, (n + 1).bit_length())
    total = header_bits + 2 * max_ops + ref_width * max_push
    var_masks = _projection_masks(n)
    full = (1 << (1 << n)) - 1

    def verify(x: BitString, y: BitString) -> bool:
        if len(x) != 1 << n:
            raise ValueError(f"input must be a {1 << n}-bit table")
        bits = y.bits()
        k = int(bits[:header_bits], 2)
        if not 1 <= k <= max_ops:
            return False
        codes = [
            bits[header_bits + 2 * i : header_bits + 2 * i + 2]
            for i in range(k)
        ]
        pushes = sum(1 for c in codes if c == "00")
        if pushes > max_push:
            return False
        refs_at = header_bits + 2 * k
        refs = [
            int(bits[refs_at + ref_width * i : refs_at + ref_width * (i + 1)], 2)
            for i in range(pushes)
        ]
        if "1" in bits[refs_at + ref_width * pushes :]:
            return False
        stack: list[int] = []
        gates = 0
        next_ref = 0
        for code in codes:
            if code == "00":
                ref = refs[next_ref]
                next_ref += 1
                if ref >= n + 2:
                    return False
                stack.append(
                    var_masks[ref] if ref < n else (full if ref == n + 1 else 0)
                )
                continue
            gates += 1
            if code == "01":
                if not stack:
                    return False
                stack.append(full & ~stack.pop())
            else:
                if len(stack) < 2:
                    return False
                a, b = stack.pop(), stack.pop()
                stack.append(a & b if code == "10" else a | b)
        if len(stack) != 1 or gates > s:
            return False
        return stack[0] == TruthTable.from_bits(x).mask

    return WitnessRelation(
        name=f"mcsp-witness(n={n},s={s})",
        witness_length=lambda _: total,
        verify=verify,
        emit=lambda x, y: y,
    )


# -- the covering report -------------------------------------------------


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


def _floor_linear_log2_3(a: Fraction, b: Fraction) -> int:
    """Exact floor of ``a + b * log2(3)`` for rationals ``a, b >= 0``."""
    # k <= a + b log2 3  iff  3**(b.den-scaled) ... reduce to integer powers
    def at_least(k: int) -> bool:
        # a + b*log2(3) >= k  iff  b*log2(3) >= k - a
        rhs = k - a
        if b == 0:
            return rhs <= 0
        # log2(3) >= rhs / b  iff  3**den >= 2**num  (for rhs/b = num/den, den>0)
        q = rhs / b
        num, den = q.numerator, q.denominator
        if num <= 0:
            return True
        return 3**den >= 2**num

    k = int(a) + int(2 * b) + 2
    while not at_least(k):
        k -= 1
    return k


def lutz_size_bound_floor(n: int, alpha: Dyadic) -> int:
    """Exact floor of ``(2**n / n) * (1 + alpha * log2(n) / n)``."""
    if n < 2:
        raise DegenerateParameter("size bound needs n >= 2")
    alpha_frac = Fraction(alpha.num, 1 << alpha.log_den)
    base = Fraction(1 << n, n)
    if n == 3:
        return _floor_linear_log2_3(base, base * alpha_frac / 3)
    log2_n = n.bit_length() - 1  # exact for n in {2, 4}
    return int(base * (1 + alpha_frac * log2_n / n))


def _e_bounds(terms: int) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on e from its factorial series."""
    total = Fraction(0)
    fact = 1
    for k in range(terms):
        if k:
            fact *= k
        total += Fraction(1, fact)
    return total, total + Fraction(2, fact * terms)


def _analytic_bound_rational(count: int, s: Fraction) -> bool:
    """Exact verdict of ``count <= (48 e s)**s`` for rational ``s > 0``."""
    p, q = s.numerator, s.denominator
    lhs = count**q
    for terms in (12, 20, 30, 45):
        e_lo, e_hi = _e_bounds(terms)
        low = (48 * e_lo * s) ** p
        high = (48 * e_hi * s) ** p
        if Fraction(lhs) <= low:
            return True
        if Fraction(lhs) > high:
            return False
    raise IndeterminateComparison(
        f"count**{q} = {lhs} sits inside the e-interval bound"
    )


def _analytic_bound_guarded_float(count: int, n: int, alpha: Dyadic) -> bool:
    """Float verdict with a relative margin guard (irrational exponent case)."""
    import math

    alpha_f = alpha.to_float()
    s = (2**n / n) * (1 + alpha_f * _float_log2(n) / n)
    lhs = _float_log2(count) if count else float("-inf")
    rhs = s * (_float_log2(48 * math.e) + _float_log2(s))
    margin = 1e-9 * max(1.0, abs(lhs), abs(rhs))
    if abs(lhs - rhs) < margin:
        raise IndeterminateComparison(
            f"log2 comparison within float margin: {lhs} vs {rhs}"
        )
    return lhs <= rhs


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
    if n < 2:
        raise DegenerateParameter(
            "n = 1 degenerates (log2(1) = 0 divides the formulas)"
        )
    if not 2 <= n <= INPUT_CAP:
        raise CapExceeded(f"supported n: 2..{INPUT_CAP}")
    s_floor = lutz_size_bound_floor(n, alpha)
    if s_floor > census.max_size:
        raise CensusUnavailable(
            f"size bound floor {s_floor} beyond census max {census.max_size}"
        )
    count = census.count_at_most(s_floor)
    rows = 1 << n
    N = (1 << (n + 1)) - 1
    cover_count = (1 << (N - rows)) * count

    # condition (ii): log2(cover_count) < N - f(N), i.e. log2(count) < 2**n - f(N)
    # f(N) = (1 - alpha/2) * (2**n / n) * log2(n) = R + Q * log2(3)
    alpha_frac = Fraction(alpha.num, 1 << alpha.log_den)
    coeff = (1 - alpha_frac / 2) * Fraction(rows, n)
    if n == 3:
        R, Q = Fraction(0), coeff
        f_text = f"{coeff}*log2(3)"
    else:
        log2_n = n.bit_length() - 1
        R, Q = coeff * log2_n, Fraction(0)
        f_text = str(R)
    # log2(count) + Q log2(3) < 2**n - R, cleared to integer powers
    target = Fraction(rows) - R
    d = target.denominator
    if Q:
        d = d * Q.denominator // gcd(d, Q.denominator)
    rhs_exp = int(target * d)
    if count == 0:
        gap_ok = True  # empty cover: log2 is -inf, trivially below
    elif rhs_exp <= 0:
        gap_ok = False
    else:
        gap_ok = count**d * 3 ** int(Q * d) < (1 << rhs_exp)

    # condition (iii): census_count <= (48 e s)**s
    if n == 3 and not alpha.is_zero():
        analytic = _analytic_bound_guarded_float(count, n, alpha)
    else:
        if n == 3:
            s_exact = Fraction(rows, n)
        else:
            log2_n = n.bit_length() - 1
            s_exact = Fraction(rows, n) * (1 + alpha_frac * log2_n / n)
        analytic = count == 0 or _analytic_bound_rational(count, s_exact)

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


# -- cache persistence ---------------------------------------------------

_MAGIC = b"MLC1"
_WKIND = {"VAR": 0, "CONST": 1, "NOT": 2, "AND": 3, "OR": 4}
_WKIND_BACK = {v: k for k, v in _WKIND.items()}


def save_census(census: CircuitCensus, path: Path | str) -> None:
    """Binary layout: magic, u8 n, u8 max_size, u16+utf8 basis, u32 count,
    then per table (u32 mask, u8 size, u8 kind, u32 a, u32 b) sorted by mask."""
    path = Path(path)
    basis = census.basis.encode()
    blob = [
        _MAGIC,
        struct.pack("<BBH", census.n, census.max_size, len(basis)),
        basis,
        struct.pack("<I", len(census.sizes)),
    ]
    for mask in sorted(census.sizes):
        how = census.witness[mask]
        kind = _WKIND[how[0]]
        a = how[1] if len(how) > 1 else 0
        b = how[2] if len(how) > 2 else 0
        blob.append(
            struct.pack("<IBBII", mask, census.sizes[mask], kind, a, b)
        )
    path.write_bytes(b"".join(blob))


def load_census(path: Path | str) -> CircuitCensus:
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise ValueError(f"{path}: not a census cache")
    n, max_size, basis_len = struct.unpack_from("<BBH", data, 4)
    offset = 8
    basis = data[offset : offset + basis_len].decode()
    offset += basis_len
    (count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    sizes: dict[int, int] = {}
    witness: dict[int, tuple] = {}
    for _ in range(count):
        mask, size, kind, a, b = struct.unpack_from("<IBBII", data, offset)
        offset += 14
        sizes[mask] = size
        name = _WKIND_BACK[kind]
        witness[mask] = (name, a, b) if name in ("AND", "OR") else (
            (name, a) if name in ("VAR", "CONST", "NOT") else (name,)
        )
    return CircuitCensus(n, basis, max_size, sizes, witness)


def cached_census(
    n: int,
    max_size: int,
    cache_dir: Path | str | None,
    basis: str = DEFAULT_BASIS,
) -> CircuitCensus:
    """Build or reload the census keyed by (n, basis, max_size)."""
    if cache_dir is None:
        return build_census(n, max_size, basis)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"census_n{n}_s{max_size}_{basis}.bin"
    if path.exists():
        census = load_census(path)
        if (census.n, census.max_size, census.basis) == (n, max_size, basis):
            return census
    census = build_census(n, max_size, basis)
    save_census(census, path)
    return census
