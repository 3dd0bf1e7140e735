"""Time-bounded description complexity on the toy machine, by term length.

``kt(x, t)`` is the length of the shortest program printing ``x`` within
``t(|x|)`` steps, over every program of length at most ``|x| + C_LIT`` (the
literal-print bound caps the useful search space).  Programs are
self-delimiting terms whose output and step count build up from their
subterms, so one dynamic program over term length replaces running every bit
string: ``D[l]`` counts the terms of exactly ``l`` bits by (output, steps).
Leaves (literal, run, table, the last from ``machine.stack_programs``) run
on the machine itself, the only definition of their semantics; repeat and
pair terms combine shorter entries.
Programs and outputs are held as codes (a string's index plus one), not text.
Outputs longer than the cap and steps above the run budget are pruned, which
is sound because both only grow under composition.  One pass fills the table
for every string up to the length cap at once, and tables persist through
``martlab.cache`` keyed by machine version, budget and length cap.

The same term counts yield the compressible-string covering martingale:
count the (string, program) pairs with the program shorter than the declared
capital gap, and bet the conditional expectation of that count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import cache
from .cantor import BitString, all_strings, index_of
from .constructions import condexp_martingale
from .errors import CapExceeded, MartlabError
from .machine import (
    BudgetPoly,
    C_LIT,
    MACHINE_VERSION,
    encode_literal,
    encode_run,
    encode_table,
    gamma_length,
    repeated,
    run,
    run_code,
    stack_programs,
)
from .martingale import LEVEL_CAP, Martingale
from .oracle import WitnessRelation

__all__ = [
    "DEFAULT_LENGTH_CAP",
    "KtTable",
    "NO_PROGRAM",
    "KRateReport",
    "build_kt_table",
    "cached_kt_table",
    "save_kt_table",
    "load_kt_table",
    "short_program_counts",
    "kt_cover_martingale",
    "k_rate",
    "kolmogorov_witness_relation",
]

DEFAULT_LENGTH_CAP = 14
NO_PROGRAM = 255  # the kt byte of a string no program within the cap prints


@dataclass(frozen=True)
class KtTable:
    """Exhaustive ``kt`` values for every string up to ``length_cap``.

    Dense and indexed by the length-lexicographic enumeration: ``kts[i]`` is
    the kt of ``cantor.string_index(i)`` for all ``2**(length_cap+1) - 1``
    strings, or :data:`NO_PROGRAM` where no program within the cap prints it
    in budget (every kt is at most ``length_cap + C_LIT``, so a byte holds it).
    """

    budget: BudgetPoly
    length_cap: int
    machine_version: str
    kts: bytes

    def lookup(self, x: BitString) -> int:
        """``kt(x)``: the shortest program printing ``x`` within the budget."""
        if len(x) > self.length_cap:
            raise CapExceeded(
                f"table caps at length {self.length_cap}, got {len(x)}"
            )
        value = self.kts[index_of(x)]
        if value == NO_PROGRAM:
            raise MartlabError(
                f"no program prints {x!r} within budget {self.budget}; "
                "the budget is too tight for literal printing"
            )
        return value

    def count(self) -> int:
        """How many strings some program prints within the budget."""
        return len(self.kts) - self.kts.count(NO_PROGRAM)


# the shortest term is the empty literal "001"
_MIN_TERM = 3


def _leaves(max_len: int, out_cap: int, step_cap: int):
    """Every literal, run and table term that fits in ``max_len`` bits and
    could print at most ``out_cap`` bits within ``step_cap`` steps."""
    for length in range(out_cap + 1):
        if 2 + gamma_length(length + 1) + length > max_len:
            break
        yield from map(encode_literal, all_strings(length))
    if max_len >= 8:  # every run term is 8 bits
        for k in range(1, min(out_cap, 16) + 1):
            for bit in (0, 1):
                yield encode_run(bit, k)
    n = 1
    while 1 << n <= out_cap:
        rows = 1 << n
        m = 1
        while True:
            head = 2 + gamma_length(n + 1) + gamma_length(m + 1)
            # the cheapest table reads 2m op bits, runs m ops per row and
            # prints every row; both bounds only grow with m
            if head + 2 * m > max_len or head + 2 * m + rows * (m + 1) > step_cap:
                break
            for ops in stack_programs(n, m, max_len - head, m):
                yield encode_table(n, ops)
            m += 1
        n += 1


def _term_counts(max_len: int, out_cap: int, step_cap: int) -> list:
    """``D[l]`` counts the terms of exactly ``l`` bits by (output code, steps).

    Only terms printing at most ``out_cap`` bits within ``step_cap`` steps
    are kept.  A top-level program is one term, so ``D[l]`` also describes
    the halting programs of length ``l`` under budget ``step_cap``.
    """
    D = [Counter() for _ in range(max(max_len, 0) + 1)]
    for program in _leaves(max_len, out_cap, step_cap):
        result = run(program, step_cap)
        if result.output is not None:
            D[len(program)][index_of(result.output) + 1, result.steps] += 1
    for length in range(_MIN_TERM, max_len + 1):
        terms = D[length]
        # repeat: 011 gamma(k) body, printing the body k times
        k = 1
        while (head := 3 + gamma_length(k)) + _MIN_TERM <= length:
            for (code, steps), count in D[length - head].items():
                size = code.bit_length() - 1
                total = head + steps + k * size
                if size * k <= out_cap and total <= step_cap:
                    body = repeated(code - (1 << size), size, k)
                    terms[(1 << size * k) | body, total] += count
            k += 1
        # pair: 10 gamma(L1) left right, the left term exactly L1 bits long
        first = _MIN_TERM
        while (head := 2 + gamma_length(first)) + first + _MIN_TERM <= length:
            right = D[length - head - first]
            for (lcode, lsteps), lcount in D[first].items():
                room = out_cap + 1 - lcode.bit_length()  # output bits left for the right
                for (rcode, rsteps), rcount in right.items():
                    size = rcode.bit_length() - 1
                    total = head + lsteps + rsteps
                    if size <= room and total <= step_cap:
                        terms[((lcode - 1) << size) + rcode, total] += lcount * rcount
            first += 1
    return D


def build_kt_table(budget: BudgetPoly, length_cap: int) -> KtTable:
    """kt of every string up to ``length_cap``, over programs of length up
    to ``length_cap + C_LIT``."""
    if length_cap > DEFAULT_LENGTH_CAP:
        raise CapExceeded(
            f"length cap {length_cap} exceeds {DEFAULT_LENGTH_CAP}"
        )
    kts = bytearray([NO_PROGRAM]) * ((2 << length_cap) - 1)
    terms = _term_counts(length_cap + C_LIT, length_cap, budget(length_cap))
    for length, level in enumerate(terms):  # lengths upward: first is min
        for code, steps in level:
            if kts[code - 1] == NO_PROGRAM and steps <= budget(code.bit_length() - 1):
                kts[code - 1] = length
    return KtTable(budget, length_cap, MACHINE_VERSION, bytes(kts))


def save_kt_table(table: KtTable) -> bytes:
    """The payload: the table's kt bytes as they are, in index order."""
    return table.kts


def load_kt_table(payload: bytes, budget: BudgetPoly, length_cap: int) -> KtTable:
    """Decode a :func:`save_kt_table` payload for the table it was keyed by."""
    return KtTable(budget, length_cap, MACHINE_VERSION, bytes(payload))


def cached_kt_table(
    budget: BudgetPoly, length_cap: int, cache_dir: Path | str | None
) -> KtTable:
    """Build or reload the table keyed by (machine version, budget, cap)."""
    return cache.fetch(
        cache_dir,
        f"kt_{MACHINE_VERSION}_t{budget.key()}_L{length_cap}.bin",
        lambda: build_kt_table(budget, length_cap),
        save_kt_table,
        lambda payload: load_kt_table(payload, budget, length_cap),
    )


def short_program_counts(
    n: int, max_program_len_exclusive: int, budget: BudgetPoly
) -> dict:
    """How many programs shorter than the bound print each length-``n`` string.

    Counts the programs by term length once with budget ``budget(n)``; the
    result maps the row position ``x.to_int()`` of each string ``x`` printed
    to its program count (strings absent map to zero).
    """
    if max_program_len_exclusive - 1 > n + C_LIT:
        raise CapExceeded(
            "program bound exceeds the literal-print search space"
        )
    counts: dict[int, int] = {}
    for level in _term_counts(max_program_len_exclusive - 1, n, budget(n)):
        for (code, _), count in level.items():
            if code.bit_length() == n + 1:
                position = code ^ (1 << n)
                counts[position] = counts.get(position, 0) + count
    return counts


def kt_cover_martingale(n: int, gap: int, budget: BudgetPoly) -> Martingale:
    """Bet on strings compressible below ``n - gap`` bits.

    The numerator is #P: it counts (extension, program) pairs, so the root
    value is at most ``2**-gap`` by the sheer count of short programs, and
    every length-``n`` string with ``kt`` below the bound gets value at
    least 1.  The level cap is decided before the program sweep.
    """
    if n > LEVEL_CAP:
        raise CapExceeded(f"level {n} exceeds enumeration cap {LEVEL_CAP}")
    bound = n - gap
    counts = short_program_counts(n, bound, budget) if bound >= 1 else {}

    m = condexp_martingale(counts, n)
    return replace(m, meta={"construction": "kt-cover"})


@dataclass(frozen=True)
class KRateReport:
    """Per-prefix compression ratios ``kt(S[:n]) / n`` (exact rationals)."""

    budget: BudgetPoly
    values: tuple  # kt at levels 1..|S|
    ratios: tuple  # Fractions
    lowest: Fraction
    highest: Fraction


def k_rate(S: BitString, table: KtTable) -> KRateReport:
    """Finite-horizon surrogate of the liminf/limsup compression rates."""
    if len(S) < 1:
        raise ValueError("needs a nonempty prefix")
    values = tuple(table.lookup(S.prefix(n)) for n in range(1, len(S) + 1))
    ratios = tuple(Fraction(v, n) for n, v in enumerate(values, start=1))
    return KRateReport(table.budget, values, ratios, min(ratios), max(ratios))


def kolmogorov_witness_relation(
    max_program_len: int, budget: BudgetPoly
) -> WitnessRelation:
    """Witness-cube form of "some short program prints the input".

    A witness packs a length header and a zero-padded program, so each
    program of length up to the cap is exactly one witness; the count module
    sees precisely the (input, program) pairs, and a sweep asks only those
    witnesses.  A witness's image at length ``n`` is its program's output
    within ``budget(n)`` steps, if that output has length ``n``.
    """
    header = max(1, max_program_len.bit_length())
    total = header + max_program_len

    def image(n: int, y: int) -> int | None:
        length = y >> max_program_len  # the header
        if not 1 <= length <= max_program_len:
            return None
        pad = max_program_len - length
        if y & ((1 << pad) - 1):
            return None
        output, _ = run_code(1 << length | y >> pad & ((1 << length) - 1), budget(n))
        return output[0] if output is not None and output[1] == n else None

    def well_formed(_: int):
        """Every zero-padded program of length ``1..max_program_len`` under
        its header, in increasing order: each other witness has no image."""
        for length in range(1, max_program_len + 1):
            pad = max_program_len - length
            yield from range(length << max_program_len,
                             (length + 1) << max_program_len, 1 << pad)

    return WitnessRelation.from_image(
        f"short-program(<{max_program_len + 1} bits)", lambda _: total, image,
        well_formed,
    )
