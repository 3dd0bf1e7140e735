"""Brute-force time-bounded description complexity on the toy machine.

``kt(x, t)`` is the length of the shortest program printing ``x`` within
``t(|x|)`` steps, found by sweeping every program of length at most
``|x| + C_LIT`` (the literal-print bound caps the useful search space).  One
sweep fills the table for every string up to the length cap at once, and
tables persist as CSV keyed by machine version and budget, because the sweep
dominates runtime.

The same program enumeration yields the compressible-string covering
martingale: count the (string, program) pairs with the program shorter than
the declared capital gap, and bet the conditional expectation of that count.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .cantor import BitString
from .constructions import condexp_martingale
from .errors import CapExceeded, MartlabError
from .machine import BudgetPoly, C_LIT, MACHINE_VERSION, run
from .martingale import Martingale
from .oracle import WitnessRelation

__all__ = [
    "DEFAULT_LENGTH_CAP",
    "KtTable",
    "KRateReport",
    "build_kt_table",
    "cached_kt_table",
    "save_kt_table",
    "load_kt_table",
    "kt",
    "short_program_counts",
    "kt_cover_martingale",
    "k_rate",
    "kolmogorov_witness_relation",
]

DEFAULT_LENGTH_CAP = 14
TABLE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class KtTable:
    """Exhaustive ``kt`` values for every string up to ``length_cap``."""

    budget: BudgetPoly
    length_cap: int
    machine_version: str
    entries: dict  # bits str -> kt

    def lookup(self, x: BitString) -> int:
        if len(x) > self.length_cap:
            raise CapExceeded(
                f"table caps at length {self.length_cap}, got {len(x)}"
            )
        bits = x.bits()
        if bits not in self.entries:
            raise MartlabError(
                f"no program prints {x!r} within budget {self.budget}; "
                "the budget is too tight for literal printing"
            )
        return self.entries[bits]


def _programs(max_len: int):
    for length in range(1, max_len + 1):
        for value in range(1 << length):
            yield format(value, f"0{length}b")


def build_kt_table(
    budget: BudgetPoly, length_cap: int = DEFAULT_LENGTH_CAP
) -> KtTable:
    """One sweep over all programs of length up to ``length_cap + C_LIT``."""
    if length_cap > DEFAULT_LENGTH_CAP:
        raise CapExceeded(
            f"length cap {length_cap} exceeds {DEFAULT_LENGTH_CAP}"
        )
    max_budget = budget(length_cap)
    entries: dict[str, int] = {}
    for program in _programs(length_cap + C_LIT):
        result = run(program, max_budget)
        out = result.output
        if out is None or len(out) > length_cap:
            continue
        if result.steps > budget(len(out)):
            continue
        bits = out.bits()
        if bits not in entries:
            entries[bits] = len(program)  # lengths sweep upward: first is min
    return KtTable(budget, length_cap, MACHINE_VERSION, entries)


def save_kt_table(table: KtTable, path: Path | str) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(f"# martlab kt table v{TABLE_FORMAT_VERSION}\n")
        fh.write(
            f"# machine={table.machine_version} budget={table.budget.key()} "
            f"L={table.length_cap}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["string", "kt"])
        for bits in sorted(table.entries, key=lambda b: (len(b), b)):
            writer.writerow([bits, table.entries[bits]])


def load_kt_table(path: Path | str) -> KtTable:
    path = Path(path)
    with path.open() as fh:
        header = fh.readline()
        if "martlab kt table" not in header:
            raise ValueError(f"{path}: not a kt table")
        meta = dict(
            part.split("=", 1) for part in fh.readline()[1:].split()
        )
        reader = csv.reader(fh)
        next(reader)  # column header
        entries = {row[0]: int(row[1]) for row in reader}
    a, rest = meta["budget"].split("n", 1)
    k, b = rest.split("p", 1)
    return KtTable(
        BudgetPoly(int(a), int(k), int(b)),
        int(meta["L"]),
        meta["machine"],
        entries,
    )


def cached_kt_table(
    budget: BudgetPoly,
    length_cap: int,
    cache_dir: Path | str | None,
) -> KtTable:
    if cache_dir is None:
        return build_kt_table(budget, length_cap)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / (
        f"kt_{MACHINE_VERSION}_t{budget.key()}_L{length_cap}.csv"
    )
    if path.exists():
        table = load_kt_table(path)
        if (
            table.machine_version == MACHINE_VERSION
            and table.budget == budget
            and table.length_cap >= length_cap
        ):
            return table
    table = build_kt_table(budget, length_cap)
    save_kt_table(table, path)
    return table


def kt(
    x: BitString,
    budget: BudgetPoly,
    table: KtTable | None = None,
    cache_dir: Path | str | None = None,
) -> int:
    """Shortest program length printing ``x`` within ``budget(|x|)`` steps."""
    if table is None:
        table = cached_kt_table(budget, max(len(x), 1), cache_dir)
    return table.lookup(x)


def short_program_counts(
    n: int, max_program_len_exclusive: int, budget: BudgetPoly
) -> dict:
    """How many programs shorter than the bound print each length-``n`` string.

    Enumerates the program cube once with budget ``budget(n)``; the result
    maps bit strings to pair counts (strings absent map to zero).
    """
    if max_program_len_exclusive - 1 > n + C_LIT:
        raise CapExceeded(
            "program bound exceeds the literal-print search space"
        )
    counts: dict[str, int] = {}
    step_cap = budget(n)
    for program in _programs(max_program_len_exclusive - 1):
        result = run(program, step_cap)
        out = result.output
        if out is not None and len(out) == n:
            counts[out.bits()] = counts.get(out.bits(), 0) + 1
    return counts


def kt_cover_martingale(
    n: int,
    gap: Callable[[int], int] | int,
    budget: BudgetPoly,
) -> Martingale:
    """Bet on strings compressible below ``n - gap(n)`` bits.

    The numerator counts (extension, program) pairs, so the root value is at
    most ``2**-gap(n)`` by the sheer count of short programs, and every
    length-``n`` string with ``kt`` below the bound gets value at least 1.
    """
    gap_fn = gap if callable(gap) else (lambda _: gap)
    bound = n - gap_fn(n)
    counts = (
        short_program_counts(n, bound, budget) if bound >= 1 else {}
    )

    def pair_count(x: BitString) -> int:
        return counts.get(x.bits(), 0)

    m = condexp_martingale(pair_count, n, class_tag="#P")
    meta = dict(m.meta)
    meta.update(
        construction="kt-cover",
        level=n,
        gap=gap_fn(n),
        budget=str(budget),
    )
    return replace(m, meta=meta)


@dataclass(frozen=True)
class KRateReport:
    """Per-prefix compression ratios ``kt(S[:n]) / n`` (exact rationals)."""

    budget: BudgetPoly
    values: tuple  # kt at levels 1..|S|
    ratios: tuple  # Fractions
    lowest: Fraction
    highest: Fraction


def k_rate(
    S: BitString,
    budget: BudgetPoly,
    table: KtTable | None = None,
    cache_dir: Path | str | None = None,
) -> KRateReport:
    """Finite-horizon surrogate of the liminf/limsup compression rates."""
    if len(S) < 1:
        raise ValueError("needs a nonempty prefix")
    if table is None:
        table = cached_kt_table(budget, len(S), cache_dir)
    values = tuple(table.lookup(S.prefix(n)) for n in range(1, len(S) + 1))
    ratios = tuple(Fraction(v, n) for n, v in enumerate(values, start=1))
    return KRateReport(budget, values, ratios, min(ratios), max(ratios))


def kolmogorov_witness_relation(
    max_program_len: int, budget: BudgetPoly
) -> WitnessRelation:
    """Witness-cube form of "some short program prints the input".

    A witness packs a length header and a zero-padded program, so each
    program of length up to the cap is exactly one witness; the count module
    sees precisely the (input, program) pairs.
    """
    header = max(1, max_program_len.bit_length())
    total = header + max_program_len

    def verify(x: BitString, y: BitString) -> bool:
        bits = y.bits()
        length = int(bits[:header], 2)
        if not 1 <= length <= max_program_len:
            return False
        program = bits[header : header + length]
        if "1" in bits[header + length :]:
            return False
        result = run(program, budget(len(x)))
        return result.output == x

    return WitnessRelation(
        name=f"short-program(<{max_program_len + 1} bits)",
        witness_length=lambda _: total,
        verify=verify,
        emit=lambda x, y: y,
    )
