from fractions import Fraction

import pytest

from martlab import kolmogorov
from martlab.cantor import BitString, all_strings, string_index
from martlab.cli import main
from martlab.dyadic import Dyadic, ONE
from martlab.errors import CapExceeded, MartlabError
from martlab.kolmogorov import (
    DEFAULT_LENGTH_CAP,
    NO_PROGRAM,
    build_kt_table,
    cached_kt_table,
    k_rate,
    kolmogorov_witness_relation,
    kt_cover_martingale,
    load_kt_table,
    save_kt_table,
    short_program_counts,
)
from martlab.machine import BudgetPoly, C_LIT, encode_table, run
from martlab.martingale import verify_averaging
from martlab.oracle import count

import census_v2
import kt_v3
from machine_v1 import pairing_budget


def _programs(max_len):
    for length in range(1, max_len + 1):
        yield from all_strings(length)


def brute_kt_entries(budget, length_cap):
    """kt by running every program up to ``length_cap + C_LIT`` bits."""
    entries = {}
    for program in _programs(length_cap + C_LIT):
        result = run(program, budget(length_cap))
        out = result.output
        if out is None or len(out) > length_cap:
            continue
        if result.steps <= budget(len(out)):
            entries.setdefault(out.bits(), len(program))
    return entries


def brute_program_counts(n, max_program_len_exclusive, budget):
    counts = {}
    for program in _programs(max_program_len_exclusive - 1):
        out = run(program, budget(n)).output
        if out is not None and len(out) == n:  # keyed by row position
            counts[out.to_int()] = counts.get(out.to_int(), 0) + 1
    return counts


@pytest.mark.parametrize(
    "budget",
    [
        BudgetPoly(4, 1, 16),
        pairing_budget(BudgetPoly(4, 1, 16)),
        BudgetPoly(3, 1, 12),
        BudgetPoly(4, 2, 64),  # reaches table terms
        BudgetPoly(2, 1, 8),  # tight: repeat step counts decide entries
    ],
    ids=str,
)
def test_kt_table_matches_brute_force(budget):
    assert kt_v3.lookups(build_kt_table(budget, 8)) == brute_kt_entries(budget, 8)


@pytest.mark.parametrize(
    "n, bound, budget",
    [
        (6, 14, BudgetPoly(3, 1, 12)),
        (4, 13, BudgetPoly(9, 1, 48)),
        (6, 15, BudgetPoly(4, 2, 64)),
        (8, 17, BudgetPoly(2, 1, 6)),  # tight: pair step counts decide
        (0, 5, BudgetPoly(4, 1, 16)),
    ],
)
def test_short_program_counts_match_brute_force(n, bound, budget):
    counts = short_program_counts(n, bound, budget)
    assert counts == brute_program_counts(n, bound, budget)
    assert sum(counts.values()) >= 1


def test_kt_table_at_default_length_cap(budget):
    table = build_kt_table(budget, DEFAULT_LENGTH_CAP)
    assert table.count() == (1 << (DEFAULT_LENGTH_CAP + 1)) - 1
    assert len(table.kts) == (1 << (DEFAULT_LENGTH_CAP + 1)) - 1
    for i, value in enumerate(table.kts):
        assert value <= len(string_index(i)) + C_LIT


def test_literal_bound_holds_everywhere(kt_table_10):
    for i, value in enumerate(kt_table_10.kts):
        assert value <= len(string_index(i)) + C_LIT


def test_every_string_has_an_entry(kt_table_10):
    for length in range(11):
        for x in all_strings(length):
            assert kt_table_10.lookup(x) <= length + C_LIT


def test_runs_compress(kt_table_10):
    assert kt_table_10.lookup(BitString("0" * 10)) < 10 + C_LIT
    assert kt_table_10.lookup(BitString("0" * 10)) == 8


def test_budget_monotonicity(kt_table_10, budget):
    tighter = BudgetPoly(3, 1, 8)  # pointwise below the default budget
    tight_table = build_kt_table(tighter, 7)
    for length in range(8):
        for v in range(1 << length):
            bits = format(v, f"0{length}b") if length else ""
            x = BitString(bits)
            assert tight_table.lookup(x) >= kt_table_10.lookup(x)


def test_length_cap_enforced(kt_table_10):
    with pytest.raises(CapExceeded):
        kt_table_10.lookup(BitString("0" * 11))


def test_csv_roundtrip(budget):
    table = build_kt_table(budget, 5)
    payload = save_kt_table(table)
    loaded = load_kt_table(memoryview(payload), budget, 5)
    assert loaded == table
    assert loaded.budget == table.budget
    assert loaded.length_cap == table.length_cap
    assert loaded.machine_version == table.machine_version
    assert save_kt_table(loaded) == payload


def test_dense_payload_layout():
    # one kt byte per string, in length-lexicographic order
    table = build_kt_table(BudgetPoly(2, 1, 6), 4)
    payload = save_kt_table(table)
    assert len(payload) == 31
    for i, value in enumerate(payload):
        x = string_index(i)
        if value == NO_PROGRAM:
            with pytest.raises(MartlabError, match="no program prints"):
                table.lookup(x)
        else:
            assert table.lookup(x) == value


# every budget the tests above build a table for
TWIN_BUDGETS = [
    BudgetPoly(4, 1, 16),
    pairing_budget(BudgetPoly(4, 1, 16)),
    BudgetPoly(3, 1, 12),
    BudgetPoly(4, 2, 64),
    BudgetPoly(2, 1, 8),
    BudgetPoly(3, 1, 8),
    BudgetPoly(2, 1, 6),
]


@pytest.mark.parametrize("budget", TWIN_BUDGETS, ids=str)
def test_dense_table_matches_dict_oracle(tmp_path, capsys, budget):
    for length_cap in range(11):
        # each side built, saved and loaded: the dict through its CSV codec,
        # the dense table through its cache file
        entries = kt_v3.decode(kt_v3.encode(kt_v3.build(budget, length_cap)))
        built = cached_kt_table(budget, length_cap, tmp_path)
        table = cached_kt_table(budget, length_cap, tmp_path)
        assert table == built
        for length in range(length_cap + 1):
            for x in all_strings(length):
                if x.bits() in entries:
                    assert table.lookup(x) == entries[x.bits()]
                else:
                    with pytest.raises(MartlabError, match="no program prints"):
                        table.lookup(x)
        with pytest.raises(CapExceeded):
            table.lookup(BitString("0" * (length_cap + 1)))
        assert table.count() == len(entries)
        capsys.readouterr()
        argv = ["kolmogorov", "-L", str(length_cap), "--budget",
                str(budget.a), str(budget.k), str(budget.b), "--format", "csv",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out == kt_v3.csv_stdout(
            entries, budget, length_cap
        )


def test_cached_table_reused(tmp_path, budget, monkeypatch):
    first = cached_kt_table(budget, 5, tmp_path)

    def rebuild(*args):
        raise AssertionError("the cached table was rebuilt")

    monkeypatch.setattr(kolmogorov, "build_kt_table", rebuild)
    second = cached_kt_table(budget, 5, tmp_path)
    assert second == first


def test_kt_cover_empty_when_gap_fills_length(budget):
    m = kt_cover_martingale(6, 6, budget)
    assert m.initial_capital == Dyadic(0)
    for w in ("", "010", "111111"):
        assert m.value(BitString(w)) == Dyadic(0)


def test_kt_cover_capital_and_leaf_law(kt_table_10, budget):
    for n, gap in ((9, 0), (10, 0), (10, 1), (8, 2)):
        m = kt_cover_martingale(n, gap, budget)
        assert m.initial_capital <= Dyadic.pow2(-gap)
        assert verify_averaging(m, min(n, 6)).passed
        bound = n - gap
        for x in all_strings(n):
            compressible = kt_table_10.lookup(x) < bound
            assert (m.value(x) >= ONE) == compressible


def test_kt_cover_leaf_counts_programs(kt_table_10, budget):
    n = 10
    counts = short_program_counts(n, n, budget)
    m = kt_cover_martingale(n, 0, budget)
    for i, expected in counts.items():
        assert m.value(BitString.from_int(i, n)) == Dyadic(expected)


def test_kt_cover_decides_the_level_cap_before_the_sweep(budget, monkeypatch):
    def sweep(*args):
        raise AssertionError("the program sweep ran past the level cap")

    monkeypatch.setattr(kolmogorov, "_term_counts", sweep)
    with pytest.raises(CapExceeded, match="level 23 exceeds enumeration cap 22"):
        kt_cover_martingale(23, 0, budget)


def test_k_rate_on_zeros(kt_table_10):
    report = k_rate(BitString("0" * 10), kt_table_10)
    assert all(
        a >= b for a, b in zip(report.ratios, report.ratios[1:])
    )
    assert report.lowest == Fraction(4, 5)
    assert report.lowest < 1


def test_k_rate_single_bit(kt_table_10):
    report = k_rate(BitString("1"), kt_table_10)
    assert len(report.values) == 1
    assert report.lowest == report.highest


def test_k_rate_incompressible_floor(kt_table_10):
    # nothing beats the literal bound from below arbitrarily: every ratio
    # is at least (kt >= 3) / n, and for strings with no structure the
    # table value stays near the literal cost
    report = k_rate(BitString("1001101011"), kt_table_10)
    for n, value in enumerate(report.values, start=1):
        assert value >= 3


def test_circuit_link(budget):
    # census circuits give runnable programs, and the table value never
    # exceeds what the circuit encoding (or the literal fallback) provides
    generous = BudgetPoly(4, 2, 64)
    table = build_kt_table(generous, 8)
    for n in (2, 3):
        _, witness = census_v2.build(n, 6)
        rows = 1 << n
        for mask in sorted(witness):
            program = encode_table(n, census_v2.circuit_ops(witness, mask))
            bits = census_v2.table_bits(n, mask)
            assert run(program, generous(rows)).output == bits
            assert table.lookup(bits) <= max(len(program), rows + C_LIT)


def test_witness_relation_counts_pairs(budget):
    rel = kolmogorov_witness_relation(8, budget)
    x = BitString("0" * 4)
    expected = sum(
        1
        for length in range(1, 9)
        for v in range(1 << length)
        if run(BitString.from_int(v, length), budget(4)).output == x
    )
    assert count(rel, x) == expected
    assert expected >= 1
