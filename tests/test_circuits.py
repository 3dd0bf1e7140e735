import math
import random
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from martlab import circuits
from martlab.cantor import BitString, EMPTY, all_strings
from martlab.circuits import (
    UNREACHED,
    TruthTable,
    build_census,
    cached_census,
    load_census,
    lutz_size_bound_floor,
    mcsp,
    mcsp_cover,
    mcsp_witness_relation,
    mnp_cover_check,
    save_census,
)
from martlab.cli import main
from martlab.constructions import cover_martingale
from martlab.dyadic import Dyadic, ONE, ZERO
from martlab.errors import (
    CapExceeded,
    CensusUnavailable,
    DegenerateParameter,
    IndeterminateComparison,
)
from martlab.machine import encode_table, run, table_mask
from martlab.martingale import verify_averaging
from martlab.oracle import level_counts

import census_dag
import census_v2


def sizes_of(census) -> dict:
    """mask -> minimum size over the reached tables, read through ``min_size``."""
    return {m: census.min_size(TruthTable(census.n, m)) for m in census_v2.reached(census)}


def test_truth_table_roundtrip():
    tt = TruthTable.from_bits(BitString("0110"))
    assert tt.n == 2 and tt.mask == 0b0110
    assert str(census_v2.table_bits(tt.n, tt.mask)) == "0110"
    for bad in ("011", ""):
        with pytest.raises(ValueError, match="is not a power of two"):
            TruthTable.from_bits(BitString(bad))


def test_seeds_present_at_size_zero(census2):
    for mask in (0b0000, 0b1111, 0b1010, 0b1100):
        assert census2.min_size(TruthTable(2, mask)) == 0


def test_not_gate_reached_at_one():
    census = build_census(1, 2)
    assert census.min_size(TruthTable(1, 0b01)) == 1  # NOT of the single input


def test_closure_equals_dag_oracle(census2):
    dag = census_dag.minimum_sizes(2, 6)
    assert census_v2.reached(census2) == sorted(dag)
    for mask in range(16):
        assert census2.min_size(TruthTable(2, mask)) == dag[mask]


def test_dag_sizes_at_most_tree_sizes_at_three_inputs():
    # census sizes are tree (formula) minima; at n = 3 shared gates first
    # pay off at 5 gates, reaching 12 tables no 5-gate tree computes
    dag = census_dag.minimum_sizes(3, 5)
    census = build_census(3, 5)
    tree = census_v2.reached(census)
    assert len(dag) == 203
    assert len(tree) == 191
    assert set(tree) <= set(dag)
    for mask in tree:
        assert census.min_size(TruthTable(3, mask)) == dag[mask]
    for n, max_size in ((3, 6), (4, 1)):
        with pytest.raises(CapExceeded):
            census_dag.minimum_sizes(n, max_size)


def test_xor_needs_four_gates(census2):
    assert census2.min_size(TruthTable(2, 0b0110)) == 4
    assert not mcsp(TruthTable.from_bits(BitString("0110")), 0, census2)
    assert not mcsp(TruthTable.from_bits(BitString("0110")), 3, census2)
    assert mcsp(TruthTable.from_bits(BitString("0110")), 4, census2)


def test_constant_accepted_at_zero(census2):
    assert mcsp(TruthTable.from_bits(BitString("0000")), 0, census2)


def test_rejected_below_minimum(census3):
    # every censused table flips from reject to accept exactly at its minimum
    for mask, minimum in sizes_of(census3).items():
        if minimum == 0:
            continue
        tt = TruthTable(3, mask)
        assert not mcsp(tt, minimum - 1, census3)
        assert mcsp(tt, minimum, census3)


def test_parity3_beyond_tree_cap():
    # three-input parity has no tree-shaped circuit within the size cap, so
    # the census rejects it at every queryable size
    census = build_census(3, 8)
    parity = TruthTable.from_bits(BitString("01101001"))
    assert census.min_size(parity) is None
    for s in range(9):
        assert not mcsp(parity, s, census)


def test_size_zero_has_only_projections_and_constants():
    census = build_census(2, 0)
    assert census_v2.reached(census) == sorted(
        {0b0000, 0b1111, 0b1010, 0b1100}
    )


def test_census_monotone_in_cap():
    small = build_census(3, 3)
    large = build_census(3, 5)
    assert sizes_of(small) == {
        m: s for m, s in sizes_of(large).items() if s <= 3
    }


def test_census_deterministic(census4):
    rebuilt = build_census(4, 5)
    assert rebuilt == census4


def test_shannon_direction_at_four_inputs():
    census = build_census(4, 8)  # the full default cap
    assert census.count_at_most(8) < 1 << 16


def test_census_caps():
    with pytest.raises(CapExceeded):
        build_census(5, 2)
    with pytest.raises(CapExceeded):
        build_census(2, 9)
    with pytest.raises(CensusUnavailable):
        mcsp(TruthTable.from_bits(BitString("0110")), 7, build_census(2, 4))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_census_matches_dict_oracle(n):
    tables = range(1 << (1 << n))
    for S in range(circuits.SIZE_CAP + 1):
        sizes, _ = census_v2.build(n, S)
        census = build_census(n, S)
        assert load_census(save_census(census), n, S) == census
        assert [census.min_size(TruthTable(n, m)) for m in tables] == [
            sizes.get(m) for m in tables
        ]
        assert census_v2.reached(census) == sorted(sizes)
        assert census.histogram() == dict(sorted(Counter(sizes.values()).items()))
        for s in range(S + 1):
            assert census.count_at_most(s) == sum(v <= s for v in sizes.values())
        assert census.count_at_most(S) == len(sizes)


def test_dense_payload_layout():
    census = build_census(2, 4)
    payload = save_census(census)
    # one size byte per table, indexed by mask; no witnesses
    assert payload == bytes(
        UNREACHED if size is None else size
        for size in (census.min_size(TruthTable(2, m)) for m in range(16))
    )
    assert payload[0b0110] == 4  # xor
    assert len(save_census(build_census(4, 8))) == 1 << 16


def test_load_census_checks_the_payload_length():
    payload = save_census(build_census(2, 4))
    with pytest.raises(CensusUnavailable, match="17 bytes, n=2 needs 16"):
        load_census(payload + b"\0", 2, 4)


def test_cache_roundtrip(census3):
    payload = save_census(census3)
    loaded = load_census(payload, census3.n, census3.max_size)
    assert loaded.n == census3.n
    assert loaded.max_size == census3.max_size
    assert loaded == census3
    # cache writes are byte-deterministic
    assert save_census(loaded) == payload


def test_cached_census_reuses_file(tmp_path, monkeypatch):
    first = cached_census(2, 4, tmp_path)

    def rebuild(*args):
        raise AssertionError("the cached census was rebuilt")

    monkeypatch.setattr(circuits, "build_census", rebuild)
    second = cached_census(2, 4, tmp_path)
    assert second == first


CERTIFICATE = Path(__file__).resolve().parent.parent / "experiments" / "mcsp_certificate.json"
# every CLI path that reads a census: mcsp at n = 2, 3 and 4, the covering
# report and the certificate audit
WARM_CENSUS_COMMANDS = [
    ["mcsp", "--table", "0110", "-s", "3"],
    ["mcsp", "--table", "01101001", "-s", "6"],
    ["mcsp", "--table", "0110100110010110", "-s", "8"],
    ["census", "-n", "4", "-S", "5", "--alpha", "1/2"],
    ["certify", "--config", str(CERTIFICATE)],
]


def test_warm_cli_paths_never_rebuild_a_census(tmp_path, monkeypatch, capsys):
    # a command that read witnesses would turn every warm load into a build
    cache = ["--cache-dir", str(tmp_path)]
    cold = []
    for argv in WARM_CENSUS_COMMANDS:
        assert main(argv + cache) == 0
        cold.append(capsys.readouterr().out)

    def rebuild(*args):
        raise AssertionError(f"census {args} rebuilt on a warm path")

    monkeypatch.setattr(circuits, "build_census", rebuild)
    for argv, out in zip(WARM_CENSUS_COMMANDS, cold):
        assert main(argv + cache) == 0
        assert capsys.readouterr().out == out


def test_witness_circuits_evaluate_to_their_tables():
    # the dict census's witnesses reach every dense census size
    for n in (2, 3, 4):
        census = build_census(n, circuits.SIZE_CAP)
        sizes = sizes_of(census)
        _, witness = census_v2.build(n, circuits.SIZE_CAP)
        for mask, size in sizes.items():
            kind, *operands = witness[mask]
            if kind in ("VAR", "CONST"):
                assert size == 0
            else:
                # the operands are reached, and the gate adds one to their sizes
                assert all(a in sizes for a in operands)
                assert sum(sizes[a] for a in operands) == size - 1
            ops = census_v2.circuit_ops(witness, mask)
            assert table_mask(n, ops) == mask
            assert census_v2.gates(ops) == size


@pytest.mark.parametrize("n, saturated_at", [(1, 1), (2, 4)])
def test_closure_stops_once_every_table_is_reached(n, saturated_at):
    saturated = build_census(n, saturated_at)
    assert saturated.count_at_most(saturated_at) == 1 << (1 << n)
    assert build_census(n, saturated_at - 1).count_at_most(saturated_at - 1) < 1 << (1 << n)
    for S in range(saturated_at, circuits.SIZE_CAP + 1):
        census = build_census(n, S)
        assert census.max_size == S
        assert save_census(census) == save_census(saturated)


def test_encode_circuit_decodes_on_machine():
    for n in (2, 3):
        _, witness = census_v2.build(n, 6)
        for mask in sorted(witness):
            program = encode_table(n, census_v2.circuit_ops(witness, mask))
            result = run(program, 10_000)
            assert result.output == census_v2.table_bits(n, mask)


def measured_encoding_constant(n: int, witness: dict) -> int:
    """Smallest ``c0`` making every census circuit's encoding fit
    ``(size+1) * (c0 + ceil(log2(n + size)))`` bits."""
    c0 = 0
    for mask in sorted(witness):
        ops = census_v2.circuit_ops(witness, mask)
        s = census_v2.gates(ops)
        width = (n + s - 1).bit_length() if n + s > 1 else 0  # ceil(log2(n+s))
        needed = -(-len(encode_table(n, ops)) // (s + 1)) - width  # ceil division
        c0 = max(c0, needed)
    return c0


def test_encoding_length_bound():
    for n in (2, 3):
        _, witness = census_v2.build(n, 6)
        c0 = measured_encoding_constant(n, witness)
        assert c0 <= 24  # the bound must not be vacuous
        for mask in sorted(witness):
            ops = census_v2.circuit_ops(witness, mask)
            s = census_v2.gates(ops)
            width = (n + s - 1).bit_length() if n + s > 1 else 0
            assert len(encode_table(n, ops)) <= (s + 1) * (c0 + width)


def test_single_not_example():
    _, witness = census_v2.build(1, 2)
    mask = TruthTable.from_bits(BitString("10")).mask
    program = encode_table(1, census_v2.circuit_ops(witness, mask))
    assert run(program, 1000).output == BitString("10")


def test_mcsp_witness_relation_agrees_with_census(census2):
    counts = level_counts(mcsp_witness_relation(2, 1), 4)
    for mask in range(16):
        tt = TruthTable(2, mask)
        witnessed = counts[census_v2.table_bits(2, mask).to_int()] > 0
        assert witnessed == mcsp(tt, 1, census2)


@pytest.mark.parametrize("n", [1, 2])
def test_mcsp_witness_relation_agrees_with_census_at_two_gates(n):
    # the relation's sweep asks 3,471 (n = 1) and 7,764 (n = 2) of the
    # cube's 524,288 witnesses
    census = build_census(n, 2)
    counts = level_counts(mcsp_witness_relation(n, 2), 1 << n)
    for mask in range(1 << (1 << n)):
        tt = TruthTable(n, mask)
        assert (counts[census_v2.table_bits(n, mask).to_int()] > 0) == mcsp(tt, 2, census), tt


def test_mcsp_cover_counts_factorize(census2):
    cover = mcsp_cover(2, 2, census2)
    m = cover_martingale(cover)
    census_count = census2.count_at_most(2)
    assert m.value(EMPTY) == Dyadic(census_count, 4)  # 2^(7-4) * c / 2^7
    assert verify_averaging(m, 5).passed
    # leaf law: membership is decided by the trailing table bits
    for mask in range(16):
        x = BitString("010") + census_v2.table_bits(2, mask)
        size = census2.min_size(TruthTable(2, mask))
        expected = ONE if size is not None and size <= 2 else ZERO
        assert m.value(x) == expected


def frozenset_mcsp_cover(n: int, s: int, sizes: dict):
    """``mcsp_cover``'s (contains, count) as they read a mask -> size
    dict: a frozenset of qualifying masks, counted per fixed table bits."""
    table_start = (1 << n) - 1
    qualifying = frozenset(mask for mask, size in sizes.items() if size <= s)

    def contains(x: BitString) -> bool:
        return TruthTable.from_bits(BitString(x.bits()[table_start:])).mask in qualifying

    @lru_cache(maxsize=None)
    def count_with_fixed(fixed_bits: str) -> int:
        k = len(fixed_bits)
        prefix_val = int(fixed_bits[::-1], 2) if k else 0
        low_mask = (1 << k) - 1
        return sum(1 for mask in qualifying if (mask & low_mask) == prefix_val)

    def ext_count(w: BitString) -> int:
        free_prefix = max(0, table_start - len(w))
        fixed_table = w.bits()[table_start:]
        return (1 << free_prefix) * count_with_fixed(fixed_table)

    return contains, ext_count


@pytest.mark.parametrize("n, bounds", [(1, range(7)), (2, range(7)), (3, (0, 3, 6))])
def test_mcsp_cover_matches_frozenset_twin_on_every_prefix(n, bounds):
    census = build_census(n, 6)
    sizes, _ = census_v2.build(n, 6)
    for s in bounds:
        cover = mcsp_cover(n, s, census)
        contains, ext_count = frozenset_mcsp_cover(n, s, sizes)
        for k in range(cover.level + 1):
            for w in all_strings(k):
                assert cover.count(w) == ext_count(w), (s, w)
        for x in all_strings(cover.level):
            assert cover.contains(x) == contains(x), (s, x)


def test_mcsp_cover_matches_frozenset_twin_at_four_inputs():
    census = build_census(4, 8)
    sizes, _ = census_v2.build(4, 8)
    rnd = random.Random(4)
    for s in range(9):
        cover = mcsp_cover(4, s, census)
        contains, ext_count = frozenset_mcsp_cover(4, s, sizes)
        for k in range(32):
            for _ in range(20):
                w = BitString.from_int(rnd.getrandbits(k) if k else 0, k)
                assert cover.count(w) == ext_count(w), (s, w)
        for _ in range(200):
            x = BitString.from_int(rnd.getrandbits(31), 31)
            assert cover.contains(x) == contains(x), (s, x)


def test_mcsp_cover_against_enumeration(census2):
    cover = mcsp_cover(2, 2, census2)
    for bits in ("", "0", "0101", "0000000", "010101", "0101010"):
        w = BitString(bits)
        brute = sum(
            1
            for v in range(1 << (7 - len(w)))
            if cover.contains(w + BitString.from_int(v, 7 - len(w)))
        )
        assert cover.count(w) == brute


def test_size_bound_floor_values():
    half = Dyadic(1, 1)
    assert lutz_size_bound_floor(2, Dyadic(0)) == 2
    assert lutz_size_bound_floor(2, half) == 2
    assert lutz_size_bound_floor(3, Dyadic(0)) == 2
    assert lutz_size_bound_floor(3, half) == 3
    assert lutz_size_bound_floor(4, Dyadic(0)) == 4
    assert lutz_size_bound_floor(4, half) == 5
    # s = (8/3)(1 + alpha log2(3) / 3): alpha = -1 gives 1.26, -1/4 gives 2.31
    assert lutz_size_bound_floor(3, Dyadic(-1)) == 1
    assert lutz_size_bound_floor(3, Dyadic(-1, 2)) == 2
    assert lutz_size_bound_floor(3, Dyadic(-8)) == -9
    assert lutz_size_bound_floor(2, Dyadic(-5, 1)) == -1


def test_mnp_cover_check_reports(census2, census3, census4):
    censuses = {2: census2, 3: census3, 4: census4}
    # regression values measured from the census (the asymptotic count
    # inequality genuinely fails at these tiny lengths)
    expected_counts = {
        (2, "0"): 14,
        (2, "1/2"): 14,
        (3, "0"): 40,
        (3, "1/2"): 84,
        (4, "0"): 886,
        (4, "1/2"): 2254,
    }
    for (n, alpha_text), expected in expected_counts.items():
        alpha = Dyadic.parse(alpha_text)
        report = mnp_cover_check(n, alpha, censuses[n])
        assert report.census_count == expected
        N = (1 << (n + 1)) - 1
        assert report.prefix_length == N
        assert report.cover_count == (1 << (N - (1 << n))) * expected
        assert not report.log2_count_below_gap
        assert report.analytic_bound_holds


def _log2_3_at_least(x: Fraction) -> bool:
    """``log2(3) >= x`` for ``x = p/q``: true for ``p <= 0``, else ``3**q >= 2**p``."""
    return x <= 0 or 3**x.denominator >= 2**x.numerator


def _size_floor_oracle(n: int, alpha: Dyadic) -> int:
    """Fraction floor where ``log2(n)`` is an integer; at ``n = 3`` the largest
    ``k`` with ``s >= k``, decided by a sign-aware ``3**q`` vs ``2**p`` test."""
    a = Fraction(alpha.num, 1 << alpha.log_den)
    base = Fraction(1 << n, n)
    if n != 3:
        return math.floor(base * (1 + a * (n.bit_length() - 1) / n))
    c = base * a / 3  # s = base + c * log2(3)

    def at_least(k: int) -> bool:
        if c == 0:
            return base >= k
        x = (k - base) / c
        # c log2(3) >= k - base: log2(3) >= x for c > 0, log2(3) <= x for c < 0
        return _log2_3_at_least(x) if c > 0 else not _log2_3_at_least(x)

    k = math.floor(min(base + c * Fraction(3, 2), base + c * 2))  # 3/2 < log2(3) < 2
    while at_least(k + 1):
        k += 1
    return k


def test_size_bound_floor_matches_oracle():
    for n in (2, 3, 4):
        for k in range(-128, 65):
            alpha = Dyadic(k, 4)
            assert lutz_size_bound_floor(n, alpha) == _size_floor_oracle(n, alpha), (n, k)


def test_gap_condition_matches_decimal_oracle(census2, census3, census4):
    # log2(count) < 2**n - (1 - alpha/2) (2**n / n) log2(n), in 60-digit decimals;
    # alpha > 2 makes the log2(3) coefficient negative at n = 3
    compared = 0
    with localcontext() as ctx:
        ctx.prec = 60
        for census in (census2, census3, census4):
            n = census.n
            log2_n = Decimal(n).ln() / Decimal(2).ln()
            for k in range(-128, 129, 4):
                alpha = Dyadic(k, 4)
                if lutz_size_bound_floor(n, alpha) > census.max_size:
                    continue
                report = mnp_cover_check(n, alpha, census)
                if report.census_count == 0:
                    assert report.log2_count_below_gap
                    continue
                gap = (1 - Decimal(k) / 32) * Decimal(1 << n) / n * log2_n
                log2_count = Decimal(report.census_count).ln() / Decimal(2).ln()
                margin = (1 << n) - gap - log2_count
                if abs(margin) > Decimal("1e-30"):
                    assert report.log2_count_below_gap == (margin > 0), (n, k)
                    compared += 1
    assert compared > 40


def _gap_terms(n: int, alpha: Dyadic) -> tuple[Fraction, Fraction]:
    """``(Q, 2**n - R)`` of condition (ii), as the report splits ``f(N)``."""
    rows = 1 << n
    coeff = (1 - Fraction(alpha.num, 1 << alpha.log_den) / 2) * Fraction(rows, n)
    if n & (n - 1) == 0:
        return Fraction(0), rows - coeff * (n.bit_length() - 1)
    return coeff, Fraction(rows)


def _power_gap_oracle(count: int, n: int, alpha: Dyadic) -> bool:
    """Condition (ii) as the report once decided it: ``log2(count) +
    Q log2(n) < 2**n - R`` cleared to one comparison of integer powers."""
    if count == 0:
        return True
    Q, target = _gap_terms(n, alpha)
    d = math.lcm(target.denominator, Q.denominator)
    a, b = int(Q * d), int(target * d)
    lhs = count**d * n ** max(a, 0) << max(-b, 0)
    return lhs < n ** max(-a, 0) << max(b, 0)


# counts on either side of powers of two, and the reports' own counts
GAP_COUNTS = (1, 2, 3, 5, 14, 40, 84, 255, 256, 886, 2254, 65535, 65536)


@pytest.mark.parametrize("start_bits", [16, 1])  # 1: the first rounds are too coarse
def test_gap_condition_matches_power_oracle(monkeypatch, cache_dir, start_bits):
    # every n in {2, 3, 4} and alpha = k/16, -128 <= k <= 64: the report's
    # own count wherever the size-8 census reaches the floor, and a spread of
    # counts through the bracket helper for all 579 cases
    monkeypatch.setattr(circuits, "_BRACKET_BITS", start_bits)
    censuses = {n: cached_census(n, 8, cache_dir) for n in (2, 3, 4)}
    reported = cases = 0
    for n, census in censuses.items():
        for k in range(-128, 65):
            alpha = Dyadic(k, 4)
            if lutz_size_bound_floor(n, alpha) <= census.max_size:
                report = mnp_cover_check(n, alpha, census)
                expected = _power_gap_oracle(report.census_count, n, alpha)
                assert report.log2_count_below_gap == expected, (n, k)
                reported += 1
            Q, target = _gap_terms(n, alpha)
            d = math.lcm(Q.denominator, target.denominator)  # the helper takes numerators over d
            for count in GAP_COUNTS:
                if count <= 1 << (1 << n):
                    expected = _power_gap_oracle(count, n, alpha)
                    verdict = circuits._log2_below(count, n, int(Q * d), int(target * d), d)
                    assert verdict == expected, (n, k, count)
            cases += 1
    assert cases == 579 and reported > 500


def test_census_report_at_fine_alpha_ends(tmp_path, capsys):
    # alpha = 2**-26 once raised the count to the power 2**26
    start = time.perf_counter()
    assert main(["census", "-n", "2", "-S", "4", "--alpha=1/67108864",
                 "--cache-dir", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 30
    out = capsys.readouterr().out
    assert "f(N)=134217727/67108864: no" in out


def _bound_decimal(n: int, alpha: Dyadic) -> Decimal:
    """``(48 e s)**s`` in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        log2_n = Decimal(n).ln() / Decimal(2).ln()
        a = Decimal(alpha.num) / (1 << alpha.log_den)
        s = Decimal(1 << n) / n * (1 + a * log2_n / n)
        return (s * (48 * Decimal(1).exp() * s).ln()).exp()


@pytest.mark.parametrize("start_bits", [16, 1])  # 1: the first rounds are too coarse
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("alpha_text", ["-1/2", "1/4", "1/2", "3/4"])
def test_analytic_bound_on_either_side_of_threshold(
    monkeypatch, start_bits, n, alpha_text
):
    monkeypatch.setattr(circuits, "_BRACKET_BITS", start_bits)
    alpha = Dyadic.parse(alpha_text)
    bound = _bound_decimal(n, alpha)
    below = int(bound)
    assert min(bound - below, below + 1 - bound) > Decimal("1e-20")
    assert circuits._analytic_bound(below, n, alpha)
    assert not circuits._analytic_bound(below + 1, n, alpha)


def test_brackets_contain_their_values():
    # the integer brackets: e as (num, den) pairs, log2 as numerators over
    # 2**g, and the size bound as numerators over n**2 2**(k + g)
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Decimal(2).ln()
        for terms in range(1, 30):
            (lo, lo_den), (hi, hi_den) = circuits._e_bounds(terms)
            assert Decimal(lo) / lo_den < Decimal(1).exp() < Decimal(hi) / hi_den
        for g in (1, 4, 16, 64):
            for m in (1, 2, 3, 5, 8, 1000, 3**40):
                lo, hi = circuits._log2_bracket(m, g)
                assert hi - lo == (0 if m & (m - 1) == 0 else 1)
                log2_m = Decimal(m).ln() / ln2
                assert Decimal(lo) / (1 << g) <= log2_m <= Decimal(hi) / (1 << g)
            for n in (2, 3, 5):
                for k in (-40, -3, 0, 7, 64):
                    alpha = Dyadic(k, 4)
                    lo, hi, den = circuits._size_bracket(n, alpha, g)
                    assert den == n * n << alpha.log_den + g
                    size = Decimal(1 << n) / n * (1 + Decimal(k) / 16 * Decimal(n).ln() / ln2 / n)
                    assert lo <= hi
                    assert Decimal(lo) / den <= size <= Decimal(hi) / den
                    assert (lo == hi) == (n & (n - 1) == 0 or k == 0)


def test_reports_decide_in_one_round(monkeypatch, cache_dir):
    # the first grid decides every report for n <= 4 and alpha = k/16,
    # -8 <= alpha <= 4, as _BRACKET_BITS says, and both verdicts for the
    # spread of counts: with the cap at the start, a second round would raise
    monkeypatch.setattr(circuits, "_BRACKET_CAP", circuits._BRACKET_BITS)
    reported = decided = 0
    for n in (2, 3, 4):
        census = cached_census(n, 8, cache_dir)
        for k in range(-128, 65):
            alpha = Dyadic(k, 4)
            s_floor = lutz_size_bound_floor(n, alpha)
            if s_floor <= census.max_size:
                mnp_cover_check(n, alpha, census)
                reported += 1
            Q, target = _gap_terms(n, alpha)
            d = math.lcm(Q.denominator, target.denominator)
            for count in GAP_COUNTS:
                if count <= 1 << (1 << n):
                    circuits._log2_below(count, n, int(Q * d), int(target * d), d)
                    if s_floor >= 0:  # s >= 0, where the analytic bound is read
                        circuits._analytic_bound(count, n, alpha)
                    decided += 1
    assert reported > 500 and decided > 5000


def _float_verdict(count: int, n: int, alpha: Dyadic) -> bool | None:
    """The float comparison the analytic bound once used, or ``None`` where
    its margin is not wide."""
    a = alpha.num / (1 << alpha.log_den)
    s = (2**n / n) * (1 + a * math.log2(n) / n)
    lhs = math.log2(count)
    rhs = s * (math.log2(48 * math.e) + math.log2(s))
    if abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs), abs(rhs)):
        return None
    return lhs <= rhs


def test_analytic_bound_matches_float_oracle_where_margin_is_wide():
    compared = 0
    for n in (2, 3, 4):
        for k in range(-24, 65, 3):  # s > 0 for every such alpha
            alpha = Dyadic(k, 4)
            for count in (1, 5, 14, 40, 886, 17244, 10**6, 10**12):
                expected = _float_verdict(count, n, alpha)
                if expected is not None:
                    assert circuits._analytic_bound(count, n, alpha) == expected
                    compared += 1
    assert compared > 700


def test_analytic_bound_at_zero_size_reads_one(census2):
    # alpha = -2 at n = 2 puts s at exactly 0, where (48 e s)**s = 0**0 = 1
    report = mnp_cover_check(2, Dyadic(-2), census2)
    assert report.size_bound_floor == 0
    assert report.census_count == 4
    assert not report.analytic_bound_holds
    assert circuits._analytic_bound(1, 2, Dyadic(-2))


def test_analytic_bound_undecided_at_precision_cap(monkeypatch):
    alpha = Dyadic(1, 2)
    below = int(_bound_decimal(3, alpha))
    monkeypatch.setattr(circuits, "_BRACKET_CAP", circuits._BRACKET_BITS)
    with pytest.raises(IndeterminateComparison):
        circuits._analytic_bound(below + 1, 3, alpha)


def test_mnp_cover_check_degenerate_input(census2):
    with pytest.raises(DegenerateParameter):
        mnp_cover_check(1, Dyadic(0), census2)


def test_mnp_cover_check_needs_complete_census():
    small = build_census(4, 3)
    with pytest.raises(CensusUnavailable):
        mnp_cover_check(4, Dyadic(0), small)


def test_mnp_cover_check_needs_a_census_of_its_n(census2):
    # the n = 2 census counts 14 tables within the n = 3 floor; it is refused
    assert census2.count_at_most(lutz_size_bound_floor(3, Dyadic(1, 1))) == 14
    with pytest.raises(CensusUnavailable, match="need a census for n=3 up to size 3, have n=2"):
        mnp_cover_check(3, Dyadic(1, 1), census2)


def test_circuit_direct_construction():
    ops = (("VAR", 0), ("CONST", 1), ("AND",))
    assert census_v2.gates(ops) == 1
    assert census_v2.table_bits(1, table_mask(1, ops)) == BitString("01")
    for bad in (
        (("NOT",),),  # underflow
        (("VAR", 0), ("CONST", 1)),  # two values left
    ):
        assert table_mask(1, bad) is None
    for bad in (
        (("VAR", 0), ("XOR",)),  # outside the basis
        (("VAR", 1),),  # no such variable
    ):
        with pytest.raises(ValueError):
            table_mask(1, bad)


def _reference_witness_verify(n: int, s: int):
    """The witness check with its own stack loop over table masks: the
    reference the shared evaluator is checked against."""
    max_ops = 2 * s + 1
    header_bits = max(1, max_ops.bit_length())
    ref_width = max(1, (n + 1).bit_length())
    var_masks = [sum(1 << j for j in range(1 << n) if (j >> i) & 1) for i in range(n)]
    full = (1 << (1 << n)) - 1

    def verify(x: BitString, y: BitString) -> bool:
        bits = y.bits()
        k = int(bits[:header_bits], 2)
        if not 1 <= k <= max_ops:
            return False
        stack: list[int] = []
        gates = 0
        at = header_bits  # each op: its 2-bit code, then a push's ref
        for _ in range(k):
            code = bits[at : at + 2]
            at += 2
            if code == "00":
                if at + ref_width > len(bits):
                    return False
                ref = int(bits[at : at + ref_width], 2)
                at += ref_width
                if ref >= n + 2:
                    return False
                stack.append(var_masks[ref] if ref < n else (full if ref == n + 1 else 0))
                continue
            if len(code) < 2:
                return False
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
        if "1" in bits[at:] or len(stack) != 1 or gates > s:
            return False
        return stack[0] == TruthTable.from_bits(x).mask

    return verify


@pytest.mark.parametrize("n, s", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_mcsp_witness_verify_matches_reference_on_full_cube(n, s):
    rel = mcsp_witness_relation(n, s)
    reference = _reference_witness_verify(n, s)
    length = rel.witness_length(1 << n)
    tables = [BitString.from_int(v, 1 << n) for v in range(1 << (1 << n))]
    accepted = 0
    for y in range(1 << length):
        inputs = list(rel.accepts(1 << n, y))
        y_bits = BitString.from_int(y, length)  # the reference decodes text
        for x in tables:
            verdict = x.to_int() in inputs
            assert verdict == reference(x, y_bits), (x, y_bits)
            accepted += verdict
    assert accepted > 0
