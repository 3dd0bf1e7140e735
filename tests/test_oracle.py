import pytest
from hypothesis import given, settings, strategies as st

from martlab.cantor import BitString, all_strings
from martlab.circuits import mcsp_witness_relation
from martlab.errors import CapExceeded, SpanModeUnavailable, UniquenessViolation
from martlab.oracle import (
    CountMode,
    WitnessRelation,
    count,
    decide_unique,
    exists,
    explicit_set_relation,
    sat_relation,
)


def test_sat_count_example():
    rel = sat_relation(2)
    or_table = BitString("0111")  # rows 00,01,10,11 of (v1 or v2)
    assert count(rel, CountMode.WITNESS_COUNT, or_table) == 3
    assert count(rel, CountMode.DISTINCT_OUTPUT_COUNT, or_table) == 3
    assert count(rel, CountMode.ACCEPT_MINUS_REJECT, or_table) == 2


def test_reject_everything():
    rel = WitnessRelation("never", lambda n: 3, lambda x, y: False)
    x = BitString("01")
    assert count(rel, CountMode.WITNESS_COUNT, x) == 0
    assert count(rel, CountMode.ACCEPT_MINUS_REJECT, x) == -8


def test_constant_emit_collapses_span():
    rel = WitnessRelation(
        "const-emit",
        lambda n: 2,
        lambda x, y: True,
        emit=lambda x, y: BitString("1"),
    )
    x = BitString("0")
    assert count(rel, CountMode.WITNESS_COUNT, x) == 4
    assert count(rel, CountMode.DISTINCT_OUTPUT_COUNT, x) == 1


def test_span_needs_emit():
    rel = WitnessRelation("no-emit", lambda n: 1, lambda x, y: True)
    with pytest.raises(SpanModeUnavailable):
        count(rel, CountMode.DISTINCT_OUTPUT_COUNT, BitString("0"))


def test_cap_enforced():
    rel = WitnessRelation("wide", lambda n: 23, lambda x, y: True)
    with pytest.raises(CapExceeded):
        count(rel, CountMode.WITNESS_COUNT, BitString("0"))


def test_decide_unique():
    members = explicit_set_relation("set", ["01", "10"])
    assert decide_unique(members, BitString("01"))
    assert not decide_unique(members, BitString("11"))

    doubled = WitnessRelation("two-witness", lambda n: 1, lambda x, y: True)
    with pytest.raises(UniquenessViolation):
        decide_unique(doubled, BitString("0"))

    empty = explicit_set_relation("empty", [])
    assert not decide_unique(empty, BitString("0"))


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**8 - 1),
    st.integers(min_value=0, max_value=255),
)
def test_mode_laws(table_bits, x_val):
    # witness: y accepted iff bit y of an 8-row table is set; emit folds y mod 2
    table = [(table_bits >> i) & 1 for i in range(8)]
    rel = WitnessRelation(
        "table",
        lambda n: 3,
        lambda x, y: table[y.to_int()] == 1,
        emit=lambda x, y: BitString.from_int(y.to_int() % 2, 1),
    )
    x = BitString.from_int(x_val, 8)
    witnesses = count(rel, CountMode.WITNESS_COUNT, x)
    span = count(rel, CountMode.DISTINCT_OUTPUT_COUNT, x)
    gap = count(rel, CountMode.ACCEPT_MINUS_REJECT, x)
    assert span <= witnesses
    assert gap == 2 * witnesses - 8
    # bit-exact reproducibility
    assert witnesses == count(rel, CountMode.WITNESS_COUNT, x)


def test_injective_emit_matches_witness_count():
    rel = sat_relation(3)
    x = BitString("10010110")
    assert count(rel, CountMode.WITNESS_COUNT, x) == count(
        rel, CountMode.DISTINCT_OUTPUT_COUNT, x
    )


# -- first-witness membership ------------------------------------------------


def _relations():
    from martlab.kolmogorov import kolmogorov_witness_relation
    from martlab.machine import BudgetPoly

    short = kolmogorov_witness_relation(4, BudgetPoly(4, 1, 16))
    return [
        (sat_relation(2), [all_strings(4)]),
        (sat_relation(3), [all_strings(8)]),
        (mcsp_witness_relation(2, 1), [all_strings(4)]),
        (mcsp_witness_relation(2, 0), [all_strings(4)]),
        (short, [all_strings(n) for n in range(6)]),
    ]


def test_exists_matches_positive_count():
    for rel, groups in _relations():
        answers = set()
        for group in groups:
            for x in group:
                expected = count(rel, CountMode.WITNESS_COUNT, x) > 0
                assert exists(rel, x) is expected
                answers.add(expected)
        # every relation here has both members and non-members
        assert answers == {True, False}, rel.name


def test_exists_stops_at_first_witness():
    seen = []

    def verify(x, y):
        seen.append(y.to_int())
        return y.to_int() >= 5

    rel = WitnessRelation("from-five", lambda n: 4, verify)
    assert exists(rel, BitString("0"))
    assert seen == list(range(6))


def test_exists_checks_cap_before_verifying():
    seen = []
    rel = WitnessRelation(
        "wide", lambda n: 23, lambda x, y: seen.append(y) or True
    )
    with pytest.raises(CapExceeded):
        exists(rel, BitString("0"))
    assert seen == []
