import pytest
from hypothesis import given, settings, strategies as st

from martlab.cantor import BitString, all_strings
from martlab.circuits import mcsp_witness_relation
from martlab.constructions import Cover
from martlab.errors import CapExceeded, SpanModeUnavailable, UniquenessViolation
from martlab.oracle import (
    CountMode,
    WitnessRelation,
    count,
    explicit_set_relation,
    level_counts,
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
    members = Cover.from_relation(
        explicit_set_relation("set", ["01", "10"]), 2, "unique"
    )
    assert [members.contains(x) for x in all_strings(2)] == [
        False, True, True, False
    ]
    assert members.ext_count(BitString("")) == 2
    assert members.class_tag == "#P"

    doubled = WitnessRelation("two-witness", lambda n: 1, lambda x, y: True)
    cover = Cover.from_relation(doubled, 1, "unique")
    with pytest.raises(UniquenessViolation, match="two-witness: 2 witnesses on"):
        cover.ext_count(BitString(""))
    with pytest.raises(UniquenessViolation):
        cover.contains(BitString("0"))

    empty = Cover.from_relation(explicit_set_relation("empty", []), 1, "unique")
    assert not empty.contains(BitString("0"))
    assert empty.ext_count(BitString("")) == 0


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


# -- exists covers against per-input counts ----------------------------------


def _relations():
    from martlab.kolmogorov import kolmogorov_witness_relation
    from martlab.machine import BudgetPoly

    short = kolmogorov_witness_relation(4, BudgetPoly(4, 1, 16))
    return [
        (sat_relation(2), [4]),
        (sat_relation(3), [8]),
        (mcsp_witness_relation(2, 1), [4]),
        (mcsp_witness_relation(2, 0), [4]),
        (short, range(6)),
    ]


def test_exists_matches_positive_count():
    for rel, levels in _relations():
        answers = set()
        for n in levels:
            cover = Cover.from_relation(rel, n, "exists")
            for x in all_strings(n):
                expected = count(rel, CountMode.WITNESS_COUNT, x) > 0
                assert cover.contains(x) is expected
                answers.add(expected)
        # every relation here has both members and non-members
        assert answers == {True, False}, rel.name


def test_level_counts_check_cap_before_verifying():
    seen = []

    def verify(x, y):
        seen.append(y)
        return True

    wide = WitnessRelation("wide", lambda n: 23, verify)
    with pytest.raises(CapExceeded, match="witness length 23 exceeds cap 22"):
        level_counts(wide, 2)
    negative = WitnessRelation("negative", lambda n: -1, verify)
    with pytest.raises(ValueError, match="negative witness length -1"):
        level_counts(negative, 2)
    assert seen == []
