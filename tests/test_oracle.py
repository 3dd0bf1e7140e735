"""The counting oracle, and the per-input counter it replaced in its three
modes: witness count, distinct outputs (SpanP) and accept-minus-reject
(GapP), now the test twin in ``relations_v1``."""

import pytest
from hypothesis import given, settings, strategies as st

from martlab.cantor import BitString, all_strings
from martlab.circuits import mcsp_witness_relation
from martlab.constructions import Cover
from martlab.errors import CapExceeded, UniquenessViolation
from martlab.oracle import (
    WitnessRelation,
    count,
    explicit_set_relation,
    level_counts,
    sat_relation,
)

import relations_v1
from relations_v1 import CountMode, SpanModeUnavailable, VerifyRelation

WITNESS, SPAN, GAP = (
    CountMode.WITNESS_COUNT,
    CountMode.DISTINCT_OUTPUT_COUNT,
    CountMode.ACCEPT_MINUS_REJECT,
)


def test_sat_count_example():
    rel = sat_relation(2)
    or_table = BitString("0111")  # rows 00,01,10,11 of (v1 or v2)
    assert count(rel, or_table) == 3
    twin = relations_v1.twin(rel, relations_v1.sat_verify(2))
    assert relations_v1.count(twin, WITNESS, or_table) == 3
    assert relations_v1.count(twin, SPAN, or_table) == 3
    assert relations_v1.count(twin, GAP, or_table) == 2


def test_reject_everything():
    x = BitString("01")
    assert count(WitnessRelation("never", lambda n: 3, lambda n, y: ()), x) == 0
    twin = VerifyRelation("never", lambda n: 3, lambda x, y: False)
    assert relations_v1.count(twin, WITNESS, x) == 0
    assert relations_v1.count(twin, GAP, x) == -8


def test_constant_emit_collapses_span():
    rel = VerifyRelation(
        "const-emit",
        lambda n: 2,
        lambda x, y: True,
        emit=lambda x, y: BitString("1"),
    )
    x = BitString("0")
    assert relations_v1.count(rel, WITNESS, x) == 4
    assert relations_v1.count(rel, SPAN, x) == 1


def test_span_needs_emit():
    rel = VerifyRelation("no-emit", lambda n: 1, lambda x, y: True)
    with pytest.raises(SpanModeUnavailable):
        relations_v1.count(rel, SPAN, BitString("0"))


def test_cap_enforced():
    rel = WitnessRelation("wide", lambda n: 23, lambda n, y: range(1 << n))
    with pytest.raises(CapExceeded):
        count(rel, BitString("0"))


def test_decide_unique():
    members = Cover.from_relation(
        explicit_set_relation("set", ["01", "10"]), 2, "unique"
    )
    assert [members.contains(x) for x in all_strings(2)] == [
        False, True, True, False
    ]
    assert members.count(BitString("")) == 2

    doubled = WitnessRelation("two-witness", lambda n: 1, lambda n, y: range(1 << n))
    cover = Cover.from_relation(doubled, 1, "unique")
    with pytest.raises(UniquenessViolation, match="two-witness: 2 witnesses on"):
        cover.count(BitString(""))
    with pytest.raises(UniquenessViolation):
        cover.contains(BitString("0"))

    empty = Cover.from_relation(explicit_set_relation("empty", []), 1, "unique")
    assert not empty.contains(BitString("0"))
    assert empty.count(BitString("")) == 0


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**8 - 1),
    st.integers(min_value=0, max_value=255),
)
def test_mode_laws(table_bits, x_val):
    # witness: y accepted iff bit y of an 8-row table is set; emit folds y mod 2
    table = [(table_bits >> i) & 1 for i in range(8)]
    rel = VerifyRelation(
        "table",
        lambda n: 3,
        lambda x, y: table[y.to_int()] == 1,
        emit=lambda x, y: BitString.from_int(y.to_int() % 2, 1),
    )
    x = BitString.from_int(x_val, 8)
    witnesses = relations_v1.count(rel, WITNESS, x)
    span = relations_v1.count(rel, SPAN, x)
    gap = relations_v1.count(rel, GAP, x)
    assert span <= witnesses
    assert gap == 2 * witnesses - 8
    # bit-exact reproducibility
    assert witnesses == relations_v1.count(rel, WITNESS, x)
    # the oracle's form of the same relation: every witness whose table bit
    # is set accepts every input
    accepts = WitnessRelation("table", lambda n: 3,
                              lambda n, y: range(1 << n) if table[y] else ())
    assert count(accepts, x) == witnesses


def test_injective_emit_matches_witness_count():
    rel = relations_v1.twin(sat_relation(3), relations_v1.sat_verify(3))
    x = BitString("10010110")
    assert relations_v1.count(rel, WITNESS, x) == relations_v1.count(rel, SPAN, x)


# -- exists covers against per-input counts ----------------------------------


def _relations():
    from martlab.kolmogorov import kolmogorov_witness_relation
    from martlab.machine import BudgetPoly

    budget = BudgetPoly(4, 1, 16)
    return [
        (sat_relation(2), relations_v1.sat_verify(2), [4]),
        (sat_relation(3), relations_v1.sat_verify(3), [8]),
        (mcsp_witness_relation(2, 1), relations_v1.mcsp_verify(2, 1), [4]),
        (mcsp_witness_relation(2, 0), relations_v1.mcsp_verify(2, 0), [4]),
        (kolmogorov_witness_relation(4, budget),
         relations_v1.short_program_verify(4, budget), range(6)),
    ]


def test_exists_matches_positive_count():
    for rel, verify, levels in _relations():
        twin = relations_v1.twin(rel, verify)
        answers = set()
        for n in levels:
            cover = Cover.from_relation(rel, n, "exists")
            for x in all_strings(n):
                expected = relations_v1.count(twin, WITNESS, x) > 0
                assert cover.contains(x) is expected
                answers.add(expected)
        # every relation here has both members and non-members
        assert answers == {True, False}, rel.name


def test_level_counts_check_cap_before_verifying():
    seen = []

    def accepts(n, y):
        seen.append(y)
        return range(1 << n)

    wide = WitnessRelation("wide", lambda n: 23, accepts)
    with pytest.raises(CapExceeded, match="witness length 23 exceeds cap 22"):
        level_counts(wide, 2)
    negative = WitnessRelation("negative", lambda n: -1, accepts)
    with pytest.raises(ValueError, match="negative witness length -1"):
        level_counts(negative, 2)
    assert seen == []
