import math
import random

import pytest

from martlab.cantor import BitString
from martlab.machine import (
    BudgetPoly,
    C_LIT,
    C_PAIR,
    encode_literal,
    encode_pair,
    encode_repeat,
    encode_run,
    encode_table,
    gamma_bits,
    pairing_budget,
    run,
)


def out(program, budget=10_000):
    return run(program, budget).output


def test_literal_prints_itself():
    for text in ("", "0", "0101", "1" * 14):
        assert out(encode_literal(text)) == BitString(text)


def test_literal_overhead_within_constant():
    for length in range(15):
        program = encode_literal("1" * length)
        assert len(program) <= length + C_LIT


def test_empty_program_diverges():
    assert run("", 100).diverged


def test_trailing_bits_diverge():
    program = encode_literal("01").bits() + "1"
    assert run(program, 100).diverged


def test_pair_concatenates():
    p = encode_pair(encode_literal("01"), encode_literal("10"))
    assert out(p) == BitString("0110")


def test_pair_overhead_law():
    rnd = random.Random(1)
    for _ in range(50):
        first = encode_literal(
            format(rnd.getrandbits(8), "08b")[: rnd.randrange(1, 9)]
        )
        second = encode_literal("1" * rnd.randrange(5))
        paired = encode_pair(first, second)
        assert out(paired) == out(first) + out(second)
        bound = len(first) + len(second) + 2 * math.floor(
            math.log2(len(first))
        ) + C_PAIR
        assert len(paired) <= bound


def test_run_op():
    assert out(encode_run(0, 12)) == BitString("0" * 12)
    assert out(encode_run(1, 16)) == BitString("1" * 16)
    assert len(encode_run(0, 12)) == 8
    with pytest.raises(ValueError):
        encode_run(0, 17)


def test_repeat_general_body():
    p = encode_repeat(3, encode_literal("011"))
    assert out(p) == BitString("011011011")


def test_nested_terms():
    inner = encode_pair(encode_run(1, 2), encode_literal("0"))
    p = encode_repeat(2, inner)
    assert out(p) == BitString("110110")


def test_table_not_gate():
    p = encode_table(1, (("VAR", 0), ("NOT",)))
    assert out(p) == BitString("10")


def test_table_xor():
    ops = (
        ("VAR", 0),
        ("VAR", 1),
        ("OR",),
        ("VAR", 0),
        ("VAR", 1),
        ("AND",),
        ("NOT",),
        ("AND",),
    )
    assert out(encode_table(2, ops)) == BitString("0110")


def test_table_constants():
    assert out(encode_table(2, (("CONST", 1),))) == BitString("1111")
    assert out(encode_table(1, (("CONST", 0),))) == BitString("00")


def test_table_stack_indiscipline_diverges():
    bad = encode_table(2, (("VAR", 0), ("VAR", 1)))  # ends with stack size 2
    assert run(bad, 1000).diverged
    underflow = encode_table(2, (("NOT",),))
    assert run(underflow, 1000).diverged


def test_determinism():
    rnd = random.Random(2)
    for _ in range(200):
        bits = format(rnd.getrandbits(16), "016b")
        first = run(bits, 500)
        second = run(bits, 500)
        assert first.output == second.output and first.steps == second.steps


def test_budget_exhaustion_is_divergence():
    p = encode_run(1, 16)
    full = run(p, 10_000)
    assert not full.diverged
    assert run(p, full.steps - 1).diverged
    assert not run(p, full.steps).diverged


def test_budget_poly():
    t = BudgetPoly(4, 1, 16)
    assert t(10) == 56
    assert t.key() == "4n1p16"
    tp = pairing_budget(t)
    assert tp(10) >= 2 * t(10)


@pytest.mark.parametrize("coefficients", [(1, -1, 0), (-4, 1, 60), (4, 1, -1)])
def test_budget_poly_rejects_negative_coefficients(coefficients):
    # a decreasing budget would make kt pruning and cache reuse unsound
    with pytest.raises(ValueError):
        BudgetPoly(*coefficients)


def test_gamma_roundtrip_via_machine():
    # gamma codes drive every header; spot the values through repeat counts
    for k in (1, 2, 3, 7, 12, 40):
        program = encode_repeat(k, encode_literal("1"))
        assert out(program) == BitString("1" * k)
        assert len(gamma_bits(k)) == 2 * (k.bit_length() - 1) + 1
