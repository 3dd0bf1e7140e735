import math
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from martlab import kolmogorov, machine
from martlab.cantor import EMPTY, BitString
from martlab.kolmogorov import DEFAULT_LENGTH_CAP
from martlab.machine import (
    BudgetPoly,
    C_LIT,
    C_PAIR,
    encode_literal,
    encode_run,
    encode_table,
    gamma_length,
    run,
    table_mask,
)

import machine_v1
from machine_v1 import encode_pair, encode_repeat, pairing_budget


def out(program, budget=10_000):
    return run(program, budget).output


def test_literal_prints_itself():
    for text in ("", "0", "0101", "1" * 14):
        assert out(encode_literal(BitString(text))) == BitString(text)


def test_literal_overhead_within_constant():
    # every string the kt table holds has its literal within C_LIT bits, so a
    # longer length cap needs a larger constant (and a new machine version)
    for length in range(DEFAULT_LENGTH_CAP + 1):
        assert 2 + gamma_length(length + 1) <= C_LIT
        program = encode_literal(BitString("1" * length))
        assert len(program) <= length + C_LIT


def test_empty_program_diverges():
    assert run(EMPTY, 100).output is None


def test_trailing_bits_diverge():
    program = encode_literal(BitString("01")).append(1)
    assert run(program, 100).output is None


def test_pair_concatenates():
    p = encode_pair(encode_literal(BitString("01")), encode_literal(BitString("10")))
    assert out(p) == BitString("0110")


def test_pair_overhead_law():
    rnd = random.Random(1)
    for _ in range(50):
        first = encode_literal(
            BitString(format(rnd.getrandbits(8), "08b")[: rnd.randrange(1, 9)])
        )
        second = encode_literal(BitString("1" * rnd.randrange(5)))
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
    p = encode_repeat(3, encode_literal(BitString("011")))
    assert out(p) == BitString("011011011")


def test_nested_terms():
    inner = encode_pair(encode_run(1, 2), encode_literal(BitString("0")))
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
    assert run(bad, 1000).output is None
    underflow = encode_table(2, (("NOT",),))
    assert run(underflow, 1000).output is None


def test_determinism():
    rnd = random.Random(2)
    for _ in range(200):
        bits = BitString.from_int(rnd.getrandbits(16), 16)
        first = run(bits, 500)
        second = run(bits, 500)
        assert first.output == second.output and first.steps == second.steps


def test_budget_exhaustion_is_divergence():
    p = encode_run(1, 16)
    full = run(p, 10_000)
    assert full.output is not None
    assert run(p, full.steps - 1).output is None
    assert not run(p, full.steps).output is None


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
        program = encode_repeat(k, encode_literal(BitString("1")))
        assert out(program) == BitString("1" * k)
        assert gamma_length(k) == len(_gamma_text(k))


def _gamma_text(m: int) -> str:
    """The Elias code of ``m`` as text: a zero per bit after the first."""
    return "0" * (m.bit_length() - 1) + format(m, "b")


class _RowRunner(machine_v1.Runner):
    """The machine with its table op run row by row, one stack per row: the
    reference the mask-level table op is checked against."""

    def term(self) -> str:
        if self.bits[self.pos : self.pos + 2] != "11":
            return super().term()
        self.read(2)
        n = self.read_gamma() - 1
        if n < 1:
            raise machine_v1.Diverge
        m = self.read_gamma() - 1
        if m < 1:
            raise machine_v1.Diverge
        ref_width = max(1, (n + 1).bit_length())
        ops: list[tuple[int, int]] = []
        for _ in range(m):
            code = self.read(2)
            if code == "00":
                ref = int(self.read(ref_width), 2)
                if ref >= n + 2:
                    raise machine_v1.Diverge
                ops.append((0, ref))
            else:
                ops.append((int(code, 2), 0))
        depth = 0
        for kind, _ in ops:
            if kind == 0:
                depth += 1
            elif kind == 1:
                if depth < 1:
                    raise machine_v1.Diverge
            else:
                if depth < 2:
                    raise machine_v1.Diverge
                depth -= 1
        if depth != 1:
            raise machine_v1.Diverge
        rows = []
        for row in range(1 << n):
            stack: list[int] = []
            for kind, ref in ops:
                self.steps += 1
                if self.steps > self.budget:
                    raise machine_v1.Diverge
                if kind == 0:
                    stack.append((row >> ref) & 1 if ref < n else ref - n)
                elif kind == 1:
                    stack.append(1 - stack.pop())
                elif kind == 2:
                    stack.append(stack.pop() & stack.pop())
                else:
                    stack.append(stack.pop() | stack.pop())
            rows.append("1" if stack[0] else "0")
        body = "".join(rows)
        self.emit(body)
        return body


def run_rowwise(bits: str, budget: int) -> tuple:
    return machine_v1.finish(_RowRunner(bits, budget))


def _result(bits: str, budget: int) -> tuple:
    """``run`` on the program text ``bits``, as ``(text or None, steps)``."""
    result = run(BitString(bits), budget)
    return None if result.output is None else result.output.bits(), result.steps


@pytest.mark.parametrize("budget", [5, 30, 200, 5000])
def test_run_matches_rowwise_tables_on_every_short_program(budget):
    # diverged runs included: the step count at divergence must agree too
    for length in range(15):
        for value in range(1 << length):
            bits = format(value, f"0{length}b") if length else ""
            expected = machine_v1.run(bits, budget)
            assert _result(bits, budget) == expected == run_rowwise(bits, budget), bits


def test_run_matches_rowwise_tables_on_kt_table_leaves():
    leaves = [p.bits() for p in kolmogorov._leaves(23, 14, 5000)]
    tables = {bits for bits in leaves if bits.startswith("11")}
    assert len(tables) == 255
    for bits in leaves:
        steps = machine_v1.run(bits, 5000)[1]
        # a tight budget (t(14) under 4n+16), an ample one, and both sides of
        # the program's own step count
        for budget in (72, 5000, steps, steps - 1):
            expected = machine_v1.run(bits, budget)
            assert _result(bits, budget) == expected, (bits, budget)
            if bits in tables:
                assert expected == run_rowwise(bits, budget), (bits, budget)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stack_programs_are_the_valid_programs_in_bit_order(n):
    gates = [("NOT",), ("AND",), ("OR",)]
    alphabet = [("VAR", i) for i in range(n)] + [("CONST", 0), ("CONST", 1)] + gates
    width = (n + 1).bit_length()
    for m in range(1, 6):
        for max_gates, room in [(m, 99), (1, 99), (m, 2 * m + 3)]:
            # every sequence the stack accepts, within the gate cap and room
            expected = {
                ops for ops in product(alphabet, repeat=m)
                if table_mask(n, ops) is not None
                and sum(op in gates for op in ops) <= max_gates
                and sum(2 if op in gates else 2 + width for op in ops) <= room
            }
            got = list(machine.stack_programs(n, m, room, max_gates))
            assert set(got) == expected, (m, max_gates, room)
            # same header, and no op's bits a prefix of another's: text order
            written = [encode_table(n, ops).bits() for ops in got]
            assert all(a < b for a, b in zip(written, written[1:])), (m, max_gates, room)


def test_run_matches_the_twin_on_long_gamma_codes():
    # a gamma code opens with at most 64 zeros; tails stay short, so no
    # repeat count can make the twin loop for long
    rnd = random.Random(3)
    for zeros in range(60, 70):
        for _ in range(20):
            tail = format(rnd.getrandbits(16), "016b")[: rnd.randrange(17)]
            for head in ("00", "011", "10", "11", "11010"):
                bits = head + "0" * zeros + "1" + tail
                for budget in (40, 80, 10_000):
                    assert _result(bits, budget) == machine_v1.run(bits, budget), bits


def test_huge_declared_table_diverges_at_the_budget():
    # one push of x0 over 40 variables: the 2**40-bit masks are never built
    program = "11" + _gamma_text(41) + _gamma_text(2) + "00" + "0" * 6
    assert _result(program, 10_000) == run_rowwise(program, 10_000) == (None, 10_000)
    # over 2**40 - 1 variables even the row count is too wide to build
    program = "11" + _gamma_text(1 << 40) + _gamma_text(2) + "00" + "0" * 41
    assert _result(program, 10_000) == (None, 10_000)


def _rowwise_mask(n: int, ops) -> int | None:
    mask = 0
    for row in range(1 << n):
        stack: list[int] = []
        for op in ops:
            if op[0] == "VAR":
                stack.append((row >> op[1]) & 1)
            elif op[0] == "CONST":
                stack.append(op[1])
            elif len(stack) < (1 if op[0] == "NOT" else 2):
                return None
            elif op[0] == "NOT":
                stack.append(1 - stack.pop())
            elif op[0] == "AND":
                stack.append(stack.pop() & stack.pop())
            else:
                stack.append(stack.pop() | stack.pop())
        if len(stack) != 1:
            return None
        mask |= stack[0] << row
    return mask


@st.composite
def stack_programs(draw):
    """A postfix program over 1..4 variables: a random expression (well
    formed) one time in two, otherwise any op sequence."""
    n = draw(st.integers(1, 4))
    push = st.sampled_from([("VAR", i) for i in range(n)] + [("CONST", 0), ("CONST", 1)])
    gate = st.sampled_from([("NOT",), ("AND",), ("OR",)])
    if draw(st.booleans()):
        return n, tuple(draw(st.lists(push | gate, max_size=12)))
    ops, depth = [], 0
    for _ in range(draw(st.integers(1, 12))):
        op = draw(push | gate) if depth else draw(push)
        if op[0] in ("AND", "OR") and depth < 2:
            op = ("NOT",)
        ops.append(op)
        depth += {"VAR": 1, "CONST": 1, "NOT": 0}.get(op[0], -1)
    while depth > 1:
        ops.append(draw(st.sampled_from([("AND",), ("OR",)])))
        depth -= 1
    return n, tuple(ops)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(program=stack_programs())
def test_table_mask_matches_rowwise_evaluation(program):
    n, ops = program
    assert table_mask(n, ops) == _rowwise_mask(n, ops)
