"""A pinned toy universal machine with step budgets.

Programs are bit strings held as codes.  A program is one self-delimiting term:

    term := 00 gamma(L+1) <L raw bits>            literal: print the bits
          | 01 0 <b> <k-1: 4 bits>                run: print bit b, k times
                                                  (k in 1..16)
          | 01 1 gamma(k) term                    repeat: print body k times
          | 10 gamma(L1)  term term               pair: concatenate outputs,
                                                  first term is L1 bits long
          | 11 gamma(n+1) gamma(m+1) <m ops>      table: print the 2**n-row
                                                  truth table of a stack
                                                  program over n variables

    op   := 00 <ref: ceil(log2(n+2)) bits>        push var (ref < n) or
                                                  constant (ref = n, n+1)
          | 01                                    NOT   (pops 1, pushes 1)
          | 10                                    AND   (pops 2, pushes 1)
          | 11                                    OR    (pops 2, pushes 1)

``gamma`` is the Elias code: ``floor(log2 m)`` zeros, then ``m`` in binary.
A top-level term must consume the whole program; anything else (bad code,
stack indiscipline, trailing bits, empty program) diverges.  Running costs
one step per bit read, per bit emitted, and per stack op per table row; a
program that exceeds its step budget diverges.

A table term's ops are read by :func:`read_ops`, written by :func:`write_ops`
and enumerated by :func:`stack_programs`; the kt leaves and the ``mcsp-witness``
relation use those three, so no other module knows an op's bits.

The instruction coding above is frozen; changing it invalidates every stored
complexity table, so the version string below must be bumped with any change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cantor import BitString, index_of, mirror

__all__ = [
    "MACHINE_VERSION",
    "C_LIT",
    "C_PAIR",
    "BudgetPoly",
    "RunResult",
    "run",
    "run_code",
    "repeated",
    "gamma_length",
    "encode_literal",
    "encode_run",
    "encode_table",
    "read_ops",
    "write_ops",
    "stack_programs",
    "projection_masks",
    "table_mask",
]

MACHINE_VERSION = "m1"

# literal-print overhead: 2 opcode bits + gamma(L+1) <= 7 bits for L <= 14
C_LIT = 9

# pair overhead beyond 2*floor(log2 |first|): 2 opcode bits + 1 gamma stop bit
C_PAIR = 3


@dataclass(frozen=True)
class BudgetPoly:
    """A step budget ``a * n**k + b`` with small integer coefficients.

    Coefficients are nonnegative, so budgets never decrease with ``n``: the kt
    sweep prunes every run at the budget of the longest output, and a cached
    table built with a larger length cap serves a smaller one.
    """

    a: int
    k: int
    b: int

    def __post_init__(self):
        if min(self.a, self.k, self.b) < 0:
            raise ValueError(
                f"budget coefficients must be nonnegative, got "
                f"({self.a}, {self.k}, {self.b})"
            )

    def __call__(self, n: int) -> int:
        return self.a * n**self.k + self.b

    def key(self) -> str:
        return f"{self.a}n{self.k}p{self.b}"

    def __str__(self) -> str:
        return f"{self.a}*n^{self.k}+{self.b}"


@dataclass(frozen=True)
class RunResult:
    """A run's printed string, ``None`` when it diverged, and its steps."""

    output: BitString | None
    steps: int


class _Diverge(Exception):
    pass


class _Runner:
    __slots__ = ("value", "left", "steps", "budget")

    def __init__(self, code: int, budget: int):
        self.left = code.bit_length() - 1  # bits not yet read
        self.value = code ^ (1 << self.left)
        self.steps = 0
        self.budget = budget

    def read(self, k: int) -> int:
        if k > self.left:
            raise _Diverge
        self.steps += k
        if self.steps > self.budget:
            raise _Diverge
        self.left -= k
        return self.value >> self.left & ((1 << k) - 1)

    def read_gamma(self) -> int:
        # the zeros and the stop bit are read at once, each costing a step
        zeros = self.left - (self.value & ((1 << self.left) - 1)).bit_length()
        if zeros > 64 or zeros == self.left:  # no stop bit within reach
            self.read(min(zeros, 65))
            raise _Diverge
        self.read(zeros + 1)
        return (1 << zeros) | self.read(zeros)

    def emit(self, length: int) -> None:
        self.steps += length
        if self.steps > self.budget:
            raise _Diverge

    def term(self) -> tuple[int, int]:
        """The term's output as ``(value, length)``."""
        opcode = self.read(2)
        if opcode == 0:  # literal
            length = self.read_gamma() - 1
            body = self.read(length)
            self.emit(length)
            return body, length
        if opcode == 1:  # run / repeat
            if self.read(1) == 0:
                bit = self.read(1)
                k = self.read(4) + 1
                self.emit(k)
                return bit * ((1 << k) - 1), k
            k = self.read_gamma()
            body, length = self.term()  # printed once, then k more times
            self.emit(k * length)
            return repeated(body, length, k), k * length
        if opcode == 2:  # pair
            first_len = self.read_gamma()
            stop = self.left - first_len
            left, left_len = self.term()
            if self.left != stop:
                raise _Diverge
            right, right_len = self.term()
            return left << right_len | right, left_len + right_len
        # table
        n = self.read_gamma() - 1
        if n < 1:
            raise _Diverge
        m = self.read_gamma() - 1
        ops, used = read_ops(n, m, self.value, self.left)
        self.read(used)
        if ops is None:  # an empty program too; decided before any row is paid
            raise _Diverge
        # every op runs once per row; a budget below 2**b steps is already
        # exceeded by 2**b rows, so the shift stops at b bits
        self.steps += m << min(n, self.budget.bit_length())
        if self.steps > self.budget:
            raise _Diverge
        rows = 1 << n
        self.emit(rows)
        return mirror(table_mask(n, ops), rows), rows


def run(program: BitString, budget: int) -> RunResult:
    """Execute a program under a step budget; divergence is a value."""
    output, steps = run_code(index_of(program) + 1, budget)
    return RunResult(None if output is None else BitString.from_int(*output), steps)


def run_code(code: int, budget: int) -> tuple:
    """:func:`run` on a program's code: ``((value, length) or None, steps)``."""
    runner = _Runner(code, budget)
    try:
        output = runner.term()
    except _Diverge:
        return None, min(runner.steps, budget)
    return (None if runner.left else output), runner.steps  # trailing bits diverge


def repeated(value: int, width: int, k: int) -> int:
    """``k`` copies of the ``width``-bit number ``value``, end to end."""
    return value * ((1 << width * k) - 1) // ((1 << width) - 1) if width else 0


def gamma_length(m: int) -> int:
    """Bits in the Elias code of ``m >= 1``, which is ``m`` in that many bits."""
    if m < 1:
        raise ValueError("gamma codes positive integers only")
    return 2 * m.bit_length() - 1


def _head(opcode: int, width: int, m: int) -> BitString:
    """A ``width``-bit opcode, then the gamma code of ``m``."""
    return BitString.from_int(opcode << gamma_length(m) | m, width + gamma_length(m))


def encode_literal(x: BitString) -> BitString:
    return _head(0b00, 2, len(x) + 1) + x


def encode_run(bit: int, k: int) -> BitString:
    """The 8-bit run form; counts above 16 need nesting or general repeat."""
    if not 1 <= k <= 16:
        raise ValueError("run counts 1..16 only")
    return BitString.from_int(0b010 << 5 | (1 if bit else 0) << 4 | k - 1, 8)


def encode_table(n: int, ops: tuple) -> BitString:
    """Encode a postfix stack program over ``n`` variables.

    ``ops`` entries are ``("VAR", i)``, ``("CONST", b)``, ``("NOT",)``,
    ``("AND",)``, ``("OR",)``.
    """
    if n < 1:
        raise ValueError("table needs at least one variable")
    head = _head(0b11, 2, n + 1) + _head(0, 0, len(ops) + 1)
    return head + BitString.from_int(*write_ops(n, ops))


# -- stack programs over truth-table masks ---------------------------------
# Bit ``j`` of a mask is table row ``j``, which sets variable ``i`` to
# ``(j >> i) & 1``, so one bitwise op runs a gate on every row at once.

# op -> (2-bit opcode, operands popped); VAR and CONST share the push opcode
TABLE_OPS = {
    "VAR": (0b00, 0),
    "CONST": (0b00, 0),
    "NOT": (0b01, 1),
    "AND": (0b10, 2),
    "OR": (0b11, 2),
}
GATES = {code: (op,) for op, (code, pops) in TABLE_OPS.items() if pops}


def ref_width(n: int) -> int:
    """Bits in a push ref: ``ceil(log2(n + 2))``, at least one."""
    return max(1, (n + 1).bit_length())


def read_ops(n: int, m: int, value: int, left: int) -> tuple:
    """``(ops, used)``: the ``m`` ops at the top of ``value``'s low ``left``
    bits, and the bits read.  ``ops`` is ``None`` when the bits run out
    (``used`` stops before that read), a ref is past both constants, or the
    stack underflows or ends with other than one value."""
    width = ref_width(n)
    ops, depth, low, used = [], 0, 0, 0
    for _ in range(m):
        if used + 2 > left:
            return None, used
        used += 2
        op = GATES.get(value >> left - used & 3)
        if op is None:
            if used + width > left:
                return None, used
            used += width
            ref = value >> left - used & (1 << width) - 1
            if ref >= n + 2:
                return None, used
            op = ("VAR", ref) if ref < n else ("CONST", ref - n)
        ops.append(op)
        pops = TABLE_OPS[op[0]][1]
        low, depth = min(low, depth - pops), depth + 1 - pops
    return (ops if low >= 0 and depth == 1 else None), used


def write_ops(n: int, ops) -> tuple[int, int]:
    """The bits of ``ops`` over ``n`` variables as ``(value, length)``: each
    op's 2-bit opcode, then a push's ref.  :func:`read_ops` reads them back."""
    width = ref_width(n)
    value = length = 0
    for op in ops:
        if op[0] not in TABLE_OPS:
            raise ValueError(f"unknown op {op!r}")
        code, pops = TABLE_OPS[op[0]]
        value, length = value << 2 | code, length + 2
        if not pops:  # a push's ref: a variable, then the constants 0 and 1
            ref = op[1] if op[0] == "VAR" else n + op[1]
            value, length = value << width | ref, length + width
    return value, length


def stack_programs(n: int, m: int, room: int, max_gates: int):
    """Every program of ``m`` ops over ``n`` variables, at most ``max_gates``
    of them gates, that :func:`read_ops` accepts from ``room`` bits, in
    increasing order of their :func:`write_ops` bits: ops are tried in
    opcode-then-ref order, and no op's bits are a prefix of another's."""
    push_bits = 2 + ref_width(n)
    choices = [("VAR", i) for i in range(n)] + [("CONST", 0), ("CONST", 1), *GATES.values()]

    def extend(ops: tuple, depth: int, bits: int, gates: int):
        left = m - len(ops)
        if left == 0:
            if depth == 1:
                yield ops
            return
        if depth - 1 > left:  # too few ops left to join the stack into one
            return
        for op in choices:
            pops = TABLE_OPS[op[0]][1]
            cost, gate = (2, 1) if pops else (push_bits, 0)
            # each of the left - 1 later ops takes 2 bits or more
            if depth >= pops and gates + gate <= max_gates and (
                    bits + cost + 2 * (left - 1) <= room):
                yield from extend(ops + (op,), depth + 1 - pops, bits + cost, gates + gate)

    return extend((), 0, 0, 0)


@lru_cache(maxsize=None)
def projection_masks(n: int) -> tuple[int, ...]:
    """The table of each variable over ``n`` inputs."""
    return tuple(
        sum(1 << j for j in range(1 << n) if (j >> i) & 1) for i in range(n)
    )


def table_mask(n: int, ops) -> int | None:
    """The table a postfix stack program computes, as a ``2**n``-bit mask.

    ``None`` when an op finds too few operands or the program does not leave
    exactly one value; ``ValueError`` on an unknown op or variable.  The
    machine's table op and the ``mcsp-witness`` relation run their programs
    here, and the tests check census witness circuits with it.
    """
    full = (1 << (1 << n)) - 1
    var = projection_masks(n)
    stack: list[int] = []
    try:
        for op in ops:
            kind = op[0]
            if kind == "VAR" and 0 <= op[1] < n:
                stack.append(var[op[1]])
            elif kind == "CONST":
                stack.append(full if op[1] else 0)
            elif kind == "NOT":
                stack.append(full ^ stack.pop())
            elif kind == "AND":
                stack.append(stack.pop() & stack.pop())
            elif kind == "OR":
                stack.append(stack.pop() | stack.pop())
            else:
                raise ValueError(f"unknown op {op!r}")
    except IndexError:  # pop from an empty stack
        return None
    return stack[0] if len(stack) == 1 else None
