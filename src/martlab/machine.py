"""A pinned toy universal machine with step budgets.

Programs are bit strings.  A program is one self-delimiting term:

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

The instruction coding above is frozen; changing it invalidates every stored
complexity table, so the version string below must be bumped with any change.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cantor import BitString

__all__ = [
    "MACHINE_VERSION",
    "C_LIT",
    "C_PAIR",
    "BudgetPoly",
    "pairing_budget",
    "RunResult",
    "run",
    "gamma_bits",
    "encode_literal",
    "encode_run",
    "encode_repeat",
    "encode_pair",
    "encode_table",
    "PUSH",
    "TABLE_OPS",
    "GATES",
    "ref_width",
    "push_op",
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


def pairing_budget(t: BudgetPoly) -> BudgetPoly:
    """A budget ample enough to run two ``t``-budget halves plus the header."""
    return BudgetPoly(2 * t.a + 1, t.k, 2 * t.b + 16)


@dataclass(frozen=True)
class RunResult:
    """A run's printed bits as text, ``None`` when it diverged, and its steps."""

    text: str | None
    steps: int

    @property
    def output(self) -> BitString | None:
        return None if self.text is None else BitString(self.text)

    @property
    def diverged(self) -> bool:
        return self.text is None


class _Diverge(Exception):
    pass


class _Runner:
    __slots__ = ("bits", "pos", "steps", "budget", "out")

    def __init__(self, bits: str, budget: int):
        self.bits = bits
        self.pos = 0
        self.steps = 0
        self.budget = budget
        self.out: list[str] = []

    def read(self, k: int) -> str:
        if self.pos + k > len(self.bits):
            raise _Diverge
        self.steps += k
        if self.steps > self.budget:
            raise _Diverge
        chunk = self.bits[self.pos : self.pos + k]
        self.pos += k
        return chunk

    def read_gamma(self) -> int:
        zeros = 0
        while True:
            bit = self.read(1)
            if bit == "1":
                break
            zeros += 1
            if zeros > 64:
                raise _Diverge
        if zeros == 0:
            return 1
        rest = self.read(zeros)
        return (1 << zeros) | int(rest, 2)

    def emit(self, chunk: str) -> None:
        self.steps += len(chunk)
        if self.steps > self.budget:
            raise _Diverge
        self.out.append(chunk)

    def term(self) -> str:
        opcode = self.read(2)
        if opcode == "00":  # literal
            length = self.read_gamma() - 1
            body = self.read(length)
            self.emit(body)
            return body
        if opcode == "01":  # run / repeat
            if self.read(1) == "0":
                bit = self.read(1)
                k = int(self.read(4), 2) + 1
                self.emit(bit * k)
                return bit * k
            k = self.read_gamma()
            mark = len(self.out)
            body = self.term()
            del self.out[mark:]
            piece = body
            for _ in range(k):
                self.emit(piece)
            return piece * k
        if opcode == "10":  # pair
            first_len = self.read_gamma()
            stop = self.pos + first_len
            left = self.term()
            if self.pos != stop:
                raise _Diverge
            right = self.term()
            return left + right
        # table
        n = self.read_gamma() - 1
        if n < 1:
            raise _Diverge
        m = self.read_gamma() - 1
        if m < 1:
            raise _Diverge
        width = ref_width(n)
        ops, depth, low = [], 0, 0
        for _ in range(m):
            code = self.read(2)
            op = GATES.get(code) or push_op(n, int(self.read(width), 2))
            if op is None:
                raise _Diverge
            ops.append(op)
            pops = TABLE_OPS[op[0]][1]
            low, depth = min(low, depth - pops), depth + 1 - pops
        # stack discipline decides an ill-formed program before rows are paid
        if low < 0 or depth != 1:
            raise _Diverge
        # every op runs once per row; a budget below 2**b steps is already
        # exceeded by 2**b rows, so the shift stops at b bits
        self.steps += m << min(n, self.budget.bit_length())
        if self.steps > self.budget:
            raise _Diverge
        body = format(table_mask(n, ops), f"0{1 << n}b")[::-1]
        self.emit(body)
        return body


def run(program: BitString | str, budget: int) -> RunResult:
    """Execute a program under a step budget; divergence is a value."""
    bits = program.bits() if isinstance(program, BitString) else program
    if bits.strip("01"):
        raise ValueError(f"not a bit string: {program!r}")
    runner = _Runner(bits, budget)
    if not bits:
        return RunResult(None, 0)
    try:
        runner.term()
        if runner.pos != len(bits):
            return RunResult(None, runner.steps)
    except _Diverge:
        return RunResult(None, min(runner.steps, budget))
    return RunResult("".join(runner.out), runner.steps)


def gamma_bits(m: int) -> str:
    """Elias code of a positive integer."""
    if m < 1:
        raise ValueError("gamma codes positive integers only")
    binary = format(m, "b")
    return "0" * (len(binary) - 1) + binary


def encode_literal(x: BitString | str) -> BitString:
    bits = x.bits() if isinstance(x, BitString) else x
    return BitString("00" + gamma_bits(len(bits) + 1) + bits)


def encode_run(bit: int, k: int) -> BitString:
    """The 8-bit run form; counts above 16 need nesting or general repeat."""
    if not 1 <= k <= 16:
        raise ValueError("run counts 1..16 only")
    return BitString("010" + ("1" if bit else "0") + format(k - 1, "04b"))


def encode_repeat(k: int, body: BitString) -> BitString:
    if k < 1:
        raise ValueError("repeat count must be positive")
    return BitString("011" + gamma_bits(k) + body.bits())


def encode_pair(first: BitString, second: BitString) -> BitString:
    if len(first) < 1:
        raise ValueError("first part must be nonempty")
    return BitString("10" + gamma_bits(len(first)) + first.bits() + second.bits())


def encode_table(n: int, ops: tuple) -> BitString:
    """Encode a postfix stack program over ``n`` variables.

    ``ops`` entries are ``("VAR", i)``, ``("CONST", b)``, ``("NOT",)``,
    ``("AND",)``, ``("OR",)``.
    """
    if n < 1:
        raise ValueError("table needs at least one variable")
    width = ref_width(n)
    pieces = ["11", gamma_bits(n + 1), gamma_bits(len(ops) + 1)]
    for op in ops:
        if op[0] not in TABLE_OPS:
            raise ValueError(f"unknown op {op!r}")
        pieces.append(TABLE_OPS[op[0]][0])
        if op[0] in ("VAR", "CONST"):
            ref = op[1] if op[0] == "VAR" else n + op[1]
            pieces.append(format(ref, f"0{width}b"))
    return BitString("".join(pieces))


# -- stack programs over truth-table masks ---------------------------------
# Bit ``j`` of a mask is table row ``j``, which sets variable ``i`` to
# ``(j >> i) & 1``, so one bitwise op runs a gate on every row at once.

# op -> (2-bit opcode, operands popped); VAR and CONST share the push opcode
PUSH = "00"
TABLE_OPS = {
    "VAR": (PUSH, 0),
    "CONST": (PUSH, 0),
    "NOT": ("01", 1),
    "AND": ("10", 2),
    "OR": ("11", 2),
}
GATES = {code: (op,) for op, (code, pops) in TABLE_OPS.items() if pops}


def ref_width(n: int) -> int:
    """Bits in a push ref: ``ceil(log2(n + 2))``, at least one."""
    return max(1, (n + 1).bit_length())


def push_op(n: int, ref: int) -> tuple | None:
    """The push a ref names, or ``None`` for a ref past both constants."""
    if ref < n:
        return ("VAR", ref)
    return ("CONST", ref - n) if ref < n + 2 else None


@lru_cache(maxsize=None)
def projection_masks(n: int) -> tuple[int, ...]:
    """The table of each variable over ``n`` inputs."""
    return tuple(
        sum(1 << j for j in range(1 << n) if (j >> i) & 1) for i in range(n)
    )


def table_mask(n: int, ops) -> int | None:
    """The table a postfix stack program computes, as a ``2**n``-bit mask.

    ``None`` when an op finds too few operands or the program does not leave
    exactly one value; ``ValueError`` on an unknown op or variable.
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
