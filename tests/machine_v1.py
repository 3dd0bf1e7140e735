"""The toy machine as it ran on program text, before programs were codes.

A test-local oracle for :func:`martlab.machine.run`: the same instruction
coding and step accounting, read character by character off a ``str`` of
``0``/``1`` and printing text.  :func:`run` returns ``(text, steps)``, with
``None`` for the text of a diverged run.  The table op's mask evaluator is
the machine's own, checked apart against a row-by-row evaluation.

The program encoders and the budget that only the tests use live here too:
:func:`encode_repeat` and :func:`encode_pair` write the repeat and pair
terms, and :func:`pairing_budget` runs two halves of a pair.
"""

from martlab.cantor import BitString
from martlab.machine import BudgetPoly, table_mask

# 2-bit opcode -> gate, and op kind -> operands popped
GATES = {"01": ("NOT",), "10": ("AND",), "11": ("OR",)}
POPS = {"VAR": 0, "CONST": 0, "NOT": 1, "AND": 2, "OR": 2}


def push_op(n: int, ref: int) -> tuple | None:
    """A push ref names variable ``ref < n``, then the constants 0 and 1."""
    if ref < n:
        return ("VAR", ref)
    return ("CONST", ref - n) if ref < n + 2 else None


class Diverge(Exception):
    pass


class Runner:
    __slots__ = ("bits", "pos", "steps", "budget", "out")

    def __init__(self, bits: str, budget: int):
        self.bits = bits
        self.pos = 0
        self.steps = 0
        self.budget = budget
        self.out: list[str] = []

    def read(self, k: int) -> str:
        if self.pos + k > len(self.bits):
            raise Diverge
        self.steps += k
        if self.steps > self.budget:
            raise Diverge
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
                raise Diverge
        if zeros == 0:
            return 1
        rest = self.read(zeros)
        return (1 << zeros) | int(rest, 2)

    def emit(self, chunk: str) -> None:
        self.steps += len(chunk)
        if self.steps > self.budget:
            raise Diverge
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
                raise Diverge
            right = self.term()
            return left + right
        # table
        n = self.read_gamma() - 1
        if n < 1:
            raise Diverge
        m = self.read_gamma() - 1
        if m < 1:
            raise Diverge
        width = len(format(n + 1, "b"))  # ceil(log2(n + 2))
        ops, depth, low = [], 0, 0
        for _ in range(m):
            code = self.read(2)
            op = GATES.get(code) or push_op(n, int(self.read(width), 2))
            if op is None:
                raise Diverge
            ops.append(op)
            pops = POPS[op[0]]
            low, depth = min(low, depth - pops), depth + 1 - pops
        if low < 0 or depth != 1:
            raise Diverge
        self.steps += m << min(n, self.budget.bit_length())
        if self.steps > self.budget:
            raise Diverge
        body = format(table_mask(n, ops), f"0{1 << n}b")[::-1]
        self.emit(body)
        return body


def finish(runner: Runner) -> tuple:
    """Run ``runner``'s program to the end: ``(text or None, steps)``."""
    if not runner.bits:
        return None, 0
    try:
        runner.term()
        if runner.pos != len(runner.bits):
            return None, runner.steps
    except Diverge:
        return None, min(runner.steps, runner.budget)
    return "".join(runner.out), runner.steps


def run(bits: str, budget: int) -> tuple:
    """Execute the program text ``bits`` under a step budget."""
    if bits.strip("01"):
        raise ValueError(f"not a bit string: {bits!r}")
    return finish(Runner(bits, budget))


def _head(opcode: str, m: int) -> BitString:
    """An opcode, then the Elias gamma code of ``m >= 1``."""
    return BitString(opcode + "0" * (m.bit_length() - 1) + format(m, "b"))


def encode_repeat(k: int, body: BitString) -> BitString:
    if k < 1:
        raise ValueError("repeat count must be positive")
    return _head("011", k) + body


def encode_pair(first: BitString, second: BitString) -> BitString:
    if len(first) < 1:
        raise ValueError("first part must be nonempty")
    return _head("10", len(first)) + first + second


def pairing_budget(t: BudgetPoly) -> BudgetPoly:
    """A budget ample enough to run two ``t``-budget halves plus the header."""
    return BudgetPoly(2 * t.a + 1, t.k, 2 * t.b + 16)
