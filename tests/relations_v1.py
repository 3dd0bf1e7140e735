"""The built-in witness relations' ``verify`` maps, and the per-input counter
that read them, as written before relations said what each witness accepts.

Test-local brute-force twins of :mod:`martlab.oracle`.  :func:`sat_verify`
reads the truth-table row a witness names, :func:`explicit_verify` looks the
input up among the members, :func:`mcsp_verify` decodes a witness into a
stack program and compares the table it computes with the input, and
:func:`short_program_verify` decodes a witness into a program and compares
its output within the budget with the input.  Each takes the relation's
parameters and returns ``verify(x, y)``.

:func:`count` runs ``verify`` over the whole witness cube of one input and
reads off the accepting-path count (#P), the number of distinct emitted
outputs (SpanP, Köbler–Schöning–Torán 1989) or the accepting-minus-rejecting
gap (GapP, Fenner–Fortnow–Kurtz 1994).
"""

import enum
from dataclasses import dataclass
from typing import Callable

from martlab import machine
from martlab.cantor import BitString
from martlab.circuits import TruthTable
from martlab.machine import run


class CountMode(enum.Enum):
    WITNESS_COUNT = "witness-count"
    DISTINCT_OUTPUT_COUNT = "distinct-output-count"
    ACCEPT_MINUS_REJECT = "accept-minus-reject"


class SpanModeUnavailable(Exception):
    """Distinct-output counting requested on a relation without an emit map."""


@dataclass(frozen=True)
class VerifyRelation:
    """A witness relation as a verifier: ``verify(x, y)`` decides one
    (input, witness) pair, and ``emit(x, y)``, where given, is the output an
    accepting witness emits."""

    name: str
    witness_length: Callable[[int], int]
    verify: Callable[[BitString, BitString], bool]
    emit: Callable[[BitString, BitString], BitString] | None = None


def count(rel: VerifyRelation, mode: CountMode, x: BitString) -> int:
    """Exact count over the witness cube of ``x`` in the requested mode.

    Only ACCEPT_MINUS_REJECT may return a negative number.
    """
    k = rel.witness_length(len(x))
    if mode is CountMode.DISTINCT_OUTPUT_COUNT and rel.emit is None:
        raise SpanModeUnavailable(f"{rel.name} has no emit map")
    accepts = 0
    outputs = set()
    for v in range(1 << k):
        y = BitString.from_int(v, k)
        if rel.verify(x, y):
            accepts += 1
            if mode is CountMode.DISTINCT_OUTPUT_COUNT:
                outputs.add(rel.emit(x, y))
    if mode is CountMode.WITNESS_COUNT:
        return accepts
    if mode is CountMode.DISTINCT_OUTPUT_COUNT:
        return len(outputs)
    return 2 * accepts - (1 << k)


def sat_verify(num_vars: int):
    def verify(x: BitString, y: BitString) -> bool:
        if len(x) != 1 << num_vars:
            raise ValueError(
                f"input length {len(x)} != 2**{num_vars} truth-table rows"
            )
        return x.bits()[y.to_int()] == "1"

    return verify


def explicit_verify(members):
    member_set = frozenset(
        m if isinstance(m, BitString) else BitString(m) for m in members
    )
    return lambda x, y: x in member_set


def mcsp_verify(n: int, s: int):
    max_ops = 2 * s + 1
    header_bits = max(1, max_ops.bit_length())
    width = max(1, (n + 1).bit_length())
    gates = {"01": ("NOT",), "10": ("AND",), "11": ("OR",)}

    def verify(x: BitString, y: BitString) -> bool:
        if len(x) != 1 << n:
            raise ValueError(f"input must be a {1 << n}-bit table")
        bits = y.bits()
        k = int(bits[:header_bits], 2)
        if not 1 <= k <= max_ops:
            return False
        # k ops follow the header, each a 2-bit code and, for a push, a ref
        ops, at = [], header_bits
        for _ in range(k):
            code = bits[at : at + 2]
            if code in gates:
                ops.append(gates[code])
                at += 2
                continue
            ref = bits[at + 2 : at + 2 + width]
            if len(code + ref) < 2 + width:  # the witness ends inside the op
                return False
            ref = int(ref, 2)
            if ref >= n + 2:
                return False
            ops.append(("VAR", ref) if ref < n else ("CONST", ref - n))
            at += 2 + width
        if "1" in bits[at:] or sum(op in gates.values() for op in ops) > s:
            return False
        mask = machine.table_mask(n, ops)
        return mask is not None and mask == TruthTable.from_bits(x).mask

    return verify


def short_program_verify(max_program_len: int, budget):
    header = max(1, max_program_len.bit_length())

    def verify(x: BitString, y: BitString) -> bool:
        bits = y.bits()
        length = int(bits[:header], 2)
        if not 1 <= length <= max_program_len:
            return False
        program = bits[header : header + length]
        if "1" in bits[header + length :]:
            return False
        result = run(BitString(program), budget(len(x)))
        return result.output == x

    return verify


def twin(rel, verify, emit=None) -> VerifyRelation:
    """The per-input form of the relation ``rel``: its name and witness
    cube, decided by ``verify``.  An accepting witness emits itself unless
    ``emit`` says otherwise, as every built-in's did but ``explicit``'s,
    which emitted the input."""
    return VerifyRelation(rel.name, rel.witness_length, verify,
                          emit or (lambda x, y: y))
