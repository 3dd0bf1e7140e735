"""The two built-in witness relations' ``verify`` maps, as written before
relations carried an ``image``.

Test-local oracles for the image contract: :func:`mcsp_verify` decodes a
witness into a stack program and compares the table it computes with the
input, and :func:`short_program_verify` decodes a witness into a program and
compares its output within the budget with the input.  Each takes the
relation's parameters and returns ``verify(x, y)``.
"""

from martlab import machine
from martlab.cantor import BitString
from martlab.circuits import TruthTable
from martlab.machine import run


def mcsp_verify(n: int, s: int):
    max_ops = 2 * s + 1
    max_push = s + 1
    header_bits = max(1, max_ops.bit_length())
    width = machine.ref_width(n)

    def verify(x: BitString, y: BitString) -> bool:
        if len(x) != 1 << n:
            raise ValueError(f"input must be a {1 << n}-bit table")
        bits = y.bits()
        k = int(bits[:header_bits], 2)
        if not 1 <= k <= max_ops:
            return False
        codes = [bits[i : i + 2] for i in range(header_bits, header_bits + 2 * k, 2)]
        pushes = codes.count(machine.PUSH)
        if pushes > max_push or k - pushes > s:
            return False
        refs_at = header_bits + 2 * k
        refs_end = refs_at + width * pushes
        if "1" in bits[refs_end:]:
            return False
        refs = (machine.push_op(n, int(bits[i : i + width], 2))
                for i in range(refs_at, refs_end, width))
        ops = [machine.GATES.get(code) or next(refs) for code in codes]
        if None in ops:
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
        result = run(program, budget(len(x)))
        return result.output == x

    return verify
