"""The dict census and its 14-byte record codec, as cache format 2 had them.

Test-local oracles for the dense census: :func:`build` is the breadth-first
closure that filled a mask -> size dict and a mask -> witness dict, one table
at a time; :func:`encode` and :func:`decode` are the ``<IBBII`` record payload
(u32 mask, u8 size, u8 kind, u32 a, u32 b, sorted by mask) that cache files
held under a ``martlab-cache v2`` header.

The witness dict is the one source of census circuits: :func:`circuit_ops`
expands a table's witness into a stack program for
:func:`martlab.machine.encode_table` and :func:`martlab.machine.table_mask`.
:func:`reached` and :func:`table_bits` read a dense census's sizes and a
table's text for the tests that compare the two.
"""

import struct
from functools import cache

import numpy as np

from martlab import machine
from martlab.cantor import BitString, mirror
from martlab.circuits import UNREACHED

RECORD = struct.Struct("<IBBII")
KINDS = ("VAR", "CONST", "NOT", "AND", "OR")


@cache
def build(n: int, max_size: int) -> tuple[dict, dict]:
    """``(sizes, witness)``: minimum size and first-reached witness of every
    table reached within ``max_size`` gates.  Cached, so callers only read
    the dicts."""
    full = (1 << (1 << n)) - 1
    sizes: dict[int, int] = {}
    witness: dict[int, tuple] = {}
    by_size: list[np.ndarray] = []

    seeds = [(0, ("CONST", 0)), (full, ("CONST", 1))]
    seeds += [(m, ("VAR", i)) for i, m in enumerate(machine.projection_masks(n))]
    level0 = []
    for mask, how in seeds:
        if mask not in sizes:
            sizes[mask] = 0
            witness[mask] = how
            level0.append(mask)
    by_size.append(np.array(sorted(level0), dtype=np.uint32))

    for s in range(1, max_size + 1):
        found: dict[int, tuple] = {}

        def consider(mask: int, how: tuple) -> None:
            if mask not in sizes and mask not in found:
                found[mask] = how

        for a in by_size[s - 1].tolist():
            consider(full & ~a, ("NOT", a))
        for i in range(s):
            j = s - 1 - i
            if j < i:
                break
            left, right = by_size[i], by_size[j]
            if len(left) == 0 or len(right) == 0:
                continue
            for op_name, ufunc in (("AND", np.bitwise_and), ("OR", np.bitwise_or)):
                flat = ufunc.outer(left, right).ravel()
                uniq, first = np.unique(flat, return_index=True)
                for mask, idx in zip(uniq.tolist(), first.tolist()):
                    r, c = divmod(idx, len(right))
                    consider(mask, (op_name, int(left[r]), int(right[c])))
        for mask in sorted(found):
            sizes[mask] = s
            witness[mask] = found[mask]
        by_size.append(np.array(sorted(found), dtype=np.uint32))
    return sizes, witness


def encode(sizes: dict, witness: dict) -> bytes:
    records = []
    for mask in sorted(sizes):
        kind, a, *b = witness[mask]
        records.append(RECORD.pack(mask, sizes[mask], KINDS.index(kind), a, *(b or [0])))
    return b"".join(records)


def decode(payload: bytes) -> tuple[dict, dict]:
    sizes: dict[int, int] = {}
    witness: dict[int, tuple] = {}
    for mask, size, kind, a, b in RECORD.iter_unpack(payload):
        sizes[mask] = size
        witness[mask] = (KINDS[kind], a, b) if kind > 2 else (KINDS[kind], a)
    return sizes, witness


def circuit_ops(witness: dict, mask: int) -> tuple:
    """The table's stack program: its witness's operands' programs, then the
    witness's gate."""
    how = witness[mask]
    if how[0] in ("VAR", "CONST"):
        return (how,)
    return sum((circuit_ops(witness, m) for m in how[1:]), ()) + ((how[0],),)


def gates(ops: tuple) -> int:
    """The gate ops of a stack program, the size a census counts."""
    return sum(op[0] in ("NOT", "AND", "OR") for op in ops)


def reached(census) -> list[int]:
    """The masks a dense census reaches, in increasing order."""
    return [mask for mask, size in enumerate(census.sizes) if size != UNREACHED]


def table_bits(n: int, mask: int) -> BitString:
    """The table as text, row 0 first."""
    return BitString.from_int(mirror(mask, 1 << n), 1 << n)
