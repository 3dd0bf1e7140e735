"""The dict census and its 14-byte record codec, as cache format 2 had them.

Test-local oracles for the dense census: :func:`build` is the breadth-first
closure that filled a mask -> size dict and a mask -> witness dict, one table
at a time; :func:`encode` and :func:`decode` are the ``<IBBII`` record payload
(u32 mask, u8 size, u8 kind, u32 a, u32 b, sorted by mask) that cache files
held under a ``martlab-cache v2`` header.
"""

import struct

import numpy as np

from martlab import machine

RECORD = struct.Struct("<IBBII")
KINDS = ("VAR", "CONST", "NOT", "AND", "OR")


def build(n: int, max_size: int) -> tuple[dict, dict]:
    """``(sizes, witness)``: minimum size and first-reached witness of every
    table reached within ``max_size`` gates."""
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
    """The stack program ``circuit_for`` expands from the witness dict."""
    how = witness[mask]
    if how[0] in ("VAR", "CONST"):
        return (how,)
    return sum((circuit_ops(witness, m) for m in how[1:]), ()) + ((how[0],),)
