"""The dict kt table and its ``string,kt`` CSV codec, as cache format 3 had them.

Test-local oracles for the dense kt table: :func:`build` keeps the first
(shortest) program length of every string the term sweep prints within
budget, in a bits -> kt dict (the sweep's output codes decoded to text);
:func:`encode` and :func:`decode` are the CSV payload, one ``string,kt``
line per string, shortest strings first, that cache files held under a
``martlab-cache v2`` or ``v3`` header.
"""

from martlab.cantor import all_strings, string_index
from martlab.errors import MartlabError
from martlab.kolmogorov import _term_counts
from martlab.machine import C_LIT, MACHINE_VERSION


def build(budget, length_cap: int) -> dict:
    entries: dict[str, int] = {}
    terms = _term_counts(length_cap + C_LIT, length_cap, budget(length_cap))
    for length, level in enumerate(terms):  # lengths upward: first is min
        for code, steps in level:
            out = string_index(code - 1).bits()
            if out not in entries and steps <= budget(len(out)):
                entries[out] = length
    return entries


def encode(entries: dict) -> bytes:
    return "".join(
        f"{bits},{entries[bits]}\n"
        for bits in sorted(entries, key=lambda b: (len(b), b))
    ).encode()


def decode(payload: bytes) -> dict:
    rows = (line.split(",") for line in payload.decode().splitlines())
    return {bits: int(value) for bits, value in rows}


def csv_stdout(entries: dict, budget, length_cap: int) -> str:
    """The stdout of ``martlab kolmogorov --format csv`` for the dict table."""
    lines = [f"kt table: machine {MACHINE_VERSION}, budget {budget}, "
             f"lengths to {length_cap}, {len(entries)} strings", "string,kt"]
    lines += [f"{bits},{entries[bits]}"
              for bits in sorted(entries, key=lambda b: (len(b), b))]
    return "\n".join(lines) + "\n"


def lookups(table) -> dict:
    """Every string up to the table's cap that ``table.lookup`` gives a kt,
    as a bits -> kt dict: the dense table read back through its API."""
    found = {}
    for length in range(table.length_cap + 1):
        for x in all_strings(length):
            try:
                found[x.bits()] = table.lookup(x)
            except MartlabError:
                pass
    return found
