"""Only ``machine`` knows how a table program is written in bits.

The table term's ops, a 2-bit opcode and then a push's ref each, are read by
``machine.read_ops``, written by ``machine.write_ops`` and enumerated by
``machine.stack_programs``; the kt leaves and the ``mcsp-witness`` relation
call those three and nothing below them.  The AST guard fails when another
package module reads one of the grammar's parts: the opcode tables, the push
decoder or the ref width.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "martlab"
GRAMMAR = {"PUSH", "GATES", "TABLE_OPS", "push_op", "ref_width"}


def _grammar_reads(text: str) -> set[str]:
    """The grammar names ``text`` reads: as a name, an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found & GRAMMAR


def test_only_machine_reads_the_table_grammar():
    readers = {
        path.name: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "machine.py" and (names := _grammar_reads(path.read_text()))
    }
    assert readers == {}
    # the names are live: machine reads its opcode tables and ref width
    assert _grammar_reads((PACKAGE / "machine.py").read_text()) == {
        "GATES", "TABLE_OPS", "ref_width"}


def test_guard_sees_every_way_of_reading_the_grammar():
    source = (
        "from .machine import GATES as codes\n"
        "from . import machine\n"
        "width = machine.ref_width(2)\n"
        "def decode(ref):\n    return push_op(2, ref)\n"
        "class Ops:\n    table = TABLE_OPS\n"
        "from martlab.machine import PUSH\n"
        "gates = push_ops = 1\n"
    )
    assert _grammar_reads(source) == GRAMMAR
