"""A string's enumeration code is read only in ``cantor``.

``BitString`` holds one int, ``int("1" + bits, 2)``; every conversion
between that code and text, or an index, or a witness int, goes through a
``cantor`` method or function.  The AST guard fails on any other module of
the package, the tests or the benchmark that reads ``_code`` by attribute
or by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "bench")
CODE_AT = ROOT / "src" / "martlab" / "cantor.py"  # the one module that may read it
GUARD = Path(__file__).resolve()  # names ``_code`` only in its own fixtures


def _code_reads(text: str) -> int:
    """How many times ``text`` reads ``_code``: as ``x._code``, or as the
    string ``"_code"`` handed to ``getattr`` and its kin."""
    return sum(
        isinstance(node, ast.Attribute) and node.attr == "_code"
        or isinstance(node, ast.Constant) and node.value == "_code"
        for node in ast.walk(ast.parse(text))
    )


def test_code_is_read_only_in_cantor():
    readers = {
        str(path.relative_to(ROOT))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path not in (CODE_AT, GUARD) and _code_reads(path.read_text())
    }
    assert readers == set()
    assert _code_reads(CODE_AT.read_text()) > 0


def test_guard_sees_code_reads_at_every_depth():
    source = (
        "s._code\n"
        "def f(w):\n    return w._code - 1\n"
        "class A:\n    def g(self):\n        return [x._code for x in self]\n"
        "getattr(s, '_code')\n"
        "s.code, s._codes, s._code_of\n"
    )
    assert _code_reads(source) == 4
