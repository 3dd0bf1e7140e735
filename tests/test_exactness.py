"""The package computes in exact arithmetic only.

Every module under ``src/martlab`` is parsed and searched for the ways
floating point gets in: the name ``float``, a ``to_float`` helper, and any
``math`` import other than its integer functions.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "martlab"
INTEGER_MATH = {"gcd", "isqrt"}


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: float")
        elif isinstance(node, ast.Attribute) and node.attr == "to_float":
            found.append(f"{where}: .to_float")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "to_float":
            found.append(f"{where}: def to_float")
        elif isinstance(node, ast.Import):
            found += [f"{where}: import {a.name}" for a in node.names
                      if a.name.split(".")[0] == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: from math import {a.name}" for a in node.names
                      if a.name not in INTEGER_MATH]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_floating_point(path):
    assert _float_uses(ast.parse(path.read_text())) == []


def test_guard_sees_each_way_in():
    source = (
        "import math\nfrom math import gcd, log2\nx = float(1)\n"
        "y = d.to_float()\ndef to_float(self): pass\n"
    )
    uses = sorted(use.split(": ", 1)[1] for use in _float_uses(ast.parse(source)))
    assert uses == sorted(
        ["import math", "from math import log2", "float", ".to_float", "def to_float"]
    )
