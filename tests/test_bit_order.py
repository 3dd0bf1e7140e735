"""One function decides how a mask's bits line up with a string's.

Bit ``i`` of a mask (a language, a truth table) is character ``i`` of its
string, and a string's code holds its first character highest, so the two
orders are each other's reverse.  :func:`martlab.cantor.mirror` is the one
place that converts: every module under ``src/martlab`` is parsed, and a
reversing slice (``[::-1]`` or ``[:0:-1]``) anywhere else fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "martlab"
HELPER = ("cantor.py", "mirror")


def _is_reversal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Slice)
        and node.lower is None
        and isinstance(node.step, ast.UnaryOp)
        and isinstance(node.step.op, ast.USub)
        and isinstance(node.step.operand, ast.Constant)
        and node.step.operand.value == 1
        and (node.upper is None
             or isinstance(node.upper, ast.Constant) and node.upper.value == 0)
    )


def _reversals(tree: ast.AST, name: str) -> list[str]:
    """``line n`` for each reversing slice outside the helper."""
    found = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.FunctionDef) and (name, node.name) == HELPER:
            return
        if _is_reversal(node):
            found.append(f"line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def _in_helper(tree: ast.AST) -> list[ast.Slice]:
    helper = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == HELPER[1])
    return [n for n in ast.walk(helper) if _is_reversal(n)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reverses_bits_only_through_the_helper(path):
    assert _reversals(ast.parse(path.read_text()), path.name) == []


def test_helper_holds_the_one_reversal():
    assert len(_in_helper(ast.parse((PACKAGE / HELPER[0]).read_text()))) == 1


def test_guard_sees_each_reversal():
    source = (
        "a = s[::-1]\nb = s[:0:-1]\nc = s[::1]\nd = s[1::-1]\ne = s[:1:-1]\n"
        "def mirror(v):\n    return v[::-1]\n"
    )
    assert _reversals(ast.parse(source), "x.py") == ["line 1", "line 2", "line 7"]
    assert _reversals(ast.parse(source), "cantor.py") == ["line 1", "line 2"]
