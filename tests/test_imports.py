"""Every name a package module imports is read.

Each ``import`` or ``from ... import`` in a module under ``src/martlab``
binds names, and each must be read as a plain name in the scope that
imports it: the module for a top-level import, the function for one inside
a function.  ``json`` in ``json.loads(text)`` is such a read, and so is a
name in an annotation.  A name the module lists in ``__all__`` counts as
read, since re-exporting it is its use; ``from __future__`` imports bind
nothing.  So an import that a change leaves behind fails here.
"""

import ast

from test_exports import PACKAGE, _exports, _parse

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imports(scope: ast.AST):
    """The import statements of ``scope``, not of the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            yield node
        elif not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(text: str) -> list[str]:
    """``name:line`` for each imported name its scope never reads."""
    tree = _parse(text)
    exported = set(_exports(tree))
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]
    found = []
    for scope in scopes:
        read = {
            node.id
            for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in _imports(scope):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read and name not in exported:
                    found.append(f"{name}:{node.lineno}")
    return sorted(found)


def test_every_import_is_read():
    unused = {
        str(path.relative_to(PACKAGE)): _unused_imports(path.read_text())
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert {path: names for path, names in unused.items() if names} == {}


def test_guard_sees_an_unused_import():
    text = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Any, Callable\n"
        "__all__ = ['Any']\n"
        "def f(x: Callable) -> str:\n"
        "    import random\n"
        "    from math import pi as tau\n"
        "    return json.dumps(tau)\n"
        "def g():\n"
        "    return random\n"
    )
    assert _unused_imports(text) == ["os:3", "random:7"]
