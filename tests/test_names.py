"""Every name a function reads is defined.

A name a function reads but never binds is an implicit global: it must be
bound at module level, by an assignment, a ``def``, a ``class`` or an
import, or be a builtin.  Otherwise reading it raises ``NameError``, and
only when that line runs, which a test may never reach (say, an assertion
message).
"""

import builtins
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "bench")
ALWAYS_BOUND = set(dir(builtins)) | {"__file__", "__builtins__"}


def _undefined(text: str, path: str) -> list[str]:
    """``path:line:scope:name`` for each implicit global the module never binds."""
    top = symtable.symtable(text, path, "exec")
    bound = ALWAYS_BOUND | {
        s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()
    }
    found, scopes = [], list(top.get_children())
    while scopes:
        scope = scopes.pop()
        scopes += scope.get_children()
        found += [
            f"{path}:{scope.get_lineno()}:{scope.get_name()}:{s.get_name()}"
            for s in scope.get_symbols()
            if s.is_referenced() and _implicit_global(scope, s)
            and s.get_name() not in bound
        ]
    return found


def _implicit_global(scope: symtable.SymbolTable, s: symtable.Symbol) -> bool:
    """Whether ``scope`` reads ``s`` as a global it does not declare.

    Before Python 3.13, ``symtable`` takes any table named ``top`` for the
    module's and calls every name bound in it global, so a function named
    ``top`` has global parameters; outside the module's table, a name bound
    in the scope is local, never an implicit global.
    """
    if scope.get_type() != "module" and s.is_local():
        return False
    return s.is_global() and not s.is_declared_global()


def test_every_read_name_is_bound():
    assert [
        name
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
        for name in _undefined(path.read_text(), str(path.relative_to(ROOT)))
    ] == []


def test_guard_sees_an_undefined_name():
    source = (
        "import os\nLIMIT = 3\n"
        "def f(x):\n    assert x < LIMIT, (os.sep, len(x), rel.name)\n"
    )
    assert _undefined(source, "t.py") == ["t.py:3:f:rel"]


def test_guard_reads_a_function_named_top_as_a_function():
    nested = "def f():\n    def top(i):\n        return i\n    return top(1)\n"
    assert _undefined(nested, "t.py") == []
    unbound = "def f():\n    def top(i):\n        return i + rel\n    return top(1)\n"
    assert _undefined(unbound, "t.py") == ["t.py:2:top:rel"]
    assert _undefined("def top(i):\n    return i, rel\n", "t.py") == ["t.py:1:top:rel"]
