"""Every defaulted parameter is set by some caller.

A parameter with a default is a knob: a caller may set it or leave it.  One
that no caller sets is an option nobody uses.  So each defaulted parameter
of a function, method or ``__init__`` defined at a package module's top
level must be set by some call in ``src``, ``tests`` or ``bench``: by
keyword, by ``**kwargs``, or by position.  A dataclass field with a default
is a parameter of its class's ``__init__``, unless it is declared
``field(init=False)``.  Functions nested in another are closures, not knobs,
and are left alone.

As in ``test_exports.py``, calls match by name alone: ``f(...)`` and
``x.f(...)`` both call every definition named ``f``, a class is called by
its own name, and ``cls(...)`` inside a classmethod calls its class.  A
starred positional argument may reach any positional parameter, so it sets
them all.
"""

import ast
from pathlib import Path

from test_exports import PACKAGE, ROOT, _searched_sources


def _name(node: ast.AST) -> str | None:
    """The name ``f`` that ``f``, ``x.f``, ``f(...)`` or ``x.f(...)`` refers to."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _decorators(node: ast.AST) -> set[str]:
    return set(map(_name, node.decorator_list))


def _signature(fn: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """``(name, position)`` of each defaulted parameter of ``fn``, the first
    ``skip`` positional parameters not counted; keyword-only ones have no
    position."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    found = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
    found.extend(
        (arg.arg, None)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    )
    return found


def _field(stmt: ast.AST) -> tuple[str, bool] | None:
    """``(name, has_default)`` of a dataclass field that ``__init__`` takes."""
    if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and _name(value) == "field":
        keywords = {k.arg: k.value for k in value.keywords}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        return stmt.target.id, "default" in keywords or "default_factory" in keywords
    return stmt.target.id, value is not None


def _defaulted(tree: ast.Module, module: str) -> list[tuple[str, str, str, int | None]]:
    """``(label, callee, parameter, position)`` for each defaulted parameter
    of a module's top-level functions and classes; ``callee`` is the name a
    call uses, the class's own name for an ``__init__``."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.extend(
                (f"{module}.{node.name}.{name}", node.name, name, i)
                for name, i in _signature(node, 0)
            )
        if not isinstance(node, ast.ClassDef):
            continue
        if "dataclass" in _decorators(node):
            fields = [f for f in map(_field, node.body) if f is not None]
            found.extend(
                (f"{module}.{node.name}.{name}", node.name, name, i)
                for i, (name, has_default) in enumerate(fields)
                if has_default
            )
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                callee = node.name if item.name == "__init__" else item.name
                skip = 0 if "staticmethod" in _decorators(item) else 1
                found.extend(
                    (f"{module}.{node.name}.{item.name}.{name}", callee, name, i)
                    for name, i in _signature(item, skip)
                )
    return found


def _calls(tree: ast.Module) -> list[tuple[str, int, set[str], bool]]:
    """``(callee, positional count, keywords, starred)`` for each call."""
    found = []

    def visit(node: ast.AST, cls: str | None, in_classmethod: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, False)
                continue
            if isinstance(child, ast.FunctionDef):
                visit(child, cls, "classmethod" in _decorators(child))
                continue
            if isinstance(child, ast.Call):
                name = _name(child)
                if name == "cls" and in_classmethod:
                    name = cls
                positional = [a for a in child.args if not isinstance(a, ast.Starred)]
                keywords = {k.arg for k in child.keywords}
                starred = len(positional) < len(child.args) or None in keywords
                found.append((name, len(positional), keywords, starred))
            visit(child, cls, in_classmethod)

    visit(tree, None, False)
    return found


def _unset(sources: dict[str, str]) -> list[str]:
    """``module.function.parameter`` (``module.Class.field`` for a dataclass
    field) for each defaulted parameter that no call in ``sources`` sets."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    calls: dict[str, list] = {}
    for tree in trees.values():
        for name, *call in _calls(tree):
            calls.setdefault(name, []).append(call)
    return sorted(
        label
        for path, tree in trees.items()
        if Path(path).parent == PACKAGE
        for label, callee, name, position in _defaulted(tree, Path(path).stem)
        if not any(
            starred or name in keywords or position is not None and count > position
            for count, keywords, starred in calls.get(callee, ())
        )
    )


def test_every_defaulted_parameter_is_set():
    assert _unset(_searched_sources()) == []


def test_guard_sees_an_unset_parameter():
    module = str(PACKAGE / "m.py")
    sources = {
        module: "from dataclasses import dataclass, field\n"
                "def f(a, b=1, *, c=2, d=3): pass\n"
                "def g(a=1, b=2): pass\n"
                "def h(a=1, b=2): pass\n"
                "@dataclass(frozen=True)\n"
                "class D:\n"
                "    x: int\n"
                "    y: int = 0\n"
                "    z: int = 1\n"
                "    memo: dict = field(default_factory=dict, init=False)\n"
                "    w: list = field(default_factory=list)\n"
                "    @classmethod\n"
                "    def make(cls): return cls(1, 2)\n"
                "    def m(self, p=0, q=1): pass\n"
                "class E:\n"
                "    def __init__(self, k=0): pass\n"
                "    @staticmethod\n"
                "    def s(u=0): pass\n"
                "def outer():\n"
                "    def inner(v=0): pass\n"
                "    return inner()\n",
        # positions after self; a keyword sets only itself; ** and * set all
        str(ROOT / "tests" / "t.py"): "from martlab.m import D, E, f, g, h\n"
                                      "f(0, 1, c=5)\ng(**{})\nh(*[1, 2])\n"
                                      "D(0).m(1)\nE(k=1)\nE.s(1)\n",
    }
    assert _unset(sources) == ["m.D.m.q", "m.D.w", "m.D.z", "m.f.d"]
