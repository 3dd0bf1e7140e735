"""Every exported name, public method and dataclass field has a user.

Each module under ``src/martlab`` lists its public names in ``__all__``.  A
name listed there must be read somewhere: in its own module, elsewhere in
the package, in the tests or in the benchmark.  The definition itself and
the ``__all__`` entry do not count, so an export nothing reads fails here.
The same holds for each public method or property of a class defined at a
package module's top level, which must be read as an attribute, ``x.name``,
and for each field of such a class made with ``dataclass``: a field that is
only ever passed at construction fails.

The guard matches by name alone, not by the class an attribute is read
from: a method or field counts as read when any source reads an attribute
of that name.  So a dead method whose name another class's live method shares
passes; a dead ``Dyadic.from_int`` would hide behind ``BitString.from_int``.

A read here is not a use: a helper that only its own test reads passes this
guard.  ``tests/test_reach.py`` is the guard for that: every def must be
called by a command, or be listed there with the paper check, benchmark
name or safety refusal that keeps it.
"""

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "martlab"
SEARCHED = ("src", "tests", "bench")


def _exports(tree: ast.AST) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _reads(tree: ast.AST) -> set[str]:
    """Names a module reads: loaded names, attributes and imported names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _attributes(tree: ast.AST) -> set[str]:
    """Attribute names a module reads, as in ``x.name``: how a method is reached."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _methods(tree: ast.AST) -> list[str]:
    """``Class.name`` for each public method or property of a module's classes."""
    return [
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]


# each guard reads the same sources: parse each text once
_parse = cache(ast.parse)


def _fields(tree: ast.AST) -> list[str]:
    """``Class.name`` for each field of a module's dataclasses."""
    return [
        f"{node.name}.{item.target.id}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        )
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def _unread(sources: dict[str, str], defined, reads) -> list[str]:
    """``module.name`` for each name ``defined`` finds in a package module
    whose last dotted part is in no source's ``reads``."""
    trees = {path: _parse(text) for path, text in sources.items()}
    read = set().union(*map(reads, trees.values()))
    return sorted(
        f"{Path(path).stem}.{name}"
        for path, tree in trees.items()
        if Path(path).parent == PACKAGE
        for name in defined(tree)
        if name.rpartition(".")[2] not in read
    )


def _dead_exports(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each export of a package module that no source reads."""
    return _unread(sources, _exports, _reads)


def _dead_methods(sources: dict[str, str]) -> list[str]:
    """``module.Class.name`` for each public method no source reads as an
    attribute."""
    return _unread(sources, _methods, _attributes)


def _dead_fields(sources: dict[str, str]) -> list[str]:
    """``module.Class.name`` for each dataclass field no source reads as an
    attribute."""
    return _unread(sources, _fields, _attributes)


def _searched_sources() -> dict[str, str]:
    return {
        str(path): path.read_text()
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def test_every_export_is_read():
    assert _dead_exports(_searched_sources()) == []


def test_every_public_method_is_read():
    assert _dead_methods(_searched_sources()) == []


def test_every_dataclass_field_is_read():
    assert _dead_fields(_searched_sources()) == []


def test_guard_sees_a_dead_export():
    module = str(PACKAGE / "m.py")
    sources = {
        module: "__all__ = ['used', 'dead', 'called']\n"
                "used = 1\ndead = 2\ndef called(): return used\n",
        str(ROOT / "tests" / "t.py"): "from martlab.m import called\n",
    }
    assert _dead_exports(sources) == ["m.dead"]


def test_guard_sees_a_dead_method():
    module = str(PACKAGE / "m.py")
    sources = {
        module: "class C:\n"
                "    def used(self): return self._helper()\n"
                "    def _helper(self): return 1\n"
                "    @property\n"
                "    def dead(self): return 2\n"
                "    @classmethod\n"
                "    def unused(cls): return cls()\n",
        # a plain name is not a method read
        str(ROOT / "tests" / "t.py"): "from martlab.m import C\nC().used()\n"
                                      "dead = 1\nprint(dead)\n",
    }
    assert _dead_methods(sources) == ["m.C.dead", "m.C.unused"]


def test_guard_sees_a_dead_field():
    module = str(PACKAGE / "m.py")
    sources = {
        module: "from dataclasses import dataclass\n"
                "@dataclass(frozen=True)\n"
                "class R:\n"
                "    used: int\n"
                "    dead: int = 0\n"
                "    def total(self): return self.used\n"
                "class Plain:\n"
                "    note: str = ''\n",
        # a keyword at construction is not a read
        str(ROOT / "tests" / "t.py"): "from martlab.m import R\nR(used=1, dead=2).total()\n",
    }
    assert _dead_fields(sources) == ["m.R.dead"]
