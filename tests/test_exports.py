"""Every exported name has a user.

Each module under ``src/martlab`` lists its public names in ``__all__``.  A
name listed there must be read somewhere: in its own module, elsewhere in
the package, in the tests or in the benchmark.  The definition itself and
the ``__all__`` entry do not count, so an export nothing reads fails here.
"""

import ast
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


def _dead_exports(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each export of a package module that no source reads."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return sorted(
        f"{Path(path).stem}.{name}"
        for path, tree in trees.items()
        if Path(path).parent == PACKAGE
        for name in _exports(tree)
        if name not in read
    )


def test_every_export_is_read():
    sources = {
        str(path): path.read_text()
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    assert _dead_exports(sources) == []


def test_guard_sees_a_dead_export():
    module = str(PACKAGE / "m.py")
    sources = {
        module: "__all__ = ['used', 'dead', 'called']\n"
                "used = 1\ndead = 2\ndef called(): return used\n",
        str(ROOT / "tests" / "t.py"): "from martlab.m import called\n",
    }
    assert _dead_exports(sources) == ["m.dead"]
