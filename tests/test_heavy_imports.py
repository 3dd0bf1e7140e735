"""numpy is loaded only where a census is built cold.

Only ``circuits.build_census`` runs the closure on numpy arrays; a census
holds its sizes as ``bytes``, so every warm path (a census read from the
cache, the reports and covers over it, and the relation configs) works on
``bytes`` and ``array``.  The AST guard keeps the
import where it is; the subprocess test checks ``sys.modules`` after each
warm command, in a process that starts with every martlab module imported.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "martlab"
# the only function that may import numpy: the cold census closure
NUMPY_AT = ["circuits.build_census"]


def _numpy_imports(text: str, module: str) -> list[str]:
    """Where ``text`` imports numpy: ``module`` itself at module level, else
    ``module.function`` (or ``module.Class``)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            found.extend(scope for name in names if name.split(".")[0] == "numpy")
            visit(child, scope)

    visit(ast.parse(text), module)
    return found


def test_numpy_is_imported_only_where_a_census_is_built_or_named():
    assert [
        scope
        for path in sorted(PACKAGE.glob("*.py"))
        for scope in _numpy_imports(path.read_text(), path.stem)
    ] == NUMPY_AT


def test_guard_sees_numpy_imports_at_every_depth():
    source = (
        "try:\n    import numpy as np\nexcept ImportError:\n    pass\n"
        "from numpy.linalg import norm\n"
        "from . import numpy_free\n"
        "import numpyx\n"
        "class Table:\n    import numpy\n"
        "def build():\n    def inner():\n        import numpy\n    import os\n"
    )
    assert _numpy_imports(source, "m") == ["m", "m", "m.Table", "m.build.inner"]


# run with argv [commands as JSON, "cold" | "warm", cache dir]; prints each
# command's stdout
SCRIPT = """
import importlib, json, pkgutil, sys
import martlab
for info in pkgutil.iter_modules(martlab.__path__):
    importlib.import_module(f"martlab.{info.name}")
from martlab.cli import main
from martlab.circuits import build_census, cached_census

commands, phase, cache_dir = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
if phase == "warm":
    assert "numpy" not in sys.modules, "numpy loaded on import"
for argv in commands:
    assert main(argv) == 0, argv
    if phase == "warm":
        assert "numpy" not in sys.modules, f"numpy loaded by a warm {argv[0]}"
if phase == "warm":
    assert sum(cached_census(4, 5, cache_dir).histogram().values()) > 0
    assert "numpy" not in sys.modules, "numpy loaded by a warm histogram()"
    build_census(2, 2)
assert "numpy" in sys.modules, f"no cold census build in the {phase} process"
"""


def test_warm_commands_leave_numpy_unloaded(tmp_path):
    relation = tmp_path / "relation.json"
    relation.write_text(json.dumps({"version": 1, "construction": {
        "type": "cover", "level": 2,
        "relation": {"builtin": "mcsp-witness", "inputs": 1, "size": 1}}}))
    cache_dir = str(tmp_path / "cache")
    cache = ["--cache-dir", cache_dir]
    commands = [
        ["mcsp", "--table", "0110", "-s", "5", *cache],
        ["census", "-n", "4", "-S", "5", "--alpha", "1/2", *cache],
        ["certify", "--config", str(ROOT / "experiments" / "mcsp_certificate.json"),
         *cache],
        ["verify", "--config", str(relation)],
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stdout = {}
    for phase in ("cold", "warm"):
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT, json.dumps(commands), phase, cache_dir],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        stdout[phase] = proc.stdout
    assert stdout["warm"] == stdout["cold"]
