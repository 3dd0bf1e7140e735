"""Stdout is written in one place: ``cli.Output``, which only ``main`` commits.

Every command writes to the ``Output`` that ``main`` makes; the sink holds
stdout text until the command returns its code, and an ``--out`` file is
written beside its target and moved into place only then.  The AST guard
fails when another part of the package touches ``sys.stdout`` or calls
``print`` without ``file=sys.stderr``.  The other tests pin what the sink
promises: a refused run leaves an existing ``--out`` file as it was, and
stdout text past ``SPOOL_CHARS`` rolls over to a file with the same bytes.
"""

import ast
import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from martlab import cli
from martlab.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "martlab"
EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
SINK = ("cli.py", "Output")


def _stdout_writes(text: str, sink: str | None = None) -> list[int]:
    """The lines where ``text`` reads ``sys.stdout`` or imports ``stdout``,
    or calls ``print`` without ``file=sys.stderr``, outside a class named
    ``sink``."""
    found = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef) and node.name == sink:
            return
        if isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__"):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name in ("stdout", "__stdout__") for alias in node.names):
            found.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "print"
              and not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                          for k in node.keywords)):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(text))
    return found


def test_only_the_sink_writes_stdout():
    writers = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := _stdout_writes(path.read_text(),
                                    SINK[1] if path.name == SINK[0] else None))
    }
    assert writers == {}
    # the sink is live: it is the one reader of sys.stdout
    assert _stdout_writes((PACKAGE / SINK[0]).read_text())


def test_guard_sees_every_way_of_writing_stdout():
    source = (
        "import sys\n"
        "print('a')\n"
        "print('b', file=sys.stdout)\n"
        "sys.stdout.write('c')\n"
        "from sys import stdout\n"
        "w = sys.__stdout__.write\n"
        "def f(out):\n    print('d', end='')\n"
        "print('e', file=sys.stderr)\n"
        "class Output:\n    def commit(self):\n        sys.stdout.write('f')\n"
    )
    assert _stdout_writes(source) == [2, 3, 3, 4, 5, 6, 8, 12]
    assert _stdout_writes(source, "Output") == [2, 3, 3, 4, 5, 6, 8]


def _run(argv: list[str]) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_a_refused_out_leaves_the_old_file(tmp_path):
    """Depth 23 is refused after the dump has started writing: the old
    file keeps its bytes, and no temporary file is left beside it."""
    target = tmp_path / "tree.csv"
    target.write_bytes(b"an earlier dump\n")
    argv = ["construct", "--config", str(EXPERIMENTS / "figure1_cover.json"),
            "--depth", "23", "--out", str(target)]
    assert _run(argv) == (3, "")
    assert target.read_bytes() == b"an earlier dump\n"
    assert [p.name for p in tmp_path.iterdir()] == ["tree.csv"]


def test_a_committed_out_replaces_the_old_file(tmp_path):
    target = tmp_path / "tree.csv"
    target.write_bytes(b"an earlier dump, longer than the new one\n" * 100)
    argv = ["construct", "--config", str(EXPERIMENTS / "figure1_cover.json"), "--depth", "2"]
    assert _run(argv + ["--out", str(target)]) == (0, "")
    assert target.read_text(encoding="utf-8") == _run(argv)[1]
    assert [p.name for p in tmp_path.iterdir()] == ["tree.csv"]


def test_stdout_past_the_spool_size_rolls_over_to_a_file(monkeypatch):
    argv = ["construct", "--config", str(EXPERIMENTS / "figure1_cover.json"),
            "--depth", "6", "--format", "dot"]
    code, held = _run(argv)
    spools, anonymous = [], tempfile.TemporaryFile

    def spool(*args, **kwargs):
        spools.append(anonymous(*args, **kwargs))
        return spools[-1]

    monkeypatch.setattr(cli, "SPOOL_CHARS", 100)
    monkeypatch.setattr(tempfile, "TemporaryFile", spool)
    assert _run(argv) == (code, held)
    assert len(held) > 100 and len(spools) == 1 and spools[0].closed


def test_a_refused_run_drops_its_spool(monkeypatch, capsys):
    monkeypatch.setattr(cli, "SPOOL_CHARS", 10)
    with pytest.raises(RuntimeError), cli.Output(None) as out:
        out.write("more than ten characters\n")
        assert out.spool is not None
        raise RuntimeError
    assert out.spool.closed
    assert capsys.readouterr().out == ""
