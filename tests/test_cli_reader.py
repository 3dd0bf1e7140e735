"""The one-pass argv reader against argparse, its twin.

``cli.read_argv`` either declines a command line (``None``) or returns
exactly the namespace ``build_parser().parse_args`` gives for it.  The lines
are every seed-1 benchmark job and set-up command, every error-corpus case,
README's CLI block and the calls of ``test_repeated_main_matches_a_fresh_parser``;
``test_cli_fuzz.py`` checks the same on its generated lines.  The reader
must also accept every seed-1 benchmark line: those are the calls it is
there to serve.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from martlab.cli import build_parser, read_argv

import test_error_corpus
from test_config_cli import repeated_calls
from test_reach import _readme_commands

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402


def twin_read(argv: list[str]) -> bool:
    """Whether the reader took ``argv``; where it did, argparse must give
    the same namespace."""
    read = read_argv(argv)
    if read is None:
        return False
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            parsed = build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"read {argv}, which argparse refuses: {err.getvalue()}")
    assert vars(read) == vars(parsed), argv
    return True


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_reader_takes_every_seed_1_bench_line(workload, tmp_path):
    gen = workloads.generate(workload, run.REFERENCE_SEED, tmp_path)
    lines = [list(argv) for argv in gen.populate]
    lines += [list(job.argv) for job in gen.jobs if job.argv]
    assert lines
    assert [argv for argv in lines if not twin_read(argv)] == []


def test_reader_matches_argparse_on_the_error_corpus():
    taken = [twin_read(argv) for _, argv, _ in test_error_corpus.CASES]
    # the corpus holds both kinds: lines read here, and argparse's own errors
    assert any(taken) and not all(taken)


def test_reader_matches_argparse_on_readme_commands():
    commands = _readme_commands()
    assert commands
    for argv in commands:
        twin_read(argv)


def test_reader_matches_argparse_on_the_repeated_calls(tmp_path):
    taken = {tuple(argv): twin_read(argv) for argv in repeated_calls(tmp_path)}
    assert not taken[("--help",)] and not taken[("kolmogorov", "--help")]
    assert taken[("figures", "2", "--format", "csv")]


@pytest.mark.parametrize("argv", [
    ["census", "-n", "2", "-S", "3", "-h"],
    ["verify", "--config", "c.json", "--dep", "3"],
    ["verify", "--config=c.json"],
    ["verify", "--config", "c.json", "--depth", "-1"],
    ["verify", "--config", "c.json", "--depth", "2", "--depth", "3"],
    ["diagonalize", "--config", "c.json", "-N", "2", "--length", "3"],
    ["diagonalize", "--config", "c.json", "-N2"],
    ["verify", "--depth", "2"],
    ["verify", "--config"],
    ["kolmogorov", "--budget", "1", "2"],
    ["kolmogorov", "--budget", "1", "2", "x"],
    ["figures", "2", "3"],
    ["figures", "9"],
    ["figures", "x"],
    ["figures", "--format", "svg"],
    ["figures", "--"],
    ["verify", "--config", "c.json", "extra"],
    ["nothing"],
    ["--help"],
    [],
])
def test_reader_leaves_other_lines_to_argparse(argv):
    assert read_argv(argv) is None
