"""Experiment driver.

Every subcommand is a thin shell over module operations; the CLI does no
arithmetic of its own.  Output is deterministic given the arguments (plus
the seed, where one applies), so runs are diffable.

A command line is declared once, by the ``add_argument`` calls in
:func:`build_parser`.  :func:`read_argv` reads a well-formed line in one
pass from the actions those calls return; argparse reads every other line
(help, abbreviations, ``--opt=value``, negative numbers, errors) and is the
reader's twin in the tests.

Exit codes: 0 pass, 1 check failure, 2 configuration error (a query past a
language's declared horizon counts as one), 3 resource cap.  A stdout
whose reader closes early ends the run with exit 1 and no traceback.
Every command writes to one :class:`Output` that :func:`main` makes, and
only ``main`` commits it: when the command returns its code, 0 or 1, the
``--out`` file is moved into place and stdout is written.  A raised error
discards both, so a refused run leaves stdout empty and no ``--out`` file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import compress
from operator import add
from pathlib import Path

from . import cache
from .cantor import BitString, level_names
from .combinators import sum_family
from .config import (
    _bits,
    _dyadic,
    _natural,
    _positive,
    build_certify,
    build_construction,
    build_family,
    build_modulus,
    load_config,
)
from .dyadic import texts
from .errors import (
    CapExceeded,
    CensusUnavailable,
    ConfigError,
    HorizonExceeded,
    MartlabError,
)
from .golden import (
    FIGURE_DEPTH,
    GOLDEN_TREES,
    build_figure,
    figure_ids,
    golden_mismatches,
)
from .machine import BudgetPoly
from .martingale import (
    diagonalize,
    success_scan,
    tree_csv,
    tree_dot,
    tree_json,
    verify_averaging,
)

__all__ = ["main"]


# stdout text past this many characters is held in an anonymous file
SPOOL_CHARS = 1 << 22


class Output:
    """What one command writes: stdout text, and the ``--out`` file if the
    command was given one.

    Stdout text is held as a list of parts, and in an anonymous temporary
    file once it passes :data:`SPOOL_CHARS`.  ``--out`` text streams into a
    temporary file beside its target, made before the command runs, so an
    unusable path is refused before any work.  :meth:`commit` moves that
    file into place, unless nothing was written to it, and writes stdout;
    :meth:`close` drops whatever was not committed.
    """

    def __init__(self, path: str | None) -> None:
        self.parts: list[str] = []
        self.held = 0
        self.spool = None
        self.path, self.file = path, None
        if path is not None:
            self.tmp, self.file = _beside(path)

    def write(self, text: str) -> None:
        """Add ``text`` to stdout."""
        if self.spool is not None:
            self.spool.write(text)
            return
        self.parts.append(text)
        self.held += len(text)
        if self.held > SPOOL_CHARS:
            import tempfile

            self.spool = tempfile.TemporaryFile("w+", encoding="utf-8")
            self.spool.writelines(self.parts)
            self.parts = []

    def export(self, text: str) -> None:
        """Add ``text`` to the dump: the ``--out`` file, or else stdout."""
        if self.file is None:
            self.write(text)
        else:
            self.file.write(text)

    def commit(self) -> None:
        if self.file is not None:
            written = self.file.tell()
            self.file.close()
            try:
                os.replace(self.tmp, self.path) if written else os.unlink(self.tmp)
            except OSError as exc:
                raise _unwritable(self.path, exc) from exc
            self.file = None
        try:
            if self.spool is None:
                sys.stdout.write("".join(self.parts))
            else:
                self.spool.seek(0)
                while chunk := self.spool.read(SPOOL_CHARS):
                    sys.stdout.write(chunk)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader went away: send the rest of stdout to devnull, so
            # the interpreter's own flush at exit raises nothing
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise

    def close(self) -> None:
        if self.spool is not None:
            self.spool.close()
        if self.file is not None:
            self.file.close()
            os.unlink(self.tmp)

    def __enter__(self) -> "Output":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _beside(path: str):
    """A new temporary file in ``path``'s directory, its name and a text
    stream onto it, with the mode a new file at ``path`` would get."""
    import errno
    import tempfile

    target = Path(path)
    try:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp",
                                   dir=target.parent)
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, 0o666 & ~umask)
    return tmp, open(fd, "w", encoding="utf-8")


def _unwritable(path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {path} ({exc.strerror})", field="--out")


def _config_construction(args) -> "Martingale":
    config = load_config(args.config)
    if "construction" not in config:
        raise ConfigError("missing field", field="construction")
    return _parse_arg(build_construction, config["construction"], "construction")


def _cache_dir(args) -> Path | None:
    try:
        return None if args.cache_dir is None else cache.directory(args.cache_dir)
    except OSError as exc:
        raise ConfigError(f"not a usable directory ({exc.strerror})",
                          field="--cache-dir") from exc


def cmd_figures(args, out: Output) -> int:
    failed = False
    ids = [args.id] if args.id else list(figure_ids())
    built = [build_figure(fid) for fid in ids]
    for fid, m in zip(ids, built):
        mismatches = golden_mismatches(fid, m)
        status = "PASS" if not mismatches else "FAIL"
        out.write(f"figure {fid}: {status} ({len(GOLDEN_TREES[fid])} nodes)\n")
        for node, expected, actual in mismatches:
            failed = True
            out.write(f"  node {node or 'λ'}: expected {expected}, got {actual}\n")
    if args.format is not None:
        export = tree_dot if args.format == "dot" else tree_csv
        for i, m in enumerate(built):
            if i:
                out.export("\n")
            export(m, FIGURE_DEPTH, out.export)
    return 1 if failed else 0


def cmd_construct(args, out: Output) -> int:
    depth = _natural(args.depth, "--depth")
    m = _config_construction(args)
    export = {"csv": tree_csv, "dot": tree_dot, "json": tree_json}[args.format]
    export(m, depth, out.export)
    return 0


def cmd_verify(args, out: Output) -> int:
    depth = _natural(args.depth, "--depth")
    m = _config_construction(args)
    report = verify_averaging(m, depth)
    law = ">=" if report.supermartingale else "=="
    out.write(
        f"averaging law (2*d(w) {law} d(w0)+d(w1)) to depth {report.depth}: "
        f"{'PASS' if report.passed else 'FAIL'}\n"
    )
    for violation in report.violations:
        out.write(
            f"  node {violation.node or 'λ'}: 2*{violation.parent_value} "
            f"vs {violation.child_sum}\n"
        )
    if report.freeze_depth is not None:
        for w in report.unfrozen:
            out.write(f"  freeze violated below {w}\n")
        out.write(f"freeze at depth {report.freeze_depth}: "
                  f"{'PASS' if report.frozen else 'FAIL'}\n")
    return 0 if report.passed and report.frozen else 1


def _parse_arg(parse, text: str, option: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(str(exc), field=option) from exc


def cmd_success(args, out: Output) -> int:
    m = _config_construction(args)
    S = _bits(args.sequence, "--sequence")
    s = _dyadic(args.s, "--s")
    report = success_scan(m, S, s)
    hits = report.success_levels
    lines = [f"success scan along {S} at s={s} (horizon {report.horizon})\n"]
    lines += [f"  n={n}: d={value}{'  hit' if n in hits else ''}\n"
              for n, value in enumerate(texts(report.values))]
    lines.append(f"levels passing: {sorted(hits)}\n"
                 f"first unit-capital level: {report.unitary_hit}\n")
    out.write("".join(lines))
    return 0


def cmd_diagonalize(args, out: Output) -> int:
    length = _natural(args.length, "--length")
    m = _config_construction(args)
    w = diagonalize(m, length)
    trace = tuple(m.path(w))
    # b / 2**bd <= a / 2**ad, both sides over their larger denominator
    monotone = all(b << max(0, ad - bd) <= a << max(0, bd - ad)
                   for (a, ad), (b, bd) in zip(trace, trace[1:]))
    lines = [f"diagonal prefix: {w or 'λ'}\n"]
    lines += [f"  n={k}: d={value}\n" for k, value in enumerate(texts(trace))]
    lines.append(f"non-increasing: {'PASS' if monotone else 'FAIL'}\n")
    out.write("".join(lines))
    return 0 if monotone else 1


def cmd_sum(args, out: Output) -> int:
    import random

    precision = _natural(args.precision, "--precision")
    config = load_config(args.config)
    if "family" not in config or "modulus" not in config:
        raise ConfigError("sum needs family and modulus objects")
    family = _parse_arg(build_family, config["family"], "family")
    modulus = _parse_arg(build_modulus, config["modulus"], "modulus")
    w = _bits(args.w, "-w")
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is not None:
        # widen the audit with reproducible random instances
        rnd = random.Random(seed)
        for _ in range(3):
            k = rnd.randrange(0, 8)
            probe = BitString.from_int(rnd.randrange(1 << k) if k else 0, k)
            sum_family(family, modulus, probe, rnd.randrange(0, 16))
    value = sum_family(family, modulus, w, precision)
    out.write(f"truncated sum at {w or 'λ'} (precision 2^-{precision}): {value}\n")
    return 0


def cmd_census(args, out: Output) -> int:
    from .circuits import DEFAULT_BASIS, cached_census, mnp_cover_check, mnp_size_bound_floor

    inputs = _positive(args.inputs, "--inputs")
    size = _natural(args.size, "--size")
    alpha = None if args.alpha is None else _dyadic(args.alpha, "--alpha")
    if alpha is not None:  # refuse what the arguments alone decide, before any build
        mnp_size_bound_floor(inputs, alpha, size)
    census = cached_census(inputs, size, _cache_dir(args))
    if args.format == "json":
        payload = {
            "inputs": census.n,
            "basis": DEFAULT_BASIS,
            "max_size": census.max_size,
            "histogram": {str(k): v for k, v in census.histogram().items()},
            "reachable": census.count_at_most(census.max_size),
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        out.write("size,count\n")
        for size, count in census.histogram().items():
            out.write(f"{size},{count}\n")
    if alpha is not None:
        report = mnp_cover_check(inputs, alpha, census)
        out.write(f"size bound floor: {report.size_bound_floor}\n"
                  f"tables within bound: {report.census_count}\n"
                  f"cover count at length {report.prefix_length}: {report.cover_count}\n")
        out.write(f"log2(count) < N - f(N) with f(N)={report.f_value}: "
                  f"{'yes' if report.log2_count_below_gap else 'no (asymptotic gap, reported)'}\n")
        out.write(f"analytic (48*e*s)^s bound: "
                  f"{'holds' if report.analytic_bound_holds else 'violated (reported)'}\n")
    return 0


def cmd_mcsp(args, out: Output) -> int:
    from .circuits import TruthTable, cached_census, mcsp

    tt = _parse_arg(lambda t: TruthTable.from_bits(BitString(t)), args.table, "--table")
    if tt.n < 1:  # as census -n 0: an input count below 1 is a config error
        raise ConfigError("a table needs at least 2 rows, got 1", field="--table")
    bound = _natural(args.size, "--size")
    census = cached_census(tt.n, bound, _cache_dir(args))
    verdict = mcsp(tt, bound, census)
    size = census.min_size(tt)
    out.write(f"table {args.table} (n={tt.n}): "
              f"{'ACCEPT' if verdict else 'REJECT'} at size {bound}"
              + (f" (min size {size})\n" if size is not None
                 else f" (not reachable within {census.max_size})\n"))
    return 0


def cmd_certify(args, out: Output) -> int:
    import random

    from .entropy import mc_certificate

    config = load_config(args.config)
    if "certify" not in config:
        raise ConfigError("missing field", field="certify")
    cache_dir = _cache_dir(args)
    family, gap, modulus, horizon, witnesses = _parse_arg(
        lambda spec: build_certify(spec, cache_dir), config["certify"], "certify"
    )
    audit_is = (0, 2, 4, 8)
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is not None:
        rnd = random.Random(seed)
        audit_is = audit_is + tuple(sorted(rnd.randrange(16) for _ in range(2)))
    cert = mc_certificate(
        family, gap, modulus, horizon, witnesses, audit_is=audit_is
    )
    out.export(cert.to_text())
    return 0 if cert.valid else 1


def cmd_kolmogorov(args, out: Output) -> int:
    from .kolmogorov import NO_PROGRAM, cached_kt_table, k_rate

    length_cap = _natural(args.length_cap, "--length-cap")
    budget = _parse_arg(lambda v: BudgetPoly(*v), args.budget, "--budget")
    S = None if args.sequence is None else _bits(args.sequence, "--sequence")
    if S is not None and not S:  # k_rate's check, made before the table is fetched
        raise ConfigError("needs a nonempty prefix", field="--sequence")
    table = cached_kt_table(budget, length_cap, _cache_dir(args))
    if S is not None:
        report = _parse_arg(lambda w: k_rate(w, table), S, "--sequence")
        out.write(f"kt rates along {S} under budget {budget}\nn,kt,ratio\n")
        for n, (value, ratio) in enumerate(
            zip(report.values, report.ratios), start=1
        ):
            out.write(f"{n},{value},{ratio}\n")
        out.write(f"lowest ratio: {report.lowest}\nhighest ratio: {report.highest}\n")
    else:
        out.write(f"kt table: machine {table.machine_version}, budget {budget}, "
                  f"lengths to {table.length_cap}, {table.count()} strings\n")
        if args.format == "csv":
            out.write("string,kt\n")
            # kts is indexed by the enumeration: level k starts at 2**k - 1,
            # in index order; a string that no program prints is left out
            tails = {v: f",{v}\n" for v in set(table.kts)}
            # maps a kt byte to 1, and NO_PROGRAM to 0, for compress
            printed = bytearray(b"\1" * 256)
            printed[NO_PROGRAM] = 0
            for k in range(table.length_cap + 1):
                start = (1 << k) - 1
                for names in level_names(k):
                    kts = table.kts[start:start + len(names)]
                    start += len(names)
                    values = kts.replace(bytes([NO_PROGRAM]), b"")
                    out.write("".join(map(add, compress(names, kts.translate(printed)),
                                          map(tails.__getitem__, values))))
    return 0


def _add_config_arg(parser) -> None:
    parser.add_argument("--config", required=True, help="experiment JSON file")


class _Parser(argparse.ArgumentParser):
    """The CLI's argparse parser; ``commands`` maps each subcommand's name to
    the :class:`_Command` that :func:`read_argv` reads."""

    commands: dict[str, _Command]


class _Command:
    """One subcommand: its argparse subparser, and the table :func:`read_argv`
    reads, built from the actions its ``add_argument`` calls return.

    The table holds what ``parse_args`` would set for an empty line (the
    subcommand name, each action's default and the ``set_defaults`` value
    ``fn``), each option string's action, the positional actions in order
    and the destinations that are required.  Every action declared here
    stores its value: one, or a list of ``nargs`` of them; no string
    default has a ``type`` for argparse to apply.
    """

    def __init__(self, parser: argparse.ArgumentParser, name: str, fn) -> None:
        self.parser = parser
        parser.set_defaults(fn=fn)
        self.defaults = {"command": name, "fn": fn}
        self.options: dict[str, argparse.Action] = {}
        self.positionals: list[argparse.Action] = []
        self.required: list[str] = []

    def add_argument(self, *names, **kwargs) -> None:
        action = self.parser.add_argument(*names, **kwargs)
        self.defaults[action.dest] = action.default
        for option in action.option_strings:
            self.options[option] = action
        if not action.option_strings:
            self.positionals.append(action)
        if action.required:
            self.required.append(action.dest)


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parsing keeps no state on it."""
    parser = _Parser(
        prog="martlab",
        description="exact betting-martingale laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=argparse.ArgumentParser)
    parser.commands = {}

    def command(name: str, fn, help: str) -> _Command:
        parser.commands[name] = p = _Command(sub.add_parser(name, help=help), name, fn)
        return p

    p = command("figures", cmd_figures, "reproduce the golden trees")
    p.add_argument("id", nargs="?", type=int, choices=figure_ids())
    p.add_argument("--format", choices=("csv", "dot"), default=None)
    p.add_argument("--out")

    p = command("construct", cmd_construct, "evaluate a construction as a tree")
    _add_config_arg(p)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--format", choices=("csv", "dot", "json"), default="csv")
    p.add_argument("--out")

    p = command("verify", cmd_verify, "check the averaging law")
    _add_config_arg(p)
    p.add_argument("--depth", type=int, default=4)

    p = command("success", cmd_success, "threshold scan along a prefix")
    _add_config_arg(p)
    p.add_argument("--sequence", required=True)
    p.add_argument("--s", default="1", help="success exponent, dyadic p/2^k")

    p = command("diagonalize", cmd_diagonalize, "build the defeating prefix")
    _add_config_arg(p)
    p.add_argument("-N", "--length", type=int, default=8)

    p = command("sum", cmd_sum, "truncated family sum at a node")
    _add_config_arg(p)
    p.add_argument("-w", default="", help="node bits")
    p.add_argument("--precision", type=int, default=10)
    p.add_argument("--seed", type=int, default=None,
                   help="extra modulus audits at seeded random instances")

    p = command("census", cmd_census, "circuit census histogram")
    p.add_argument("-n", "--inputs", type=int, required=True)
    p.add_argument("-S", "--size", type=int, required=True)
    p.add_argument("--alpha", help="also run the covering report at this alpha")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cache-dir", default=None)

    p = command("mcsp", cmd_mcsp, "decide circuit size from the census")
    p.add_argument("--table", required=True, help="truth table bits")
    p.add_argument("-s", "--size", type=int, required=True)
    p.add_argument("--cache-dir", default=None)

    p = command("certify", cmd_certify, "audit a covering certificate")
    _add_config_arg(p)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=None,
                   help="extra modulus audits at seeded random points")

    p = command("kolmogorov", cmd_kolmogorov, "complexity tables and rates")
    p.add_argument("-L", "--length-cap", type=int, default=10)
    p.add_argument(
        "--budget",
        type=int,
        nargs=3,
        default=(4, 1, 16),
        metavar=("A", "K", "B"),
        help="step budget a*n^k + b",
    )
    p.add_argument("--sequence", help="report per-prefix rates for these bits")
    p.add_argument("--format", choices=("summary", "csv"), default="summary")
    p.add_argument("--cache-dir", default=None)

    return parser


def read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read in one
    pass, or ``None`` where the line is left to argparse.

    A line is read here only when its first word is a subcommand's name and
    each later word is that subcommand's positional or one of its exact
    option strings followed by ``nargs`` values; no option appears twice,
    no value starts with ``-``, every value passes its action's ``type`` and
    ``choices``, and every required option is present.  So ``-h``, an
    abbreviation, ``--opt=value``, a negative number and every malformed
    line go to argparse, with its own help, usage and errors.
    """
    command = build_parser().commands.get(argv[0]) if argv else None
    if command is None:
        return None
    values = dict(command.defaults)
    seen = set()
    positionals = iter(command.positionals)
    at, stop = 1, len(argv)
    while at < stop:
        action = command.options.get(argv[at])
        if action is not None:
            at += 1
        elif argv[at].startswith("-") or (action := next(positionals, None)) is None:
            return None
        many = isinstance(action.nargs, int)
        count = action.nargs if many else 1
        words = argv[at:at + count]
        at += count
        if len(words) < count or action.dest in seen:
            return None
        seen.add(action.dest)
        typed = []
        for word in words:
            if word.startswith("-"):
                return None
            if action.type is not None:
                try:
                    word = action.type(word)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if action.choices is not None and word not in action.choices:
                return None
            typed.append(word)
        values[action.dest] = typed if many else typed[0]
    if not seen.issuperset(command.required):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    """Run one command line, ``sys.argv[1:]`` by default, and return its
    exit code.

    :func:`read_argv` reads a well-formed line in one pass; any line it
    declines goes to ``build_parser().parse_args``, which reads it to the
    same namespace or exits with its own help or usage message.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        with Output(getattr(args, "out", None)) as out:
            code = args.fn(args, out)
            out.commit()
        return code
    except BrokenPipeError:  # the reader went away: no traceback
        return 1
    except (ConfigError, HorizonExceeded) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, CensusUnavailable) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return 3
    except MartlabError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
