"""Experiment driver.

Every subcommand is a thin shell over module operations; the CLI does no
arithmetic of its own.  Output is deterministic given the arguments (plus
the seed, where one applies), so runs are diffable.

Exit codes: 0 pass, 1 check failure, 2 configuration error, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cantor import BitString
from .combinators import sum_family
from .config import (
    build_certify,
    build_construction,
    build_family,
    build_modulus,
    load_config,
)
from .dyadic import Dyadic
from .errors import CapExceeded, CensusUnavailable, ConfigError, MartlabError
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


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _config_construction(args) -> "Martingale":
    config = load_config(args.config)
    if "construction" not in config:
        raise ConfigError("missing field", field="construction")
    return build_construction(config["construction"])


def cmd_figures(args) -> int:
    failed = False
    ids = [args.id] if args.id else list(figure_ids())
    rendered = []
    for fid in ids:
        m = build_figure(fid)
        mismatches = golden_mismatches(fid, m)
        status = "PASS" if not mismatches else "FAIL"
        print(f"figure {fid}: {status} ({len(GOLDEN_TREES[fid])} nodes)")
        for node, expected, actual in mismatches:
            failed = True
            print(f"  node {node or 'λ'}: expected {expected}, got {actual}")
        if args.format == "dot":
            rendered.append(tree_dot(m, FIGURE_DEPTH))
        elif args.format == "csv":
            rendered.append(tree_csv(m, FIGURE_DEPTH))
    if args.out and rendered:
        Path(args.out).write_text("\n".join(rendered))
    return 1 if failed else 0


def cmd_construct(args) -> int:
    m = _config_construction(args)
    export = {"csv": tree_csv, "dot": tree_dot, "json": tree_json}[args.format]
    _emit(export(m, args.depth), args.out)
    return 0


def cmd_verify(args) -> int:
    m = _config_construction(args)
    report = verify_averaging(m, args.depth)
    law = ">=" if report.supermartingale else "=="
    print(
        f"averaging law (2*d(w) {law} d(w0)+d(w1)) to depth {report.depth}: "
        f"{'PASS' if report.passed else 'FAIL'}"
    )
    for violation in report.violations:
        print(
            f"  node {violation.node or 'λ'}: 2*{violation.parent_value} "
            f"vs {violation.child_sum}"
        )
    if report.freeze_depth is not None:
        for w in report.unfrozen:
            print(f"  freeze violated below {w}")
        print(f"freeze at depth {report.freeze_depth}: "
              f"{'PASS' if report.frozen else 'FAIL'}")
    return 0 if report.passed and report.frozen else 1


def _parse_arg(parse, text: str, option: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(str(exc), field=option) from exc


def cmd_success(args) -> int:
    m = _config_construction(args)
    S = _parse_arg(BitString, args.sequence, "--sequence")
    s = _parse_arg(Dyadic.parse, args.s, "--s")
    report = success_scan(m, S, s)
    print(f"success scan along {S} at s={s} (horizon {report.horizon})")
    for n, value in enumerate(report.values):
        mark = "  hit" if n in report.success_levels else ""
        print(f"  n={n}: d={value}{mark}")
    print(f"levels passing: {sorted(report.success_levels)}")
    print(f"first unit-capital level: {report.unitary_hit}")
    return 0


def cmd_diagonalize(args) -> int:
    m = _config_construction(args)
    w = diagonalize(m, args.length)
    print(f"diagonal prefix: {w or 'λ'}")
    trace = [m.value(w.prefix(k)) for k in range(len(w) + 1)]
    for k, value in enumerate(trace):
        print(f"  n={k}: d={value}")
    monotone = all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
    print(f"non-increasing: {'PASS' if monotone else 'FAIL'}")
    return 0 if monotone else 1


def cmd_sum(args) -> int:
    import random

    config = load_config(args.config)
    if "family" not in config or "modulus" not in config:
        raise ConfigError("sum needs family and modulus objects")
    family = build_family(config["family"])
    modulus = build_modulus(config["modulus"])
    w = _parse_arg(BitString, args.w, "-w")
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is not None:
        # widen the audit with reproducible random instances
        rnd = random.Random(seed)
        for _ in range(3):
            k = rnd.randrange(0, 8)
            probe = BitString.from_int(rnd.randrange(1 << k) if k else 0, k)
            sum_family(family, modulus, probe, rnd.randrange(0, 16))
    value = sum_family(family, modulus, w, args.precision)
    print(f"truncated sum at {w or 'λ'} (precision 2^-{args.precision}): {value}")
    return 0


def cmd_census(args) -> int:
    from .circuits import cached_census, mnp_cover_check

    census = cached_census(args.inputs, args.size, args.cache_dir)
    if args.format == "json":
        payload = {
            "inputs": census.n,
            "basis": census.basis,
            "max_size": census.max_size,
            "histogram": {str(k): v for k, v in census.histogram().items()},
            "reachable": len(census.sizes),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("size,count")
        for size, count in census.histogram().items():
            print(f"{size},{count}")
    if args.alpha is not None:
        report = mnp_cover_check(
            args.inputs, _parse_arg(Dyadic.parse, args.alpha, "--alpha"), census
        )
        print(f"size bound floor: {report.size_bound_floor}")
        print(f"tables within bound: {report.census_count}")
        print(
            f"cover count at length {report.prefix_length}: {report.cover_count}"
        )
        print(f"log2(count) < N - f(N) with f(N)={report.f_value}: "
              f"{'yes' if report.log2_count_below_gap else 'no (asymptotic gap, reported)'}")
        print(f"analytic (48*e*s)^s bound: "
              f"{'holds' if report.analytic_bound_holds else 'violated (reported)'}")
    return 0


def cmd_mcsp(args) -> int:
    from .circuits import TruthTable, cached_census, mcsp

    tt = TruthTable.from_bits(_parse_arg(BitString, args.table, "--table"))
    census = cached_census(tt.n, args.size, args.cache_dir)
    verdict = mcsp(tt, args.size, census)
    size = census.min_size(tt)
    print(f"table {args.table} (n={tt.n}): "
          f"{'ACCEPT' if verdict else 'REJECT'} at size {args.size}"
          + (f" (min size {size})" if size is not None
             else f" (not reachable within {census.max_size})"))
    return 0


def cmd_certify(args) -> int:
    import random

    from .entropy import mc_certificate

    config = load_config(args.config)
    if "certify" not in config:
        raise ConfigError("missing field", field="certify")
    family, gap, modulus, horizon, witnesses = build_certify(
        config["certify"], args.cache_dir
    )
    audit_is = (0, 2, 4, 8)
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is not None:
        rnd = random.Random(seed)
        audit_is = audit_is + tuple(sorted(rnd.randrange(16) for _ in range(2)))
    cert = mc_certificate(
        family, gap, modulus, horizon, witnesses, audit_is=audit_is
    )
    _emit(cert.to_text(), args.out)
    return 0 if cert.valid else 1


def cmd_kolmogorov(args) -> int:
    from .kolmogorov import cached_kt_table, k_rate

    budget = BudgetPoly(*args.budget)
    table = cached_kt_table(budget, args.length_cap, args.cache_dir)
    if args.sequence:
        S = _parse_arg(BitString, args.sequence, "--sequence")
        report = k_rate(S, budget, table=table)
        print(f"kt rates along {S} under budget {budget}")
        print("n,kt,ratio")
        for n, (value, ratio) in enumerate(
            zip(report.values, report.ratios), start=1
        ):
            print(f"{n},{value},{ratio}")
        print(f"lowest ratio: {report.lowest}")
        print(f"highest ratio: {report.highest}")
    else:
        print(f"kt table: machine {table.machine_version}, budget {budget}, "
              f"lengths to {table.length_cap}, {len(table.entries)} strings")
        if args.format == "csv":
            print("string,kt")
            for bits in sorted(table.entries, key=lambda b: (len(b), b)):
                print(f"{bits},{table.entries[bits]}")
    return 0


def _add_config_arg(parser) -> None:
    parser.add_argument("--config", required=True, help="experiment JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martlab",
        description="exact betting-martingale laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figures", help="reproduce the golden trees")
    p.add_argument("id", nargs="?", type=int, choices=figure_ids())
    p.add_argument("--format", choices=("csv", "dot"), default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_figures)

    p = sub.add_parser("construct", help="evaluate a construction as a tree")
    _add_config_arg(p)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--format", choices=("csv", "dot", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="check the averaging law")
    _add_config_arg(p)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("success", help="threshold scan along a prefix")
    _add_config_arg(p)
    p.add_argument("--sequence", required=True)
    p.add_argument("--s", default="1", help="success exponent, dyadic p/2^k")
    p.set_defaults(fn=cmd_success)

    p = sub.add_parser("diagonalize", help="build the defeating prefix")
    _add_config_arg(p)
    p.add_argument("-N", "--length", type=int, default=8)
    p.set_defaults(fn=cmd_diagonalize)

    p = sub.add_parser("sum", help="truncated family sum at a node")
    _add_config_arg(p)
    p.add_argument("-w", default="", help="node bits")
    p.add_argument("--precision", type=int, default=10)
    p.add_argument("--seed", type=int, default=None,
                   help="extra modulus audits at seeded random instances")
    p.set_defaults(fn=cmd_sum)

    p = sub.add_parser("census", help="circuit census histogram")
    p.add_argument("-n", "--inputs", type=int, required=True)
    p.add_argument("-S", "--size", type=int, required=True)
    p.add_argument("--alpha", help="also run the covering report at this alpha")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("mcsp", help="decide circuit size from the census")
    p.add_argument("--table", required=True, help="truth table bits")
    p.add_argument("-s", "--size", type=int, required=True)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=cmd_mcsp)

    p = sub.add_parser("certify", help="audit a covering certificate")
    _add_config_arg(p)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=None,
                   help="extra modulus audits at seeded random points")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("kolmogorov", help="complexity tables and rates")
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
    p.set_defaults(fn=cmd_kolmogorov)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, CensusUnavailable) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except MartlabError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
