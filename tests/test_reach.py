"""Every function in ``src/martlab`` is reached by a command, or listed.

The commands are the ones tier-1 already pins: every seed-1 benchmark job
(after its set-up), every error-corpus case, README's CLI block run on
``experiments/``, and the few commands in ``EXTRA`` that reach an input none
of those gives.  They run in this process under ``sys.setprofile``, after
each package module's body runs once more, as an import runs it, and with
the package's function caches emptied, as a fresh process has them.  Each
``def`` in the package must have been called, or be in ``LISTED`` with the
test that reads it and a reason.  The lists are imported, not copied, so a
new corpus case or benchmark job widens the reach with no change here.

A reason starts with one of three prefixes:

- ``paper:`` names the paper claim that the test checks;
- ``bench:`` names a name the benchmark reads (the guard checks that it
  appears under ``bench/``), until the benchmark stops reading it;
- ``safety:`` is for a guard whose only call is the fault it refuses.

A def is told apart by its file, first line and name, so each branch of a
conditional def counts on its own.  A nested def is covered by its parent's
entry.  An entry fails when the commands reach every def of its name, when
its test does not resolve, or when its reason has another prefix.
"""

import ast
import importlib.util
import shlex
import sys
from pathlib import Path

import test_error_corpus

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "martlab"
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402

run.import_martlab()

PREFIXES = ("paper:", "bench:", "safety:")

# (argv, config or None) of each command that reaches an input no benchmark
# job, corpus case or README line gives; run as the corpus runs its cases
EXTRA = [
    (["sum", "--config", "{config}", "--precision", "6"],
     {"version": 1, "family": {"type": "geometric-constants"},
      "modulus": {"type": "geometric", "delta": "1/2", "scale": 0}}),
    # a numeric gap_default and a table modulus, the other branch of each
    (["certify", "--config", "{config}"],
     {"version": 1, "certify": {
         "family": {"type": "mcsp", "inputs": [2], "alpha": "1/2", "census_size": 4},
         "gap": {"7": 0}, "gap_default": 1,
         "modulus": {"type": "table", "values": {"0": 8}, "default": 16},
         "horizon": 7, "witnesses": ["0000000"]}}),
]

ACCEPTANCE = "tests/test_acceptance.py"
CRITERION_3 = f"{ACCEPTANCE}::test_criterion_03_construction_laws"
CRITERION_5 = f"{ACCEPTANCE}::test_criterion_05_borel_cantelli"
CRITERION_7 = f"{ACCEPTANCE}::test_criterion_07_supermartingale_transform"
CRITERION_10 = f"{ACCEPTANCE}::test_criterion_10_entropy_bridge"
MEASURE = "paper: counting measure, a covered leaf's aggregate reaches 1 (Borel-Cantelli), criterion 5"
DIMENSION = "paper: dimension, a covered leaf's scaled aggregate reaches 2**((1-t)n), criterion 5"
ENTROPY = "paper: entropy rate of a per-level family, log2(count)/n on the grid"
BRIDGE = "paper: a valid entropy certificate aggregates to a covering martingale, criterion 10"
FROZEN = "safety: refuses every write, and no command writes"

# module.qualname -> (test nodeid, reason)
LISTED = {
    # the Borel-Cantelli and dimension layer: no command prints its verdicts
    "combinators._aligned_sum": (CRITERION_5, MEASURE),
    "combinators.sum_finite": (
        "tests/test_combinators.py::test_sum_commutes_and_associates",
        "paper: a finite sum of martingales is their exact pointwise sum, criterion 4"),
    "combinators.scale_pow2": (CRITERION_5, DIMENSION),
    "combinators.aggregate_martingale": (CRITERION_5, MEASURE),
    "combinators._audit_family": (CRITERION_5, MEASURE),
    "combinators.borel_cantelli_measure": (CRITERION_5, MEASURE),
    "combinators.unit_certificate": (CRITERION_5, MEASURE),
    "combinators.borel_cantelli_dimension": (CRITERION_5, DIMENSION),
    "combinators.dimension_certificate": (CRITERION_5, DIMENSION),
    "combinators.worst_case_gamma": (
        CRITERION_7, "paper: any in-band approximator keeps (1-1/n) ((n-1)/(n+1))**n, criterion 7"),
    "combinators.approx_supermartingale.<locals>.kernel": (
        CRITERION_7, "paper: the transform's values are >=-averaging along a path, criterion 7"),
    "entropy.LevelFamily.from_predicate": (
        "tests/test_entropy.py::test_rate_trend_toward_quarter_entropy", ENTROPY),
    "entropy.level_count": ("tests/test_entropy.py::test_level_count_uses_analytic_counter", ENTROPY),
    "entropy.entropy_rate": ("tests/test_entropy.py::test_union_rate_law", ENTROPY),
    "entropy.certificate_family": (CRITERION_10, BRIDGE),
    "constructions.Cover.from_predicate": (
        "tests/test_entropy.py::test_rate_of_everything_is_one", ENTROPY),
    # the value comparisons that layer reads (its sums add integer pairs,
    # and Dyadic has no arithmetic), and exact equality
    "dyadic.Dyadic.__ge__": (CRITERION_5, DIMENSION),
    "dyadic.Dyadic.__eq__": (
        CRITERION_3, "paper: exact values, each construction's value law holds with equality, criterion 3"),
    # names the benchmark wraps by name, until it reads run reports instead
    "oracle.count": (
        "tests/test_oracle.py::test_sat_count_example", "bench: oracle.count, a span in bench/spans.py"),
    "cantor.LanguageView.contains": (
        "tests/test_language_twin.py::test_mask_matches_the_frozenset_twin",
        "bench: cantor.contains, the span bench/spans.py puts on LanguageView.contains"),
    # immutability guards
    "cantor.BitString.__setattr__": (
        "tests/test_bitstring_twin.py::test_construction_errors_match_the_twin", FROZEN),
    "cantor.LanguageView.__setattr__": (
        "tests/test_cantor.py::test_language_view_is_immutable", FROZEN),
    "dyadic.Dyadic.__setattr__": ("tests/test_dyadic.py::test_dyadic_is_immutable", FROZEN),
}


def _defs() -> list[tuple[str, str, int, int, tuple]]:
    """``(module.qualname, file, line, lines, code)`` for every def in the
    package, in file and line order, qualnames spelt as ``code.co_qualname``
    spells them.  ``code`` is ``(file, first line, name)`` as the def's code
    object has them: its first line is its first decorator's."""
    found = []

    def visit(node: ast.AST, scope: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}{child.name}"
                lines = child.end_lineno - child.lineno + 1
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                code = (path.name, first, child.name)
                found.append((f"{path.stem}.{name}", path.name, child.lineno, lines, code))
                visit(child, f"{name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.", path)
            else:
                visit(child, scope, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return found


def _readme_commands() -> list[list[str]]:
    """The argv of each ``martlab`` line in README's CLI block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## The CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = shlex.split(block.replace("\\\n", " "), comments=True)
    commands: list[list[str]] = []
    for word in lines:
        if word == "martlab":
            commands.append([])
        else:
            commands[-1].append(word)
    return commands


def _fill(argv: list[str], tmp: Path) -> list[str]:
    """README's paths made absolute: ``experiments/`` is the repository's,
    the cache directory is under ``tmp``."""
    out = []
    for arg in argv:
        if arg.startswith("experiments/"):
            arg = str(ROOT / arg)
        elif arg.startswith("~/"):
            arg = str(tmp / arg[2:])
        out.append(arg)
    return out


def _module_name(path: Path) -> str:
    return "martlab" if path.stem == "__init__" else f"martlab.{path.stem}"


def _import_package() -> None:
    """Run each package module's body once more, outside ``sys.modules``,
    so the defs an import calls are seen."""
    for path in sorted(PACKAGE.glob("*.py")):
        spec = importlib.util.spec_from_file_location(
            _module_name(path), path,
            submodule_search_locations=[] if path.stem == "__init__" else None,
        )
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _clear_caches() -> None:
    """Empty the package's module-level function caches, so a def whose
    result an earlier test left cached is called again."""
    for path in PACKAGE.glob("*.py"):
        for obj in vars(sys.modules[_module_name(path)]).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _run_commands(tmp: Path) -> None:
    _import_package()
    for workload in sorted(workloads.WORKLOADS):
        work = tmp / workload
        gen = workloads.generate(workload, run.REFERENCE_SEED, work)
        with run.inside(work):
            for argv in gen.populate:
                run.execute(workloads.Job("populate", argv=argv))
            for job in gen.jobs:
                run.execute(job)
    for k, (_, argv, config) in enumerate(test_error_corpus.CASES):
        case = tmp / "corpus" / str(k)
        case.mkdir(parents=True)
        test_error_corpus.run_case(argv, config, case)
    shell = tmp / "shell"
    shell.mkdir()
    with run.inside(shell):
        for argv in _readme_commands():
            run.execute(workloads.Job("readme", argv=tuple(_fill(argv, shell))))
    for k, (argv, config) in enumerate(EXTRA):
        case = tmp / "extra" / str(k)
        case.mkdir(parents=True)
        test_error_corpus.run_case(argv, config, case)


def _reached(tmp: Path) -> set[tuple]:
    """``(file, first line, name)`` of each package function the commands
    call."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    _clear_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _run_commands(tmp)
    finally:
        sys.setprofile(previous)
    return {
        (Path(code.co_filename).name, code.co_firstlineno, code.co_name)
        for code in codes
        if Path(code.co_filename).resolve().parent == PACKAGE
    }


def _covered(name: str, listed) -> bool:
    """Whether ``name`` or a def it is nested in is listed."""
    parts = name.split(".<locals>.")
    return any(".<locals>.".join(parts[:k]) in listed for k in range(1, len(parts) + 1))


def _resolves(nodeid: str) -> bool:
    """Whether ``file::name[id]`` names a test function defined in that file."""
    path, _, name = nodeid.partition("::")
    file = ROOT / path
    if not name or not file.is_file():
        return False
    name = name.split("[", 1)[0]
    tree = ast.parse(file.read_text())
    return any(
        isinstance(node, ast.FunctionDef) and node.name == name for node in tree.body
    )


def _bench_reads(word: str) -> bool:
    return any(word in path.read_text() for path in (ROOT / "bench").rglob("*.py"))


def _faults(defs: list, reached: set[tuple], listed: dict) -> list[str]:
    """One line per unreached, unlisted def, and per stale or malformed entry;
    an entry is stale when the commands reach every def of its name."""
    faults = [
        f"src/martlab/{file}:{line} {name} ({lines} lines): no command calls it"
        for name, file, line, lines, code in defs
        if code not in reached and not _covered(name, listed)
    ]
    codes: dict[str, list[tuple]] = {}
    for name, *_, code in defs:
        codes.setdefault(name, []).append(code)
    for name, (nodeid, reason) in sorted(listed.items()):
        where = f"LISTED[{name!r}]"
        if name not in codes:
            faults.append(f"{where}: no such def in src/martlab")
        elif all(code in reached for code in codes[name]):
            faults.append(f"{where}: stale, the commands reach it")
        if not _resolves(nodeid):
            faults.append(f"{where}: test {nodeid!r} does not resolve")
        prefix, _, what = reason.partition(" ")
        if prefix not in PREFIXES or not what.strip():
            faults.append(f"{where}: reason {reason!r} does not start with one of {PREFIXES}")
        elif prefix == "bench:" and not _bench_reads(word := what.split()[0].strip("`,;")):
            faults.append(f"{where}: bench/ never reads {word!r}")
    return faults


def test_every_def_is_reached_or_listed(tmp_path):
    faults = _faults(_defs(), _reached(tmp_path), LISTED)
    assert not faults, "\n".join(faults)


def test_guard_names_each_fault():
    defs = [
        (name, "m.py", line, lines, ("m.py", line, name.rpartition(".")[2]))
        for name, line, lines in [
            ("m.used", 1, 2), ("m.dead", 4, 3), ("m.kept", 8, 3),
            ("m.kept.<locals>.inner", 9, 2), ("m.stale", 12, 2), ("m.wrapped", 15, 2),
            ("m.branch", 18, 2), ("m.branch", 21, 2),
        ]
    ]
    here = "tests/test_reach.py::test_guard_names_each_fault"
    listed = {
        "m.kept": (here, "paper: a claim the test checks"),
        "m.stale": (here, "safety: a refusal"),
        "m.gone": ("tests/test_reach.py::test_no_such_test[1]", "note: why"),
        "m.wrapped": (here, "bench: no_name_the_benchmark_reads"),
    }
    # the second of two defs of one name is unreached
    reached = {("m.py", 1, "used"), ("m.py", 12, "stale"), ("m.py", 18, "branch")}
    assert _faults(defs, reached, listed) == [
        "src/martlab/m.py:4 m.dead (3 lines): no command calls it",
        "src/martlab/m.py:21 m.branch (2 lines): no command calls it",
        "LISTED['m.gone']: no such def in src/martlab",
        "LISTED['m.gone']: test 'tests/test_reach.py::test_no_such_test[1]' does not resolve",
        f"LISTED['m.gone']: reason 'note: why' does not start with one of {PREFIXES}",
        "LISTED['m.stale']: stale, the commands reach it",
        "LISTED['m.wrapped']: bench/ never reads 'no_name_the_benchmark_reads'",
    ]


def test_defs_are_found_as_their_code_objects_are():
    # a decorated classmethod, a plain function and a nested def
    from martlab import combinators, constructions
    from martlab.dyadic import ONE

    codes = {code: name for name, *_, code in _defs()}
    for fn, name in [
        (constructions.Cover.from_members, "constructions.Cover.from_members"),
        (combinators.geometric_modulus, "combinators.geometric_modulus"),
        (combinators.geometric_modulus(ONE).fn, "combinators.geometric_modulus.<locals>.fn"),
    ]:
        code = fn.__code__
        assert codes[(Path(code.co_filename).name, code.co_firstlineno, code.co_name)] == name
