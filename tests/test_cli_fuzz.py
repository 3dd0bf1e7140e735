"""No command line or config file ends in a traceback.

``main`` must return a documented exit code (0 pass, 1 check failure,
2 configuration error, 3 resource cap), or argparse must exit with status 2
on a malformed command line.  Wherever the one-pass reader takes a command
line, argparse must read it to the same namespace.  Config files are the
``experiments/`` fixtures with a few fields replaced by arbitrary small
JSON; sizes stay small so every example runs in milliseconds.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from martlab.cli import build_parser, main, read_argv

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
FIXTURES = {path.stem: json.loads(path.read_text()) for path in EXPERIMENTS.glob("*.json")}
CONSTRUCTIONS = ["figure1_cover", "figure4_acceptance", "kt_cover"]
# the fixtures each config-reading command is usually given
FITS = {
    "construct": CONSTRUCTIONS, "verify": CONSTRUCTIONS, "success": CONSTRUCTIONS,
    "diagonalize": CONSTRUCTIONS, "sum": ["geometric_sum"], "certify": ["mcsp_certificate"],
}

# words the config schema and the CLI give meaning to
WORDS = [
    "cover", "condexp", "subset", "acceptance", "acceptance-gap", "biimmunity",
    "kt-cover", "sat", "explicit", "mcsp-witness", "short-program", "exists",
    "unique", "gap", "geometric-constants", "covers", "geometric", "affine",
    "table", "mcsp", "explicit-levels", "n", "1/2", "0", "-1/4", "x",
]
KEYS = [
    "version", "construction", "family", "modulus", "certify", "type", "level",
    "members", "relation", "decide", "builtin", "vars", "inputs", "size",
    "max_len", "budget", "values", "language", "indices", "horizon", "q",
    "correct", "target", "t", "default", "gap", "delta", "scale", "slope",
    "offset", "levels", "capital_bounds", "alpha", "census_size",
    "gap_default", "witnesses", "seed",
]

small_int = st.integers(-2, 6)
bits = st.text("01", max_size=6)
scalars = (
    small_int | bits | st.sampled_from(WORDS) | st.none() | st.booleans()
    | st.floats(-2, 6, allow_nan=False) | st.text(max_size=3)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | bits, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def configs(draw, names):
    """A fixture with up to three fields replaced, removed or added."""
    config = json.loads(json.dumps(FIXTURES[draw(st.sampled_from(names))]))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        node = config
        while True:
            # the version check is one line; leave it to the add below
            keys = [k for k in node if k != "version"] if isinstance(node, dict) \
                else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            if isinstance(node[key], (dict, list)) and draw(st.booleans()):
                node = node[key]
                continue
            if isinstance(node, dict) and draw(st.integers(0, 3)) == 0:
                del node[key]
            else:
                node[key] = draw(json_values)
            break
        if isinstance(node, dict) and draw(st.integers(0, 3)) == 0:
            node[draw(st.sampled_from(KEYS))] = draw(json_values)
    return config


def _int(lo, hi):
    return st.integers(lo, hi).map(str)


TEXT = bits | st.sampled_from(WORDS) | st.text(max_size=4)
# signed dyadic text; a negative one only parses in the --alpha=<v> form
DYADICS = st.builds(lambda p, k: f"{p}/{1 << k}" if k else str(p),
                    st.integers(-160, 64), st.integers(0, 4))
TABLES = st.integers(0, 4).flatmap(lambda n: st.text("01", min_size=1 << n, max_size=1 << n))
# per command: (option, value strategy, whether argparse requires it); an
# option ending in "=" is joined to its value in one argument
OPTIONS = {
    "figures": [("--format", st.sampled_from(["csv", "dot"]), False)],
    "construct": [("--depth", _int(-2, 5), False),
                  ("--format", st.sampled_from(["csv", "dot", "json"]), False)],
    "verify": [("--depth", _int(-2, 6), False)],
    "success": [("--sequence", bits, True), ("--s", TEXT, False)],
    "diagonalize": [("-N", _int(-2, 8), False)],
    "sum": [("-w", bits, False), ("--precision", _int(-2, 10), False),
            ("--seed", _int(-2, 9), False)],
    "census": [("-n", _int(-1, 5), True), ("-S", _int(-2, 6), True),
               ("--alpha", TEXT, False), ("--alpha=", DYADICS, False),
               ("--format", st.sampled_from(["csv", "json"]), False)],
    "mcsp": [("--table", TABLES | TEXT, True), ("-s", _int(-2, 6), True)],
    "certify": [("--seed", _int(-2, 9), False)],
    "kolmogorov": [("-L", _int(-2, 8), False), ("--sequence", bits, False),
                   ("--format", st.sampled_from(["summary", "csv"]), False)],
}
TAKES_CONFIG = {"construct", "verify", "success", "diagonalize", "sum", "certify"}
TAKES_CACHE = {"census", "mcsp", "certify", "kolmogorov"}
TAKES_OUT = {"figures", "construct", "certify"}
# no --out, or one below the fuzz directory: a writable file, a file in a
# missing directory, or an existing directory
OUTS = st.sampled_from([None, "out.txt", "missing/out.txt", "."])


@st.composite
def runs(draw):
    """A command line and a config file.  Command lines are mostly well
    formed: a required option is left out, or a stray word put in, about one
    time in ten; the config is one of the fixtures the command reads, and
    any fixture one time in five."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    if command == "figures" and draw(st.booleans()):
        argv.append(draw(_int(0, 6)))
    for option, values, required in OPTIONS[command]:
        if draw(st.integers(0, 9)) if required else draw(st.booleans()):
            value = draw(values)
            argv += [option + value] if option.endswith("=") else [option, value]
    if command == "kolmogorov" and draw(st.booleans()):
        argv += ["--budget", *(draw(_int(-1, 4)) for _ in range(3))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(TEXT))
    if command in TAKES_OUT and (out := draw(OUTS)):
        argv += ["--out", out]
    names = FITS.get(command, []) if draw(st.integers(0, 4)) else []
    return argv, draw(configs(names or sorted(FIXTURES)))


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(run=runs())
def test_cli_exits_with_a_documented_code(tmp_path_factory, run):
    argv, config = run
    root = tmp_path_factory.getbasetemp() / "cli-fuzz"
    root.mkdir(exist_ok=True)
    path = root / "experiment.json"
    path.write_text(json.dumps(config))
    if argv[0] in TAKES_CONFIG:
        argv = argv + ["--config", str(path)]
    if argv[0] in TAKES_CACHE:
        argv = argv + ["--cache-dir", str(root / "cache")]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv = argv[:at] + [str(root / argv[at])] + argv[at + 1 :]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        # where the one-pass reader takes the line, argparse reads it the same
        if (read := read_argv(argv)) is not None:
            assert vars(read) == vars(build_parser().parse_args(argv)), argv
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("argparse", exc.code)
    assert code in (0, 1, 2, 3, ("argparse", 2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 4), alpha=DYADICS)
def test_census_alpha_exits_with_a_documented_code(tmp_path_factory, n, alpha):
    cache = tmp_path_factory.getbasetemp() / "cli-fuzz" / "cache"
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["census", "-n", str(n), "-S", "4", f"--alpha={alpha}",
                     "--cache-dir", str(cache)])
    # 3: the size bound floor is past the census
    assert code in (0, 3)
    assert code == 3 or "size bound floor: " in out.getvalue()
