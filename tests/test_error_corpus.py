"""The CLI's error paths, and a few successful runs beside them, byte for byte.

``tests/error_corpus.json`` holds one entry per case below: its argv and
config, and what ``martlab.cli.main`` did with them, its exit code, the
sha256 of its stdout and its stderr text.  The cases cover the option
errors, negative affine and table moduli, negative levels and relation fields,
unusable ``--cache-dir`` and ``--out`` paths, every ``decide`` mode and the
language errors, so a change to any message, exit code or output fails here.

In argv, ``{config}`` is the case's config written to a file, ``{tmp}`` a
fresh directory holding a regular file ``plain``, and ``{experiments}`` the
repository's ``experiments/``; stderr is stored with the same placeholders.
Regenerate the corpus, after a deliberate change, with

    PYTHONPATH=src python -m pytest tests/test_error_corpus.py --write-corpus
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from martlab.cli import main

CORPUS = Path(__file__).resolve().parent / "error_corpus.json"
EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"

FIG1 = "{experiments}/figure1_cover.json"
FIG4 = "{experiments}/figure4_acceptance.json"
GEOMETRIC = "{experiments}/geometric_sum.json"
CERTIFY = "{experiments}/mcsp_certificate.json"
BUDGET = [4, 1, 16]


def _construction(spec: dict) -> dict:
    return {"version": 1, "construction": spec}


def _cover(level, relation, decide="exists") -> dict:
    return _construction(
        {"type": "cover", "level": level, "relation": relation, "decide": decide}
    )


def _certify(**family) -> dict:
    spec = json.loads((EXPERIMENTS / "mcsp_certificate.json").read_text())
    spec["certify"]["family"].update(family)
    return spec


def _certify_modulus(modulus: dict) -> dict:
    spec = _certify()
    spec["certify"]["modulus"] = modulus
    return spec


def _language(kind: str, language: dict, **extra) -> dict:
    field = "target" if kind == "acceptance" else "language"
    spec = {"type": kind, field: language, **extra}
    if kind == "acceptance":
        spec.update(q=2, correct=3)
    return _construction(spec)


VERIFY = ["verify", "--config", "{config}"]
SUCCESS = ["success", "--config", "{config}", "--sequence", "010110"]

# (name, argv, config or None)
CASES = [
    # option errors
    ("construct --depth -1", ["construct", "--config", FIG1, "--depth", "-1"], None),
    ("verify --depth -1", ["verify", "--config", FIG1, "--depth", "-1"], None),
    ("success --sequence 01x", ["success", "--config", FIG4, "--sequence", "01x"], None),
    ("success --s 1/3", ["success", "--config", FIG4, "--sequence", "0101", "--s", "1/3"],
     None),
    ("sum -w 2", ["sum", "--config", GEOMETRIC, "-w", "2"], None),
    ("sum --precision -1", ["sum", "--config", GEOMETRIC, "--precision", "-1"], None),
    ("census --alpha=1/3", ["census", "-n", "2", "-S", "2", "--alpha=1/3"], None),
    ("census -n 1 --alpha", ["census", "-n", "1", "-S", "2", "--alpha=1/2"], None),
    ("census --alpha past the size cap",
     ["census", "-n", "4", "-S", "8", "--alpha=1000000"], None),
    ("census -n 0", ["census", "-n", "0", "-S", "2"], None),
    ("census -S -1", ["census", "-n", "2", "-S", "-1"], None),
    ("diagonalize -N -2", ["diagonalize", "--config", FIG1, "-N", "-2"], None),
    ("kolmogorov -L -1", ["kolmogorov", "-L", "-1"], None),
    ("kolmogorov --budget -1 1 16", ["kolmogorov", "-L", "2", "--budget", "-1", "1", "16"],
     None),
    ("kolmogorov --sequence ''", ["kolmogorov", "-L", "3", "--sequence", ""], None),
    ("mcsp --table 011", ["mcsp", "--table", "011", "-s", "2"], None),
    ("mcsp --table 1", ["mcsp", "--table", "1", "-s", "2"], None),
    ("mcsp -s -1", ["mcsp", "--table", "0110", "-s", "-1"], None),
    ("verify without --config", ["verify"], None),
    ("construct --depth x", ["construct", "--config", FIG1, "--depth", "x"], None),
    # config files
    ("missing config file", ["verify", "--config", "{tmp}/absent.json"], None),
    ("config not JSON", VERIFY, "{\"version\": 1,"),
    ("config version 2", VERIFY, {"version": 2}),
    ("config without construction", VERIFY, {"version": 1}),
    # negative affine moduli
    ("sum affine slope -5", ["sum", "--config", "{config}"],
     {"version": 1, "family": {"type": "covers", "levels": {"3": ["001"]}},
      "modulus": {"type": "affine", "slope": -5, "offset": 2}}),
    ("sum affine offset -3", ["sum", "--config", "{config}", "--precision", "0"],
     {"version": 1, "family": {"type": "geometric-constants"},
      "modulus": {"type": "affine", "slope": 1, "offset": -3}}),
    # a modulus whose audit window already sums past 2**-precision
    ("sum covers modulus audit", ["sum", "--config", "{config}", "-w", "01", "--precision", "4"],
     {"version": 1, "family": {"type": "covers",
                               "levels": {"3": ["001", "010", "100"], "5": ["00000"]}},
      "modulus": {"type": "affine", "slope": 0, "offset": 0}}),
    ("sum geometric modulus audit", ["sum", "--config", "{config}", "--precision", "4"],
     {"version": 1, "family": {"type": "geometric-constants"},
      "modulus": {"type": "affine", "slope": 0, "offset": 0}}),
    # negative levels and relation fields
    ("cover members level -1", VERIFY,
     _construction({"type": "cover", "level": -1, "members": []})),
    ("cover member lengths in input order", VERIFY,
     _construction({"type": "cover", "level": 2, "members": ["00", "0", "111", "1", "0000"]})),
    ("cover relation level -1", VERIFY, _cover(-1, {"builtin": "sat", "vars": 1})),
    ("cover level past the cap", VERIFY, _cover(23, {"builtin": "sat", "vars": 1})),
    ("condexp level -1", VERIFY,
     _construction({"type": "condexp", "level": -1, "values": {}})),
    ("condexp key of another length", VERIFY,
     _construction({"type": "condexp", "level": 2, "values": {"0": 3, "01": 2}})),
    ("condexp key not a bit string", VERIFY,
     _construction({"type": "condexp", "level": 2, "values": {"01": 2, "0x": 3}})),
    ("subset level -1", VERIFY,
     _language("subset", {"indices": [1], "horizon": 4}, level=-1)),
    ("kt-cover level -1", VERIFY,
     _construction({"type": "kt-cover", "level": -1, "gap": 1, "budget": BUDGET})),
    ("kt-cover budget -1", VERIFY,
     _construction({"type": "kt-cover", "level": 2, "gap": 1, "budget": [-1, 1, 16]})),
    ("kt-cover level past the cap", ["verify", "--config", "{config}", "--depth", "1"],
     _construction({"type": "kt-cover", "level": 40, "gap": 0, "budget": BUDGET})),
    ("sat vars -1", VERIFY, _cover(2, {"builtin": "sat", "vars": -1})),
    ("mcsp-witness inputs -1", VERIFY,
     _cover(2, {"builtin": "mcsp-witness", "inputs": -1, "size": 1})),
    ("mcsp-witness size -1", VERIFY,
     _cover(2, {"builtin": "mcsp-witness", "inputs": 1, "size": -1})),
    ("short-program max_len -1", VERIFY,
     _cover(2, {"builtin": "short-program", "max_len": -1, "budget": BUDGET})),
    # relations at a level they do not describe, or past the witness cap
    ("sat cover at the wrong level", VERIFY, _cover(3, {"builtin": "sat", "vars": 2})),
    ("mcsp-witness cover at the wrong level", VERIFY,
     _cover(3, {"builtin": "mcsp-witness", "inputs": 1, "size": 1})),
    ("explicit members of other lengths",
     ["construct", "--config", "{config}", "--depth", "2"],
     _cover(2, {"builtin": "explicit", "members": ["", "1", "01", "111"]}, "unique")),
    ("mcsp-witness past the witness cap", VERIFY,
     _cover(4, {"builtin": "mcsp-witness", "inputs": 2, "size": 3})),
    ("certify inputs 0", ["certify", "--config", "{config}"], _certify(inputs=[0])),
    ("certify census_size -1", ["certify", "--config", "{config}"],
     _certify(census_size=-1)),
    # negative certify moduli, affine and table
    ("certify affine slope -1", ["certify", "--config", "{config}"],
     _certify_modulus({"type": "affine", "slope": -1, "offset": -3})),
    ("certify affine offset -3", ["certify", "--config", "{config}"],
     _certify_modulus({"type": "affine", "slope": 1, "offset": -3})),
    ("certify table value -1", ["certify", "--config", "{config}"],
     _certify_modulus({"type": "table", "values": {"0": 8, "2": -1}, "default": 16})),
    ("certify table default -2", ["certify", "--config", "{config}"],
     _certify_modulus({"type": "table", "values": {"0": 8}, "default": -2})),
    # unusable --cache-dir and --out
    ("census --cache-dir a file", ["census", "-n", "2", "-S", "2", "--cache-dir", "{tmp}/plain"],
     None),
    ("mcsp --cache-dir below a file",
     ["mcsp", "--table", "0110", "-s", "2", "--cache-dir", "{tmp}/plain/cache"], None),
    ("kolmogorov --cache-dir a file", ["kolmogorov", "-L", "2", "--cache-dir", "{tmp}/plain"],
     None),
    ("certify --cache-dir a file", ["certify", "--config", CERTIFY, "--cache-dir", "{tmp}/plain"],
     None),
    ("construct --out in a missing directory",
     ["construct", "--config", FIG1, "--out", "{tmp}/missing/tree.csv"], None),
    ("construct --out a directory", ["construct", "--config", FIG1, "--out", "{tmp}"], None),
    ("figures --out below a file",
     ["figures", "1", "--format", "csv", "--out", "{tmp}/plain/tree.csv"], None),
    ("construct --out ''", ["construct", "--config", FIG1, "--out", ""], None),
    # decide modes
    ("decide exists sat", VERIFY, _cover(4, {"builtin": "sat", "vars": 2})),
    ("decide exists mcsp-witness", VERIFY,
     _cover(2, {"builtin": "mcsp-witness", "inputs": 1, "size": 1})),
    ("decide exists short-program", VERIFY,
     _cover(3, {"builtin": "short-program", "max_len": 3, "budget": BUDGET})),
    ("decide unique explicit", VERIFY,
     _cover(3, {"builtin": "explicit", "members": ["001", "110"]}, "unique")),
    ("decide unique sat, two witnesses", VERIFY,
     _cover(4, {"builtin": "sat", "vars": 2}, "unique")),
    ("decide gap sat, parity", VERIFY, _cover(4, {"builtin": "sat", "vars": 2}, "gap")),
    ("decide gap explicit, some strings", VERIFY,
     _cover(2, {"builtin": "explicit", "members": ["01"]}, "gap")),
    ("decide gap explicit, every string", VERIFY,
     _cover(2, {"builtin": "explicit", "members": ["00", "01", "10", "11"]}, "gap")),
    ("decide maybe", VERIFY, _cover(2, {"builtin": "sat", "vars": 1}, "maybe")),
    # languages
    ("subset negative index", VERIFY,
     _language("subset", {"indices": [1, -1], "horizon": 4}, level=3)),
    ("acceptance negative target index", SUCCESS,
     _language("acceptance", {"indices": [-2], "horizon": 8})),
    ("biimmunity indices past the horizon", VERIFY,
     _language("biimmunity", {"indices": [2000, 3000, 4000], "horizon": 10})),
    ("subset members past the horizon", VERIFY,
     _language("subset", {"members": ["0", "111", "0000"], "horizon": 4}, level=3)),
    ("empty member at horizon 0", VERIFY,
     _language("subset", {"members": [""], "horizon": 0}, level=0)),
    ("member not a bit string", VERIFY,
     _language("subset", {"members": ["0x"], "horizon": 4}, level=2)),
    ("language without members", VERIFY, _language("biimmunity", {"horizon": 4})),
    ("language horizon not an integer", VERIFY,
     _language("biimmunity", {"indices": [1], "horizon": "x"})),
    ("language index not an integer", VERIFY,
     _language("biimmunity", {"indices": ["a"], "horizon": 4})),
    ("subset level past the horizon", VERIFY,
     _language("subset", {"indices": [1], "horizon": 4}, level=6)),
    ("subset negative horizon", VERIFY,
     _language("subset", {"indices": [], "horizon": -2}, level=2)),
    ("acceptance success past the horizon", SUCCESS,
     _language("acceptance", {"indices": [1], "horizon": 3})),
    ("biimmunity diagonalize past the horizon",
     ["diagonalize", "--config", "{config}", "-N", "4"],
     _language("biimmunity", {"indices": [0], "horizon": 2})),
    ("biimmunity construct past the horizon",
     ["construct", "--config", "{config}", "--depth", "3"],
     _language("biimmunity", {"members": ["0"], "horizon": 2})),
    ("acceptance correct out of range", SUCCESS,
     _construction({"type": "acceptance", "q": 2, "correct": 5,
                    "target": {"indices": [1], "horizon": 8}})),
    ("acceptance-gap negative row", SUCCESS,
     _construction({"type": "acceptance-gap", "t": 2, "values": {"0": 5}})),
    ("language past the mask cap", VERIFY,
     _language("biimmunity", {"indices": [1 << 24], "horizon": (1 << 24) + 1})),
    # successful runs over languages and acceptance odds
    ("acceptance success", SUCCESS,
     _language("acceptance", {"members": ["", "1", "01"], "horizon": 8})),
    ("acceptance-gap success", SUCCESS,
     _construction({"type": "acceptance-gap", "t": 2, "default": 2,
                    "values": {"": 1, "0": 3, "01": 0, "10": 4}})),
    ("acceptance-gap construct", ["construct", "--config", "{config}", "--depth", "3"],
     _construction({"type": "acceptance-gap", "t": 1, "values": {"1": 2, "00": 0}})),
    ("biimmunity verify", VERIFY,
     _language("biimmunity", {"indices": [0, 2, 5, 6], "horizon": 8})),
    ("subset construct", ["construct", "--config", "{config}", "--format", "json"],
     _language("subset", {"members": ["0", "01", "11"], "horizon": 7}, level=3)),
    # resource caps: a tree deeper than martingale.LEVEL_CAP, and values whose
    # text passes the interpreter's 4300-digit limit
    ("verify --depth past the level cap", ["verify", "--config", "{config}", "--depth", "40"],
     _construction({"type": "cover", "level": 3, "members": ["001", "110"]})),
    ("construct --depth one past the level cap",
     ["construct", "--config", FIG1, "--depth", "23"], None),
    ("sum past the print cap", ["sum", "--config", GEOMETRIC, "--precision", "15000"], None),
    ("success past the print cap", ["success", "--config", "{config}", "--sequence", "01"],
     _construction({"type": "acceptance", "q": 15000, "correct": 1,
                    "target": {"indices": [], "horizon": 8}})),
    ("diagonalize past the print cap", ["diagonalize", "--config", "{config}", "-N", "2"],
     _construction({"type": "acceptance", "q": 15000, "correct": 1,
                    "target": {"indices": [], "horizon": 8}})),
]


def run_case(argv: list[str], config, tmp: Path) -> dict:
    """Run one case in ``tmp``; its exit code, stdout digest and stderr."""
    (tmp / "plain").write_text("a regular file\n")
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config)
        (tmp / "config.json").write_text(text)
    places = {"{config}": str(tmp / "config.json"), "{tmp}": str(tmp),
              "{experiments}": str(EXPERIMENTS)}
    for key, value in places.items():
        argv = [a.replace(key, value) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    stderr = err.getvalue()
    for key, value in places.items():
        stderr = stderr.replace(value, key)
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": stderr}


def test_error_corpus(tmp_path, request):
    entries = []
    for k, (name, argv, config) in enumerate(CASES):
        tmp = tmp_path / str(k)
        tmp.mkdir()
        entries.append({"name": name, "argv": argv, "config": config,
                        **run_case(argv, config, tmp)})
    if request.config.getoption("--write-corpus"):
        lines = (json.dumps(e, ensure_ascii=False) for e in entries)
        CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    corpus = json.loads(CORPUS.read_text())
    assert [e["name"] for e in corpus] == [e["name"] for e in entries]
    mismatches = [
        f"{got['name']}: {key} {want[key]!r} -> {got[key]!r}"
        for got, want in zip(entries, corpus)
        for key in ("argv", "config", "exit", "stdout_sha256", "stderr")
        if got[key] != want[key]
    ]
    assert not mismatches, "\n".join(mismatches)


EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


def test_a_refused_run_writes_nothing(tmp_path):
    """Every corpus entry that exits 2 or 3 has empty stdout, and every
    ``--out`` entry that exits non-zero leaves no file behind: neither its
    target nor a temporary file in the target's directory."""
    corpus = json.loads(CORPUS.read_text())
    assert [e["name"] for e in corpus if e["exit"] in (2, 3)
            and e["stdout_sha256"] != EMPTY_SHA256] == []
    refused = [e for e in corpus if "--out" in e["argv"] and e["exit"] != 0]
    assert refused
    for k, entry in enumerate(refused):
        # {tmp} is one level down, so a target of {tmp} itself has a directory
        case = tmp_path / str(k)
        tmp = case / "tmp"
        tmp.mkdir(parents=True)
        got = run_case(entry["argv"], entry["config"], tmp)
        assert got["exit"] == entry["exit"], entry["name"]
        left = sorted(str(p.relative_to(case)) for p in case.rglob("*"))
        assert left == ["tmp"] + [f"tmp/{f}" for f in sorted(
            ["plain"] + ["config.json"] * (entry["config"] is not None))], entry["name"]
