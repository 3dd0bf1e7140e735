import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import node_walk
from martlab.cli import build_parser, main
from martlab.config import (
    build_certify,
    build_construction,
    build_family,
    load_config,
)
from martlab.dyadic import ONE, Dyadic
from martlab.errors import ConfigError


EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


def write_config(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FIGURE1 = {
    "version": 1,
    "construction": {
        "type": "cover",
        "level": 4,
        "members": ["0001", "0010", "0011", "0110", "1101"],
    },
}


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "line 1" in str(err.value)


def test_load_config_rejects_wrong_version(tmp_path):
    path = write_config(tmp_path, {"version": 99})
    with pytest.raises(ConfigError):
        load_config(path)


def test_build_construction_field_errors():
    with pytest.raises(ConfigError) as err:
        build_construction({"type": "cover"})
    assert "construction.level" in str(err.value)
    with pytest.raises(ConfigError):
        build_construction({"type": "wat"})


def test_every_construction_kind_builds(tmp_path):
    lang = {"indices": [1, 3], "horizon": 16}
    specs = [
        FIGURE1["construction"],
        {"type": "cover", "level": 4, "relation": {"builtin": "sat", "vars": 2},
         "decide": "exists"},
        {"type": "condexp", "level": 3, "values": {"010": 2}},
        {"type": "subset", "level": 4, "language": lang},
        {"type": "acceptance", "q": 2, "correct": 3, "target": lang},
        {"type": "acceptance-gap", "t": 2, "values": {"0": 4}, "default": 0},
        {"type": "biimmunity", "language": lang},
        {"type": "kt-cover", "level": 5, "gap": 0, "budget": [4, 1, 16]},
    ]
    for spec in specs:
        m = build_construction(spec)
        assert m.value is not None


def test_cli_figures_pass(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_cli_figure_single_with_dot(tmp_path, capsys):
    out_file = tmp_path / "fig.dot"
    assert main(["figures", "1", "--format", "dot", "--out", str(out_file)]) == 0
    assert "digraph" in out_file.read_text()


def test_cli_out_is_utf8_under_an_ascii_locale(tmp_path, capsys):
    argv = ["construct", "--config", str(EXPERIMENTS / "figure1_cover.json"),
            "--depth", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="POSIX")
    out = tmp_path / "f.csv"
    proc = subprocess.run([sys.executable, "-m", "martlab.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(argv) == 0
    assert out.read_bytes().decode("utf-8") == capsys.readouterr().out
    assert out.read_bytes().startswith("node,value\nλ,".encode())


def test_cli_figure_csv_goes_to_stdout(capsys):
    assert main(["figures", "1", "--format", "csv"]) == 0
    figure = capsys.readouterr().out
    assert main(["construct", "--config", str(EXPERIMENTS / "figure1_cover.json"),
                 "--depth", "4"]) == 0
    assert figure == "figure 1: PASS (31 nodes)\n" + capsys.readouterr().out


def test_cli_verify_and_construct(tmp_path, capsys):
    config = write_config(tmp_path, FIGURE1)
    assert main(["verify", "--config", config, "--depth", "6"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "freeze" in out

    assert main(["construct", "--config", config, "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("node,value")
    assert "λ,5/16" in out


def test_cli_construct_json_matches_csv(tmp_path, capsys):
    config = write_config(tmp_path, FIGURE1)
    assert main(["construct", "--config", config, "--depth", "4",
                 "--format", "json"]) == 0
    as_json = json.loads(capsys.readouterr().out)
    assert main(["construct", "--config", config, "--depth", "4"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    as_csv = dict(row.split(",") for row in rows)
    as_csv[""] = as_csv.pop("λ")
    assert as_json == as_csv
    assert len(as_json) == 31


def test_cli_verify_reports_freeze_violation(monkeypatch, capsys):
    import martlab.cli as cli

    values = {"": ONE, "0": ONE, "1": ONE, "00": Dyadic(1, 1),
              "01": Dyadic(3, 1), "10": ONE, "11": ONE}
    unfrozen = node_walk.tabled(lambda w: values[str(w)], 2, freeze_depth=1)
    monkeypatch.setattr(cli, "_config_construction", lambda args: unfrozen)
    assert main(["verify", "--config", "unused.json", "--depth", "2"]) == 1
    out = capsys.readouterr().out
    assert "to depth 2: PASS" in out
    assert "  freeze violated below 0\n" in out
    assert "freeze at depth 1: FAIL" in out


def test_cli_ends_out_of_memory_as_a_resource_cap(monkeypatch, capsys):
    import martlab.cli as cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_config_construction", exhausted)
    assert main(["construct", "--config", "unused.json", "--depth", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "resource cap: out of memory\n"
    assert captured.out == ""


def test_cli_construct_deterministic(tmp_path, capsys):
    config = write_config(tmp_path, FIGURE1)
    main(["construct", "--config", config, "--depth", "4"])
    first = capsys.readouterr().out
    main(["construct", "--config", config, "--depth", "4"])
    assert capsys.readouterr().out == first


def test_cli_construct_depth_zero_single_node(tmp_path, capsys):
    config = write_config(tmp_path, FIGURE1)
    assert main(["construct", "--config", config, "--depth", "0"]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines() == ["node,value", "λ,5/16"]


def test_cli_seed_reproducible(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "version": 1,
            "family": {"type": "geometric-constants"},
            "modulus": {"type": "affine", "slope": 1, "offset": 2},
            "seed": 7,
        },
    )
    main(["sum", "--config", config, "--precision", "6"])
    first = capsys.readouterr().out
    main(["sum", "--config", config, "--precision", "6", "--seed", "7"])
    assert capsys.readouterr().out == first


def test_cli_success(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "version": 1,
            "construction": {
                "type": "acceptance",
                "q": 2,
                "correct": 3,
                "target": {"indices": [1, 3], "horizon": 16},
            },
        },
    )
    assert main(["success", "--config", config, "--sequence", "0101",
                 "--s", "1"]) == 0
    out = capsys.readouterr().out
    assert "levels passing: [0, 1, 2, 3, 4]" in out


def test_cli_diagonalize(tmp_path, capsys):
    config = write_config(tmp_path, FIGURE1)
    assert main(["diagonalize", "--config", config, "-N", "4"]) == 0
    out = capsys.readouterr().out
    assert "diagonal prefix: 1000" in out
    assert "non-increasing: PASS" in out


def test_cli_sum(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "version": 1,
            "family": {"type": "geometric-constants"},
            "modulus": {"type": "affine", "slope": 1, "offset": 2},
        },
    )
    assert main(["sum", "--config", config, "--precision", "5"]) == 0
    assert "127/64" in capsys.readouterr().out


def test_cli_census_and_mcsp(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["census", "-n", "2", "-S", "4", "--cache-dir", cache,
                 "--alpha", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "0,4" in out and "tables within bound: 14" in out
    assert main(["census", "-n", "3", "-S", "8", "--format", "json",
                 "--cache-dir", cache]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reachable"] == sum(report["histogram"].values()) == 248

    assert main(["mcsp", "--table", "0110", "-s", "3",
                 "--cache-dir", cache]) == 0
    assert "REJECT at size 3 (" in capsys.readouterr().out
    assert main(["mcsp", "--table", "0110", "-s", "4",
                 "--cache-dir", cache]) == 0
    assert "ACCEPT" in capsys.readouterr().out


@pytest.mark.parametrize(
    "n, alpha, floor",
    [(3, "-3", -2), (3, "-8", -9), (2, "-5/2", -1), (3, "-1", 1), (3, "-1/4", 2)],
)
def test_cli_census_negative_alpha_exact_floor(tmp_path, capsys, n, alpha, floor):
    cache = str(tmp_path / "cache")
    assert main(["census", "-n", str(n), "-S", "8", f"--alpha={alpha}",
                 "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert f"size bound floor: {floor}\n" in out
    if floor < 0:
        assert "tables within bound: 0\n" in out
        assert "analytic (48*e*s)^s bound: holds\n" in out


@pytest.mark.parametrize("argv, code, err", [
    (["-n", "2", "-S", "2", "--alpha=1/3"], 2,
     "config error: --alpha: denominator 3 is not a power of two\n"),
    (["-n", "1", "-S", "2", "--alpha=1/2"], 1,
     "check failure: n = 1 degenerates (log2(1) = 0 divides the formulas)\n"),
    (["-n", "4", "-S", "8", "--alpha=1000000"], 3,
     "resource cap: size bound floor 2000004 beyond census max 8\n"),
], ids=["alpha-not-dyadic", "one-input", "floor-past-size"])
def test_cli_census_refuses_its_alpha_before_any_build(tmp_path, capsys, argv, code, err):
    # what the arguments alone decide is refused with nothing printed or cached
    cache = tmp_path / "cache"
    assert main(["census", *argv, "--cache-dir", str(cache)]) == code
    assert capsys.readouterr() == ("", err)
    assert not cache.exists() or list(cache.iterdir()) == []


def test_cli_certify_negative_alpha_has_empty_covers(tmp_path, capsys):
    # the size bound floor is negative at n = 2 and n = 3, so both covers are empty
    family = {"type": "mcsp", "inputs": [2, 3], "alpha": "-8", "census_size": 4}
    config = write_config(tmp_path, {"version": 1, "certify": {
        **CERTIFY_CONFIG["certify"], "family": family, "gap": {"7": 0, "15": 0},
        "gap_default": "n", "modulus": {"type": "affine", "slope": 1, "offset": 16},
        "horizon": 15}})
    assert main(["certify", "--config", config,
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    assert "status: VALID" in out
    assert "n=7: count=0 " in out and "n=15: count=0 " in out


def test_cli_certify(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "version": 1,
            "certify": {
                "family": {
                    "type": "mcsp",
                    "inputs": [2],
                    "alpha": "0",
                    "census_size": 4,
                },
                "gap": {"7": 0},
                "gap_default": "n",
                "modulus": {"type": "affine", "slope": 1, "offset": 8},
                "horizon": 7,
                "witnesses": ["0000000"],
            },
        },
    )
    cache = str(tmp_path / "cache")
    assert main(["certify", "--config", config, "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "VALID" in out and "covered at level 7" in out


def test_cli_certify_table_modulus_keeps_the_gap_default(tmp_path, capsys):
    # a level off the gap table takes gap_default, never the modulus default
    config = write_config(tmp_path, {"version": 1, "certify": {
        **CERTIFY_CONFIG["certify"], "gap": {"7": 2}, "gap_default": 1,
        "modulus": {"type": "table", "values": {"0": 8}, "default": 16}}})
    assert main(["certify", "--config", config,
                 "--cache-dir", str(tmp_path / "cache")]) == 1
    out = capsys.readouterr().out
    gaps = [line.strip() for line in out.splitlines() if line.startswith("  n=")]
    assert gaps == [f"n={n}: count=0 < 2^({n}-1)" for n in range(1, 7)] + [
        "n=7: count=112 >= 2^(7-2)"
    ]
    assert "i=0: tail from 8 sums to 0 <= 2^-0" in out
    assert "i=2: tail from 16 sums to 0 <= 2^-2" in out


def test_cli_kolmogorov(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["kolmogorov", "-L", "6", "--budget", "4", "1", "16",
            "--cache-dir", cache]
    assert main(args + ["--sequence", "000000"]) == 0
    out = capsys.readouterr().out
    assert "lowest ratio:" in out


@pytest.mark.parametrize("sequence", ["", "01x"])
def test_refused_kolmogorov_sequence_leaves_the_cache_empty(tmp_path, capsys, sequence):
    """A bad ``--sequence`` is refused before the kt table is fetched: no
    sweep runs and nothing is written to the cache directory."""
    cache = tmp_path / "cache"
    cache.mkdir()
    assert main(["kolmogorov", "-L", "12", "--cache-dir", str(cache),
                 "--sequence", sequence]) == 2
    assert list(cache.iterdir()) == []
    assert capsys.readouterr().out == ""


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.json"),
                 "--depth", "2"]) == 2
    # census past the input cap is a resource refusal
    assert main(["census", "-n", "5", "-S", "2"]) == 3
    bad_row = write_config(
        tmp_path,
        {
            "version": 1,
            "construction": {
                "type": "acceptance-gap",
                "t": 2,
                "values": {"0": 9},
            },
        },
    )
    # a gap row outside [0, 2**t] is refused when the config is built
    assert main(["verify", "--config", bad_row, "--depth", "2"]) == 2
    # a failed check is exit 1: a truth table with two 1 rows has two witnesses
    unique_cover = write_config(
        tmp_path,
        {"version": 1, "construction": {"type": "cover", "level": 4, "decide": "unique",
                                        "relation": {"builtin": "sat", "vars": 2}}},
        name="unique_cover.json",
    )
    assert main(["verify", "--config", unique_cover, "--depth", "4"]) == 1
    # unparsable values are configuration errors, not tracebacks
    acceptance = write_config(
        tmp_path,
        {
            "version": 1,
            "construction": {
                "type": "acceptance",
                "q": 2,
                "correct": 3,
                "target": {"indices": [1, 3], "horizon": 16},
            },
        },
        name="acceptance.json",
    )
    assert main(["success", "--config", acceptance, "--sequence", "01",
                 "--s", "1/3"]) == 2
    assert main(["success", "--config", acceptance, "--sequence", "012"]) == 2
    bad_level = write_config(
        tmp_path,
        {"version": 1,
         "construction": {**FIGURE1["construction"], "level": "x"}},
        name="bad_level.json",
    )
    assert main(["verify", "--config", bad_level, "--depth", "2"]) == 2
    err = capsys.readouterr().err
    assert "--s:" in err and "--sequence:" in err
    assert "construction.level: not an integer: 'x'" in err


NEGATIVE_LEVEL = {
    "members": {"type": "cover", "level": -1, "members": []},
    "relation": {"type": "cover", "level": -1,
                 "relation": {"builtin": "sat", "vars": 1}},
    "condexp": {"type": "condexp", "level": -1, "values": {}},
    "kt-cover": {"type": "kt-cover", "level": -1, "gap": 0, "budget": [4, 1, 16]},
}


@pytest.mark.parametrize("command", ["verify", "construct"])
@pytest.mark.parametrize("kind", NEGATIVE_LEVEL)
def test_negative_construction_level_is_a_config_error(
    tmp_path, capsys, command, kind
):
    config = write_config(
        tmp_path, {"version": 1, "construction": NEGATIVE_LEVEL[kind]}
    )
    assert main([command, "--config", config, "--depth", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: construction: ")
    assert captured.err.endswith("level -1 is negative\n")


@pytest.mark.parametrize(
    "config, argv, section",
    [
        ({"family": {"type": "covers", "levels": {"-2": []}},
          "modulus": {"type": "affine", "slope": 1, "offset": 2}}, ["sum"], "family"),
        ({"certify": {"family": {"type": "explicit-levels", "levels": {"-1": []}},
                      "gap": {}, "modulus": {"type": "affine", "slope": 1,
                                             "offset": 0}, "horizon": 3}},
         ["certify"], "certify"),
    ],
    ids=["sum-covers", "certify-explicit-levels"],
)
def test_negative_family_level_is_a_config_error(
    tmp_path, capsys, config, argv, section
):
    path = write_config(tmp_path, {"version": 1, **config})
    assert main(argv + ["--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {section}: cover level -")


@pytest.mark.parametrize("argv", [["verify", "--depth", "2"],
                                  ["construct", "--depth", "2"],
                                  ["diagonalize", "-N", "2"]])
@pytest.mark.parametrize(
    "construction, field",
    [
        ({"type": "acceptance-gap", "t": -1, "values": {}}, "construction.t"),
        ({"type": "acceptance", "q": -1, "correct": 0,
          "target": {"indices": [1], "horizon": 16}}, "construction.q"),
    ],
    ids=["acceptance-gap-t", "acceptance-q"],
)
def test_negative_path_exponent_is_a_config_error(
    tmp_path, capsys, argv, construction, field
):
    config = write_config(tmp_path, {"version": 1, "construction": construction})
    assert main(argv + ["--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {field}: must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "relation, field, value",
    [
        ({"builtin": "sat", "vars": -1}, "vars", -1),
        ({"builtin": "mcsp-witness", "inputs": -1, "size": 0}, "inputs", -1),
        ({"builtin": "mcsp-witness", "inputs": 1, "size": -1}, "size", -1),
        ({"builtin": "short-program", "max_len": -3, "budget": [4, 1, 16]},
         "max_len", -3),
    ],
    ids=["sat-vars", "mcsp-inputs", "mcsp-size", "short-program-max_len"],
)
def test_negative_relation_field_is_a_config_error(
    tmp_path, capsys, relation, field, value
):
    construction = {"type": "cover", "level": 2, "relation": relation}
    assert _verify_construction(tmp_path, construction) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: construction.relation.{field}: "
        f"must be nonnegative, got {value}\n"
    )


@pytest.mark.parametrize(
    "relation, level",
    [
        ({"builtin": "sat", "vars": 1}, 2),
        ({"builtin": "explicit", "members": ["00", "01", "10", "11"]}, 2),
        ({"builtin": "mcsp-witness", "inputs": 1, "size": 0}, 2),
    ],
    ids=["sat", "explicit", "mcsp-witness"],
)
def test_gap_cover_is_a_config_error(tmp_path, capsys, relation, level):
    # a gap 2*accepts - 2**k has the parity of 2**k, so neither a k >= 1
    # cube nor a k = 0 non-member can show a promised gap 0 or 1; even the
    # one cover that could, every string a member, is refused
    construction = {"type": "cover", "level": level, "relation": relation,
                    "decide": "gap"}
    assert _verify_construction(tmp_path, construction) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "config error: construction.decide: gap cannot decide a cover: "
        "the gap 2*accepts - 2**k over 2**k witnesses has the parity of 2**k"
    )


def _verify_construction(tmp_path, construction):
    config = write_config(tmp_path, {"version": 1, "construction": construction})
    return main(["verify", "--config", config, "--depth", "2"])


def test_config_construction_not_an_object(tmp_path, capsys):
    assert _verify_construction(tmp_path, 5) == 2
    assert "construction: not an object: 5" in capsys.readouterr().err


def test_config_condexp_values_not_an_object(tmp_path, capsys):
    spec = {"type": "condexp", "level": 3, "values": [1]}
    assert _verify_construction(tmp_path, spec) == 2
    assert "construction.values: not an object: [1]" in capsys.readouterr().err


def test_config_language_indices_not_integers(tmp_path, capsys):
    spec = {"type": "subset", "level": 4,
            "language": {"indices": ["a"], "horizon": 16}}
    assert _verify_construction(tmp_path, spec) == 2
    err = capsys.readouterr().err
    assert "construction.language.indices: not an integer: 'a'" in err


@pytest.mark.parametrize(
    "build, spec, field",
    [
        (build_family, {"type": "covers", "levels": ["001"]}, "family.levels"),
        (build_family, {"type": "covers", "levels": {"3": "001"}},
         "family.levels.3"),
        (lambda spec: build_certify(spec, None),
         {"family": {"type": "explicit-levels", "levels": {}}, "gap": 1},
         "certify.gap"),
        (build_construction, {"type": "cover", "level": 3, "members": "001"},
         "construction.members"),
        (lambda spec: build_certify(spec, None),
         {"family": {"type": "mcsp", "inputs": 2}}, "certify.family.inputs"),
    ],
)
def test_config_containers_of_the_wrong_type(build, spec, field):
    with pytest.raises(ConfigError) as err:
        build(spec)
    assert str(err.value).startswith(f"{field}: not a")


def test_negative_budget_is_a_config_error(tmp_path, capsys):
    for budget in (["1", "-1", "0"], ["-4", "1", "60"]):
        assert main(["kolmogorov", "-L", "3", "--budget", *budget]) == 2
    spec = {"type": "kt-cover", "level": 4, "gap": 0, "budget": [1, -1, 0]}
    assert _verify_construction(tmp_path, spec) == 2
    err = capsys.readouterr().err
    assert err.count("--budget: budget coefficients must be nonnegative") == 2
    assert "construction.budget: budget coefficients must be nonnegative" in err


@pytest.mark.parametrize("command", ["verify", "construct"])
def test_cli_rejects_negative_depth(tmp_path, capsys, command):
    config = write_config(tmp_path, FIGURE1)
    assert main([command, "--config", config, "--depth", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--depth: must be nonnegative, got -1" in captured.err


NONNEGATIVE = "must be nonnegative, got"

SUM_CONFIG = {
    "version": 1,
    "family": {"type": "geometric-constants"},
    "modulus": {"type": "affine", "slope": 1, "offset": 2},
}


@pytest.mark.parametrize(
    "config, argv, message",
    [
        (None, ["kolmogorov", "-L", "-3"], f"--length-cap: {NONNEGATIVE}"),
        (SUM_CONFIG, ["sum", "--precision", "-1"], f"--precision: {NONNEGATIVE}"),
        (FIGURE1, ["diagonalize", "-N", "-1"], f"--length: {NONNEGATIVE}"),
        (None, ["census", "-n", "2", "-S", "-1"], f"--size: {NONNEGATIVE}"),
        (None, ["mcsp", "--table", "0110", "-s", "-1"], f"--size: {NONNEGATIVE}"),
        (None, ["census", "-n", "0", "-S", "2"], "--inputs: must be at least 1, got 0"),
        (None, ["census", "-n", "-1", "-S", "2"], "--inputs: must be at least 1, got -1"),
    ],
    ids=[
        "kolmogorov",
        "sum",
        "diagonalize",
        "census",
        "mcsp",
        "census-inputs-zero",
        "census-inputs-negative",
    ],
)
def test_cli_rejects_negative_integer_options(
    tmp_path, capsys, config, argv, message
):
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, config)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("table", ["", "011"])
def test_cli_mcsp_table_length_must_be_a_power_of_two(tmp_path, capsys, table):
    argv = ["mcsp", "--table", table, "-s", "1", "--cache-dir", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: --table: table length {len(table)} is not a power of two\n"
    )


def test_cli_query_past_horizon_is_a_config_error(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "version": 1,
            "construction": {
                "type": "acceptance",
                "q": 2,
                "correct": 3,
                "target": {"indices": [1, 3], "horizon": 4},
            },
        },
    )
    assert main(["success", "--config", config, "--sequence", "0101"]) == 0
    capsys.readouterr()
    assert main(["success", "--config", config, "--sequence", "01010"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert "horizon" in captured.err


@pytest.mark.parametrize(
    "language", [{"members": [""], "horizon": 0}, {"indices": [0], "horizon": 0}]
)
def test_cli_empty_member_past_horizon_is_named_lambda(tmp_path, capsys, language):
    config = write_config(
        tmp_path,
        {"version": 1,
         "construction": {"type": "subset", "level": 0, "language": language}},
    )
    assert main(["verify", "--config", config, "--depth", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: member λ has index 0 >= horizon 0\n"


@pytest.mark.parametrize(
    "kind, field", [("subset", "language"), ("biimmunity", "language"),
                    ("acceptance", "target")]
)
def test_cli_negative_language_index_names_its_field(tmp_path, capsys, kind, field):
    spec = {"type": kind, "level": 2, "q": 2, "correct": 3,
            field: {"indices": [1, -3], "horizon": 4}}
    config = write_config(tmp_path, {"version": 1, "construction": spec})
    assert main(["verify", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: construction.{field}.indices: must be nonnegative, got -3\n"
    )


@pytest.mark.parametrize(
    "language, named",
    [({"indices": [2000, 3000, 4000], "horizon": 10}, "member 1111010001 has index 2000"),
     ({"members": ["00", "110", "0001", "101"], "horizon": 4}, "member 110 has index 13")],
)
def test_cli_past_horizon_member_error_is_the_first_in_input_order(
    tmp_path, language, named
):
    # the member named must not depend on the string hash seed
    config = write_config(
        tmp_path, {"version": 1, "construction": {"type": "biimmunity", "language": language}}
    )
    _assert_verify_fails_alike(
        config, ("3", "6"), f"config error: {named} >= horizon {language['horizon']}\n"
    )


def test_cli_cover_member_length_error_is_the_first_in_input_order(tmp_path):
    members = ["00", "0", "111", "1", "0000"]
    config = write_config(tmp_path, {"version": 1, "construction": {
        "type": "cover", "level": 2, "members": members}})
    _assert_verify_fails_alike(
        config, ("1", "2"), "config error: construction: member 0 does not have length 2\n"
    )


def _assert_verify_fails_alike(config: str, seeds, stderr: str) -> None:
    """``verify`` exits 2 with ``stderr`` under each string hash seed."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, "-m", "martlab.cli", "verify", "--config", config],
            capture_output=True, text=True, env=dict(env, PYTHONHASHSEED=seed), timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == stderr


@pytest.mark.parametrize(
    "kind, field", [("subset", "language"), ("biimmunity", "language"),
                    ("acceptance", "target")]
)
def test_cli_negative_language_horizon_names_its_field(tmp_path, capsys, kind, field):
    spec = {"type": kind, "level": 0, "q": 2, "correct": 3,
            field: {"indices": [], "horizon": -5}}
    config = write_config(tmp_path, {"version": 1, "construction": spec})
    # depth 0 asks no query past the horizon, so only the config check can fail
    assert main(["verify", "--config", config, "--depth", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: construction.{field}.horizon: must be nonnegative, got -5\n"
    )


@pytest.mark.parametrize(
    "gaps, field, value",
    [({"values": {"0": 4, "01": 5}}, "values.01", 5),
     ({"values": {"1": 0}, "default": -2}, "default", -2)],
    ids=["row", "default"],
)
def test_cli_gap_value_out_of_range_is_a_config_error(tmp_path, capsys, gaps, field, value):
    # g(i) and 2**t - g(i) count paths, so each must lie in [0, 2**t]; the
    # check runs at build time, before any query reaches the row
    config = write_config(tmp_path, {"version": 1, "construction": {
        "type": "acceptance-gap", "t": 2, **gaps}})
    assert main(["verify", "--config", config, "--depth", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: construction.{field}: must be in [0, 2**2], got {value}\n"
    )


@pytest.mark.parametrize("t", range(6))
def test_gap_value_bounds_are_exact(t):
    for paths in (0, 1, (1 << t) - 1, 1 << t):
        build_construction({"type": "acceptance-gap", "t": t, "values": {"0": paths}})
        build_construction({"type": "acceptance-gap", "t": t, "values": {}, "default": paths})
    for paths in (-1, (1 << t) + 1, 1 << (t + 1)):
        with pytest.raises(ConfigError, match=rf"must be in \[0, 2\*\*{t}\], got {paths}"):
            build_construction({"type": "acceptance-gap", "t": t, "values": {"0": paths}})


CERTIFY_CONFIG = {
    "version": 1,
    "certify": {
        "family": {"type": "mcsp", "inputs": [2], "alpha": "0", "census_size": 4},
        "gap": {"7": 0},
        "modulus": {"type": "affine", "slope": 1, "offset": 8},
        "horizon": 7,
    },
}


@pytest.mark.parametrize(
    "field, value",
    [("census_size", -1), ("horizon", -3)],
)
def test_cli_certify_negative_size_or_horizon_is_a_config_error(
    tmp_path, capsys, field, value
):
    certify = json.loads(json.dumps(CERTIFY_CONFIG["certify"]))
    if field == "horizon":
        certify["horizon"] = value
        path = "certify.horizon"
    else:
        certify["family"]["census_size"] = value
        path = "certify.family.census_size"
    config = write_config(tmp_path, {"version": 1, "certify": certify})
    cache = tmp_path / "cache"
    assert main(["certify", "--config", config, "--cache-dir", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {path}: must be nonnegative, got {value}\n"
    # nothing is built or cached for a config that does not parse
    assert not cache.exists() or list(cache.iterdir()) == []


@pytest.mark.parametrize("inputs", [0, -1])
def test_cli_certify_inputs_below_one_is_a_config_error(tmp_path, capsys, inputs):
    # the census --inputs rule: an input count below 1 is a bad argument
    certify = json.loads(json.dumps(CERTIFY_CONFIG["certify"]))
    certify["family"]["inputs"] = [2, inputs]
    config = write_config(tmp_path, {"version": 1, "certify": certify})
    cache = tmp_path / "cache"
    assert main(["certify", "--config", config, "--cache-dir", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: certify.family.inputs: must be at least 1, got {inputs}\n"
    )
    assert not cache.exists() or list(cache.iterdir()) == []


def test_cli_certify_inputs_past_the_census_is_a_resource_cap(tmp_path, capsys):
    certify = json.loads(json.dumps(CERTIFY_CONFIG["certify"]))
    certify["family"]["inputs"] = [5]
    config = write_config(tmp_path, {"version": 1, "certify": certify})
    cache = str(tmp_path / "cache")
    assert main(["certify", "--config", config, "--cache-dir", cache]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap: census supports 1 <= n <= 4, got 5\n"


@pytest.mark.parametrize("case", ["file", "below-file", "collision"])
@pytest.mark.parametrize(
    "config, argv",
    [
        (None, ["census", "-n", "2", "-S", "4"]),
        (None, ["mcsp", "--table", "0110", "-s", "3"]),
        (None, ["kolmogorov", "-L", "4"]),
        (CERTIFY_CONFIG, ["certify"]),
    ],
    ids=["census", "mcsp", "kolmogorov", "certify"],
)
def test_cli_cache_dir_that_cannot_be_a_directory(
    tmp_path, capsys, config, argv, case
):
    blocker = tmp_path / "README.md"
    blocker.write_text("a file, not a directory\n")
    cache = blocker / "cache" if case == "below-file" else blocker
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, config)]
    if case == "collision":
        # a directory sits at each cache file's name
        cache = tmp_path / "cache"
        assert main(argv + ["--cache-dir", str(cache)]) == 0
        for path in cache.iterdir():
            path.unlink()
            path.mkdir()
        capsys.readouterr()
    assert main(argv + ["--cache-dir", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --cache-dir: ")
    assert blocker.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
@pytest.mark.parametrize(
    "config, argv",
    [
        (None, ["figures", "--format", "csv"]),
        (FIGURE1, ["construct"]),
        (CERTIFY_CONFIG, ["certify"]),
    ],
    ids=["figures", "construct", "certify"],
)
def test_cli_out_that_cannot_be_written(tmp_path, capsys, config, argv, where):
    out = tmp_path / "missing" / "out.txt" if where == "missing-dir" else tmp_path
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, config)]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: cannot write ")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "build, spec, field",
    [
        (build_construction, {"type": "acceptance-gap", "t": 2, "values": 3},
         "construction.values: not an object"),
        (build_construction, {"type": "acceptance-gap", "t": 2, "values": {"2": 1}},
         "construction.values: not a bit string"),
        (build_construction, {"type": "condexp", "level": 2, "values": {"01": "x"}},
         "construction.values.01: not an integer"),
        (lambda spec: build_certify(spec, None),
         {"family": {"type": "explicit-levels", "levels": ["001"]}},
         "certify.family.levels: not an object"),
        (lambda spec: build_certify(spec, None),
         {"family": {"type": "explicit-levels", "levels": {"3": "001"}}},
         "certify.family.levels.3: not a list"),
        (lambda spec: build_certify(spec, None),
         {"family": {"type": "explicit-levels", "levels": {"x": []}}},
         "certify.family.levels: not an integer"),
        (build_family, {"type": "covers", "levels": {"2": ["0a"]}},
         "family.levels.2: not a bit string"),
    ],
)
def test_shared_map_parsers_keep_field_paths(build, spec, field):
    with pytest.raises(ConfigError) as err:
        build(spec)
    assert str(err.value).startswith(field)


# block-buffered stdout (the default) first meets the closed pipe when main
# flushes it; unbuffered stdout meets it at the first print
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [["figures", "--format", "dot"], ["figures", "1"]])
def test_closed_stdout_exits_1_without_traceback(argv, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # the read end is closed before the child writes anything
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "martlab.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def _run(argv, capsys):
    """``(exit code, stdout, stderr)`` of one in-process ``main`` call,
    counting argparse's own exits (errors and ``--help``)."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_repeated_main_matches_a_fresh_parser(tmp_path, capsys):
    figure1 = str(EXPERIMENTS / "figure1_cover.json")
    geometric = str(EXPERIMENTS / "geometric_sum.json")
    certify = write_config(tmp_path, CERTIFY_CONFIG)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    # every subcommand with options away from their defaults, then argparse's
    # own exits, then every subcommand at its defaults
    calls = [
        ["kolmogorov", "--budget", "9", "1", "48", "--format", "csv", "-L", "4"],
        ["kolmogorov", "-L", "5", "--sequence", "01101", *cache],
        ["figures", "2", "--format", "csv"],
        ["construct", "--config", figure1, "--depth", "2", "--format", "json"],
        ["verify", "--config", figure1, "--depth", "6"],
        ["success", "--config", figure1, "--sequence", "0110", "--s", "1/2"],
        ["diagonalize", "--config", figure1, "-N", "3"],
        ["sum", "--config", geometric, "-w", "01", "--precision", "4", "--seed", "3"],
        ["census", "-n", "2", "-S", "3", "--alpha", "1/2", "--format", "json", *cache],
        ["mcsp", "--table", "0110", "-s", "4", *cache],
        ["certify", "--config", certify, "--seed", "5", *cache],
        ["figures", "9"],
        ["mcsp", "--table", "0110"],
        ["kolmogorov", "--budget", "1", "2"],
        ["--help"],
        ["kolmogorov", "--help"],
        ["kolmogorov"],
        ["figures"],
        ["construct", "--config", figure1],
        ["verify", "--config", figure1],
        ["success", "--config", figure1, "--sequence", "0110"],
        ["diagonalize", "--config", figure1],
        ["sum", "--config", geometric],
        ["census", "-n", "2", "-S", "3"],
        ["mcsp", "--table", "0110", "-s", "2"],
        ["certify", "--config", certify],
    ]
    assert build_parser() is build_parser()
    repeated = [_run(argv, capsys) for argv in calls]
    assert {code for code, _, _ in repeated} == {0, 2}
    for argv, seen in zip(calls, repeated):
        build_parser.cache_clear()
        assert _run(argv, capsys) == seen, argv
        if seen[0] == 0 and "--help" not in argv:
            # the namespace a reused parser gives equals a fresh parser's
            fresh = build_parser.__wrapped__().parse_args(argv)
            assert build_parser().parse_args(argv) == fresh
    assert build_parser() is build_parser()
