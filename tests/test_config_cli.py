import json

import pytest

from martlab.cli import main
from martlab.config import build_construction, load_config
from martlab.dyadic import ONE, Dyadic
from martlab.errors import ConfigError
from martlab.martingale import Martingale


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
    unfrozen = Martingale.from_exact(lambda w: values[str(w)], freeze_depth=1)
    monkeypatch.setattr(cli, "_config_construction", lambda args: unfrozen)
    assert main(["verify", "--config", "unused.json", "--depth", "2"]) == 1
    out = capsys.readouterr().out
    assert "to depth 2: PASS" in out
    assert "  freeze violated below 0\n" in out
    assert "freeze at depth 1: FAIL" in out


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

    assert main(["mcsp", "--table", "0110", "-s", "3",
                 "--cache-dir", cache]) == 0
    assert "REJECT" in capsys.readouterr().out
    assert main(["mcsp", "--table", "0110", "-s", "4",
                 "--cache-dir", cache]) == 0
    assert "ACCEPT" in capsys.readouterr().out


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


def test_cli_kolmogorov(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["kolmogorov", "-L", "6", "--budget", "4", "1", "16",
            "--cache-dir", cache]
    assert main(args + ["--sequence", "000000"]) == 0
    out = capsys.readouterr().out
    assert "lowest ratio:" in out


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
    assert main(["verify", "--config", bad_row, "--depth", "2"]) == 1
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
