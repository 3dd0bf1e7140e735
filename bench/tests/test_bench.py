"""Tests of the benchmark itself: determinism, configs, tracer hygiene.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

martlab = run.import_martlab()
from martlab import config as mconfig  # noqa: E402


def _tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv_and_configs(workload, tmp_path):
    a = workloads.generate(workload, 7, tmp_path / "a")
    b = workloads.generate(workload, 7, tmp_path / "b")
    assert [j.spec() for j in a.jobs] == [j.spec() for j in b.jobs]
    assert a.populate == b.populate
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    c = workloads.generate(workload, 8, tmp_path / "c")
    assert [j.spec() for j in c.jobs] != [j.spec() for j in a.jobs]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_has_at_least_100_jobs(workload, tmp_path):
    gen = workloads.generate(workload, 3, tmp_path)
    assert len(gen.jobs) >= 100
    assert len({j.name for j in gen.jobs}) == len(gen.jobs)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_config_loads(workload, tmp_path):
    workloads.generate(workload, 5, tmp_path)
    configs = sorted((tmp_path / "cfg").glob("*.json"))
    assert configs or workload == "tables-warm"
    for path in configs:
        data = mconfig.load_config(path)
        if "construction" in data:
            mconfig.build_construction(data["construction"])
        if "family" in data:
            mconfig.build_family(data["family"])
            mconfig.build_modulus(data["modulus"])


def _jobs(tmp_path, workload="tree-audit", count=24):
    gen = workloads.generate(workload, 2, tmp_path)
    return gen.jobs[:count]


def test_wrappers_restore_originals():
    spans.assert_pristine()
    before = spans.originals()
    machine_run = martlab.machine.run
    installed = spans.Installation(spans.Tracer())
    installed.install()
    try:
        assert martlab.kolmogorov.run is not machine_run
        assert martlab.kolmogorov.run is martlab.machine.run  # one wrapper, rebound
        with pytest.raises(RuntimeError):
            spans.assert_pristine()
    finally:
        installed.restore()
    spans.assert_pristine()
    assert martlab.kolmogorov.run is machine_run
    assert all(a is b for a, b in zip(before, spans.originals()))


def test_self_times_fit_in_traced_wall_and_stdout_is_unchanged(tmp_path):
    jobs = _jobs(tmp_path)
    plain = run.Ledger(jobs, None)
    with run.inside(tmp_path):
        run.run_pass(jobs, plain)
    tracer = spans.Tracer()
    traced = run.Ledger(jobs, None)
    installed = spans.Installation(tracer)
    installed.install()
    try:
        start = time.perf_counter_ns()
        with run.inside(tmp_path):
            run.run_pass(jobs, traced, tracer)
        wall = time.perf_counter_ns() - start
    finally:
        installed.restore()
    assert plain.failed == traced.failed == 0
    assert [f["sha256"] for f in plain.first] == [f["sha256"] for f in traced.first]
    totals = tracer.totals()
    assert totals["job"][0] == len(jobs)
    assert all(self_ns >= 0 for _, self_ns in totals.values())
    assert sum(self_ns for _, self_ns in totals.values()) <= wall
    assert not tracer.stack


def test_per_layer_names_match_benchmark_json(tmp_path):
    import json

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    jobs = _jobs(tmp_path, count=4)
    ledger = run.Ledger(jobs, None)
    with run.inside(tmp_path):
        run.run_pass(jobs, ledger)
    layer = run.per_layer(spans.Tracer(), 1, 0.0, ledger)
    assert sorted(layer) == sorted(m["name"] for m in declared["per_layer"])
    assert {k: u for k, (_, u) in layer.items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]}
    e2e = run.end_to_end([1.0], ledger, 1.0)
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.WORKLOADS)


def test_latencies_are_scaled_by_local_reference_speed(tmp_path, monkeypatch):
    jobs = _jobs(tmp_path, count=25)
    ledger = run.Ledger(jobs, None)
    refs = iter([3.0, 6.0, 6.0, 6.0])  # the machine halves its speed after block 0
    monkeypatch.setattr(run, "timed", lambda fn: next(refs))
    with run.inside(tmp_path):
        wall = run.run_pass(jobs, ledger)
    scaled = [ms[0] for ms in ledger.ms]
    factors = [s / raw[0] for s, raw in zip(scaled, ledger.raw_ms)]
    assert factors[0] == pytest.approx(run.REFERENCE_MS / 4.5)  # median of 3.0, 6.0
    assert factors[24] == pytest.approx(run.REFERENCE_MS / 6.0)
    assert wall == pytest.approx(sum(scaled) / 1000)


def test_digest_mismatch_and_wrong_exit_count_as_failures(tmp_path):
    jobs = _jobs(tmp_path, count=2)
    reference = [{**j.spec(), "exit": 0, "sha256": "0" * 64} for j in jobs]
    ledger = run.Ledger(jobs, reference)
    with run.inside(tmp_path):
        run.run_pass(jobs, ledger)
    assert ledger.failed == 2
    wrong_exit = workloads.Job("bad", argv=("verify", "--config", "missing.json"))
    ledger = run.Ledger((wrong_exit,), None)
    with run.inside(tmp_path):
        run.run_pass((wrong_exit,), ledger)
    assert ledger.failed == 1 and ledger.first[0]["exit"] == 2
