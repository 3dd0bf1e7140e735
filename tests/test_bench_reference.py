"""Every seed-1 benchmark job still exits and prints what the reference holds.

``bench/reference/<workload>.json`` keeps the exit code and the stdout
sha256 of each job the benchmark generates at seed 1: the CLI commands and
direct calls over every construction kind, with their CSV, JSON and DOT
dumps.  Here each workload is generated at that seed in a fresh directory,
its set-up commands run, and every job runs once through the benchmark's own
``execute``, so a change that alters any of those outputs fails tier-1, not
only a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402
import workloads  # noqa: E402

run.import_martlab()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_seed_1_job_matches_the_reference(workload, tmp_path, monkeypatch):
    reference = run.load_reference(workload, run.REFERENCE_SEED)
    gen = workloads.generate(workload, run.REFERENCE_SEED, tmp_path)
    assert [job.spec() for job in gen.jobs] == [
        {k: ref[k] for k in ("name", "argv", "call")} for ref in reference
    ]
    monkeypatch.chdir(tmp_path)
    for argv in gen.populate:
        code, _, err = run.execute(workloads.Job("populate", argv=argv))
        assert code == 0, f"set-up {' '.join(argv)}: {err}"
    mismatches = []
    for job, ref in zip(gen.jobs, reference):
        code, out, err = run.execute(job)
        if (code, run.digest(out)) != (ref["exit"], ref["sha256"]):
            mismatches.append(f"{job.name}: exit {code} (reference {ref['exit']}) {err[:200]}")
    assert not mismatches, "\n".join(mismatches)
