"""martlab benchmark: one workload per process, in-process closed-loop jobs.

Run from the root of a martlab checkout:

    python3 bench/run.py --workload tree-audit --seed 1 --seconds 10 --trace 0

The workload's inputs are generated from the seed; set-up (imports, input
generation, config writing, cache population) is repeated and its median
reported as ``setup_s``.  The job list then runs in passes, one job at a
time, until ``--seconds`` have elapsed.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
per-layer metrics.  The last stdout line is
one JSON object; the full record (provenance, per-job digests, pass times)
is written to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
REFERENCE_SEED = 1
SETUP_REPS = 3
# the reference loop runs before every REFERENCE_EVERY-th job; REFERENCE_MS is
# its median time on the machine the baseline in README.md was measured on, so
# reported times read as seconds on that machine (raw times go to the record)
REFERENCE_EVERY = 10
REFERENCE_MS = 3.0

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402


class CheckoutError(Exception):
    """The benchmark is not running inside a martlab source checkout."""


def import_martlab():
    """Import martlab from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "martlab" / "__init__.py").is_file():
        raise CheckoutError(f"no martlab sources under {src}")
    sys.path.insert(0, str(src))
    import martlab

    if Path(martlab.__file__).resolve().parent != (src / "martlab").resolve():
        raise CheckoutError(f"imported martlab from {martlab.__file__}, not {src}")
    for name in spans.MODULES:  # includes the lazily imported circuits/numpy
        __import__(name)
    return martlab


# -- direct jobs: public functions the CLI does not expose ---------------


def empirical_dimension(cfg: str, sequence: str) -> int:
    from martlab import config, martingale
    from martlab.cantor import BitString

    m = config.build_construction(config.load_config(cfg)["construction"])
    report = martingale.empirical_dimension(m, BitString(sequence))
    levels = ",".join("inf" if v is None else str(v) for v in report.levels)
    print(f"grid 2^-{report.grid_bits}: {levels}")
    print(f"best {report.best}, worst {report.worst}")
    return 0


def approx_verify(cfg: str, level: int, skew: int) -> int:
    """Approximate-counting transform of a cover, with a seeded in-band
    approximation ``h = f +- floor(f / level)``, checked to its level."""
    from martlab import combinators, config

    m = config.build_construction(config.load_config(cfg)["construction"])
    form = m.ratio

    def h(x) -> int:
        f = form.numerator(x)
        up = (((x.to_int() + len(x) + skew) * 0x9E3779B1) >> 7) & 1
        return f + f // level if up else f - f // level

    sup = combinators.approx_supermartingale(form, h, level)
    bad = sup.verify_averaging_exact(level)
    print(f"initial capital {sup.martingale.initial_capital}")
    print("violations: " + (" ".join(str(v) or "λ" for v in bad) or "none"))
    return 0


DIRECT = {"empirical_dimension": empirical_dimension, "approx_verify": approx_verify}


# -- running jobs --------------------------------------------------------


def execute(job) -> tuple[int | None, str, str]:
    """Run one job in-process; returns (exit code, stdout, error)."""
    from martlab import cli

    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if job.argv:
                code = cli.main(list(job.argv))
            else:
                code = DIRECT[job.call[0]](*job.call[1:])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a job that raises is a failed job, not a crash
            error = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error or err.getvalue().strip()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Ledger:
    """Per-job outcomes across passes, and the correctness verdict."""

    def __init__(self, jobs, reference: list | None) -> None:
        self.jobs = jobs
        if reference is not None and len(reference) != len(jobs):
            reference = [None] * len(jobs)  # every job then fails the check
        self.reference = reference
        self.first: list[dict | None] = [None] * len(jobs)
        self.raw_ms: list[list[float]] = [[] for _ in jobs]
        self.ms: list[list[float]] = [[] for _ in jobs]  # scaled to reference speed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, i: int, code, stdout: str, error: str, ms: float,
               factor: float = 1.0) -> None:
        job = self.jobs[i]
        sha = digest(stdout)
        self.attempted += 1
        self.raw_ms[i].append(ms)
        self.ms[i].append(ms * factor)
        why = []
        if code != job.exit:
            why.append(f"exit {code} != {job.exit} {error[:200]}")
        why += [f"missing {s!r}" for s in job.must if s not in stdout]
        why += [f"unexpected {s!r}" for s in job.must_not if s in stdout]
        if self.first[i] is None:
            self.first[i] = {**job.spec(), "exit": code, "sha256": sha,
                             "stdout_bytes": len(stdout.encode())}
        elif self.first[i]["sha256"] != sha:
            why.append("stdout differs between passes")
        if self.reference is not None:
            ref = self.reference[i]
            if ref is None or (ref["argv"], ref["call"]) != (list(job.argv), list(job.call)):
                why.append("job differs from the reference job list")
            elif (ref["exit"], ref["sha256"]) != (code, sha):
                why.append("stdout or exit differs from the reference digest")
        if why:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{job.name}: {'; '.join(why)}")


def reference_loop() -> None:
    """Fixed work outside martlab, timed between jobs to track the machine's
    speed: object churn and big-int arithmetic, the two kinds of work martlab
    does."""
    table = {f"k{i}": i * i for i in range(4000)}
    ",".join(table)
    y = (3 ** 150) ** 100
    (y * y) % (7 ** 3500)


def run_pass(jobs, ledger: Ledger, tracer=None) -> float:
    """Run every job once; returns the pass's seconds at reference speed.

    The reference loop runs before every ``REFERENCE_EVERY``-th job and
    after the last.  A job's speed factor is ``REFERENCE_MS`` over the
    median of the reference times just before, around and after its block,
    and its latency is recorded both raw and multiplied by that factor."""
    refs, results = [], []
    for i, job in enumerate(jobs):
        if i % REFERENCE_EVERY == 0:
            refs.append(timed(reference_loop))
        t = time.perf_counter_ns()
        if tracer is None:
            code, out, err = execute(job)
        else:
            tracer.job_id = i
            code, out, err = tracer.call(tracer.name_id("job"), execute, (job,), {})
        results.append((code, out, err, (time.perf_counter_ns() - t) / 1e6))
    refs.append(timed(reference_loop))
    total_ms = 0.0
    for i, (code, out, err, ms) in enumerate(results):
        block = i // REFERENCE_EVERY
        factor = REFERENCE_MS / statistics.median(refs[max(0, block - 1):block + 2])
        ledger.record(i, code, out, err, ms, factor)
        total_ms += ms * factor
    return total_ms / 1000


def timed(fn) -> float:
    """Milliseconds one call of ``fn`` takes."""
    t = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - t) / 1e6


# -- set-up --------------------------------------------------------------


@contextlib.contextmanager
def inside(path: Path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def set_up(workload: str, seed: int, work: Path):
    """Generate inputs and fill caches ``SETUP_REPS`` times; keep the last.

    Set-up times are raw, not scaled to reference speed.  A reference loop can
    only run between set-up steps, and the longest step (the L=10 kt sweep of
    ``tables-warm``) outlasts the machine's speed states, so a factor from its
    edges raised the spread instead of cutting it (see README.md).

    Returns (generated jobs, work directory, per-repetition seconds)."""
    times, gen, specs, root = [], None, None, None
    for rep in range(SETUP_REPS):
        if root is not None:
            shutil.rmtree(root)
        root = work / f"rep{rep}"
        t = time.perf_counter()
        gen = workloads.generate(workload, seed, root)
        with inside(root):
            for argv in gen.populate:
                code, _, err = execute(workloads.Job("populate", argv=argv))
                if code != 0:
                    raise RuntimeError(f"set-up {' '.join(argv)} exited {code}: {err}")
        times.append(time.perf_counter() - t)
        rep_specs = [job.spec() for job in gen.jobs]
        if specs is not None and rep_specs != specs:
            raise RuntimeError("input generation is not deterministic")
        specs = rep_specs
    return gen, root, times


# -- metrics -------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(walls, ledger: Ledger, setup_s: float) -> dict:
    """Pass medians, and latency percentiles over each job's median latency
    (one sample per job, so a workload of >= 100 jobs leaves >= 10 samples
    beyond p90).  Pass and job times are at reference speed."""
    samples = [statistics.median(ms) for ms in ledger.ms]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "job_ms.p50": (statistics.median(samples), "ms"),
        "job_ms.p90": (percentile(samples, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": (1 - ledger.failed / ledger.attempted, "ratio"),
    }


LAYER_SPANS = (
    "dyadic.cmp_pow2", "dyadic.grid_floor", "cantor.contains", "oracle.count",
    "martingale.verify_averaging", "combinators.sum_family", "combinators.approx_verify",
    "kolmogorov.build_kt_table", "kolmogorov.load_kt_table", "kolmogorov.save_kt_table",
    "kolmogorov.short_program_counts", "kolmogorov.k_rate",
    "circuits.build_census", "circuits.load_census", "circuits.save_census",
    "circuits.mcsp", "circuits.mnp_cover_check",
    "entropy.mc_certificate", "entropy.level_count",
)
COUNTS = (
    "cantor.string_index.calls", "oracle.count.witnesses", "martingale.value.calls",
    "martingale.verify_averaging.nodes", "martingale.success_scan.levels",
    "martingale.empirical_dimension.levels", "machine.run.steps",
    "kolmogorov.lookup.calls", "circuits.min_size.calls",
)
SELF_ONLY = (
    "martingale.tree_export", "martingale.success_scan", "martingale.empirical_dimension",
    "martingale.diagonalize", "constructions.build", "config.load", "cli.main",
)


def per_layer(tracer, passes: int, overhead: float, ledger: Ledger) -> dict:
    """Per-pass work counts and self times from the traced passes."""
    totals = tracer.totals()
    counts = tracer.counts

    def per_pass(total):
        value = total / passes
        return int(value) if value == int(value) else value

    def calls(name):
        return per_pass(totals.get(name, (0, 0))[0])

    def self_s(name):
        return totals.get(name, (0, 0))[1] / passes / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in LAYER_SPANS:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (self_s(name), "s")
    for key in COUNTS:
        m[key] = (per_pass(counts[key]), "count")
    m["oracle.count.ns_per_witness"] = (
        ratio(totals.get("oracle.count", (0, 0))[1], counts["oracle.count.witnesses"]), "ns")
    for kind in spans.KINDS:
        name = f"constructions.{kind}.value"
        n, ns = totals.get(name, (0, 0))
        m[f"{name}.calls"] = (per_pass(n), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.ns_per_node"] = (ratio(ns, n), "ns")
    runs, run_ns = totals.get("machine.run", (0, 0))
    m["machine.run.calls"] = (per_pass(runs), "count")
    m["machine.run.self_s"] = (self_s("machine.run"), "s")
    m["machine.run.ns_per_program"] = (ratio(run_ns, runs), "ns")
    m["machine.run.output_ratio"] = (ratio(counts["machine.run.outputs"], runs), "ratio")
    for prefix in ("kolmogorov.cache", "circuits.cache"):
        m[f"{prefix}.hit_ratio"] = (
            ratio(counts[f"{prefix}.hits"], counts[f"{prefix}.lookups"]), "ratio")
    stdout = sum(ledger.first[i]["stdout_bytes"] for i, job in enumerate(ledger.jobs)
                 if job.argv)
    m["cli.stdout_bytes"] = (stdout, "bytes")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


# -- provenance ----------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not executed)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(martlab, seed: int) -> dict:
    import numpy

    from martlab.machine import MACHINE_VERSION

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "martlab_version": martlab.__version__,
        "machine_version": MACHINE_VERSION,
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": git_commit(),
    }


# -- main ----------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help=f"store this run's digests as the reference (seed {REFERENCE_SEED})")
    return p.parse_args(argv)


def load_reference(workload: str, seed: int) -> list | None:
    if seed != REFERENCE_SEED:
        return None
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text())["jobs"]


def measure(args, martlab, work: Path) -> tuple[dict, dict]:
    gc_state = (sys.getrecursionlimit(), gc.isenabled(), gc.get_threshold())
    import_s = time.perf_counter() - T0
    gen, root, setup_times = set_up(args.workload, args.seed, work)
    setup_s = import_s + statistics.median(setup_times)
    reference = None if args.write_reference else load_reference(args.workload, args.seed)
    ledger = Ledger(gen.jobs, reference)

    spans.assert_pristine()

    def one_pass(tracer=None) -> float:
        with inside(root):
            wall = run_pass(gen.jobs, ledger, tracer)
            if gen.cold_dir:
                shutil.rmtree(gen.cold_dir, ignore_errors=True)
        return wall

    deadline = time.perf_counter() + args.seconds
    walls, traced = [], []
    if args.trace:
        # alternate untraced and traced passes so machine drift hits both
        tracer = spans.Tracer()
        while not traced or time.perf_counter() < deadline:
            if len(walls) == len(traced):
                walls.append(one_pass())
                continue
            installed = spans.Installation(tracer)
            installed.install()
            try:
                traced.append(one_pass(tracer))
            finally:
                installed.restore()
            spans.assert_pristine()
        overhead = statistics.median(traced) / statistics.median(walls) - 1
        metrics = per_layer(tracer, len(traced), overhead, ledger)
    else:
        while not walls or time.perf_counter() < deadline:
            walls.append(one_pass())
        metrics = end_to_end(walls, ledger, setup_s)

    if gc_state != (sys.getrecursionlimit(), gc.isenabled(), gc.get_threshold()):
        raise RuntimeError("the benchmark changed gc settings or the recursion limit")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(martlab, args.seed),
        "setup_reps_s": setup_times,
        "import_s": import_s,
        "reference_ms": REFERENCE_MS,
        "untraced_pass_s": walls,
        "traced_pass_s": traced,
        "raw_pass_s": [sum(ms[p] for ms in ledger.raw_ms) / 1000
                       for p in range(len(walls) + len(traced))],
        "job_samples": len(ledger.jobs),
        "runs_per_job": len(walls) + len(traced),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_frac": ledger.failed / ledger.attempted,
        "problems": ledger.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "jobs": [
            {**first, "ms": ms, "raw_ms": raw}
            for first, ms, raw in zip(ledger.first, ledger.ms, ledger.raw_ms)
        ],
    }
    return record, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        martlab = import_martlab()
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != REFERENCE_SEED:
        print(f"bench: the reference is written at seed {REFERENCE_SEED}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        record, metrics = measure(args, martlab, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.write_reference:
        jobs = [{k: job[k] for k in ("name", "argv", "call", "exit", "sha256")}
                for job in record["jobs"]]
        REFERENCE.mkdir(exist_ok=True)
        (REFERENCE / f"{args.workload}.json").write_text(
            json.dumps({"seed": args.seed, "jobs": jobs}, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
