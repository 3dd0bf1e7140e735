"""Seeded workload generators.

Each workload turns a seed into a fixed list of martlab jobs plus the config
files they read.  A job is a ``martlab.cli.main(argv)`` call, or a direct call
of a public function the CLI does not expose (``empirical_dimension``, the
approximate-counting supermartingale check).  The seed picks contents
(members, prefixes, exponent numerators, truth tables) and the job order; the
sizes that set a job's cost (levels, prefix lengths, exponent denominators,
sweep lengths) come from fixed per-workload plans, so every seed asks for the
same amount of work and runs of different seeds are comparable.

argv paths are relative to the workload's work directory, so the same seed
yields byte-identical argv and config files wherever it is generated.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

PASS = dict(must=("PASS",), must_not=("FAIL",))


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a CLI argv or a direct call, and its checks.

    ``exit`` is the expected exit code; ``must``/``must_not`` are verdict
    strings the command's own checks print (``PASS``, ``status: VALID``).
    """

    name: str
    argv: tuple = ()
    call: tuple = ()
    exit: int = 0
    must: tuple = ()
    must_not: tuple = ()

    def spec(self) -> dict:
        return {"name": self.name, "argv": list(self.argv), "call": list(self.call)}


@dataclass(frozen=True)
class Generated:
    jobs: tuple  # of Job
    populate: tuple = ()  # argvs run during set-up to fill the shared cache
    cold_dir: str | None = None  # removed after every pass


class Inputs:
    """Writes config files under ``root/cfg`` and hands back relative paths."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.count = 0
        (root / "cfg").mkdir(parents=True, exist_ok=True)

    def config(self, body: dict) -> str:
        rel = f"cfg/{self.count:03d}.json"
        self.count += 1
        text = json.dumps({"version": 1, **body}, indent=1, sort_keys=True)
        (self.root / rel).write_text(text + "\n")
        return rel


class Plan:
    """Collects unnamed jobs, then shuffles and numbers them."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.items: list[tuple[str, dict]] = []

    def cli(self, label: str, *argv, **checks) -> None:
        self.items.append((label, dict(argv=tuple(str(a) for a in argv), **checks)))

    def direct(self, label: str, *call, **checks) -> None:
        self.items.append((label, dict(call=tuple(call), **checks)))

    def jobs(self) -> tuple:
        self.rng.shuffle(self.items)
        return tuple(
            Job(name=f"{i:03d}-{label}", **fields)
            for i, (label, fields) in enumerate(self.items)
        )


def bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def members(rng: random.Random, level: int, k: int) -> list[str]:
    return sorted(format(v, f"0{level}b") for v in rng.sample(range(1 << level), k))


def exponent(rng: random.Random, k: int) -> str:
    """A success exponent in (0, 1] with denominator exactly ``2**k``."""
    if k == 0:
        return "1"
    return f"{rng.randrange(1, 1 << k, 2)}/{1 << k}"


# -- tree-audit ----------------------------------------------------------

# (level, member density): the quadratic ext_count makes cost ~ nodes * members
COVER_PLAN = (
    [(4, 0.4)] * 5 + [(5, 0.4)] * 5 + [(6, 0.3)] * 6 + [(7, 0.3)] * 5
    + [(8, 0.25)] * 6 + [(9, 0.12)] * 3 + [(10, 0.08)] * 2 + [(11, 0.05), (12, 0.03)]
)


def tree_audit(rng: random.Random, inp: Inputs) -> Generated:
    plan = Plan(rng)
    for _ in range(2):
        plan.cli("figures", "figures", must_not=("FAIL",))
    for _ in range(3):
        plan.cli("figure", "figures", rng.randint(1, 5), must_not=("FAIL",))

    second = ("csv", "json", "dot", "diagonalize")
    for i, (level, density) in enumerate(COVER_PLAN):
        k = max(1, round(density * (1 << level)))
        cfg = inp.config(
            {"construction": {"type": "cover", "level": level,
                              "members": members(rng, level, k)}}
        )
        depth = level + i % 2
        plan.cli(f"verify-cover{level}", "verify", "--config", cfg, "--depth", depth, **PASS)
        kind = second[i % len(second)]
        if kind == "diagonalize":
            plan.cli(f"diag-cover{level}", "diagonalize", "--config", cfg,
                     "-N", level + 4, must=("non-increasing: PASS",))
        else:
            plan.cli(f"construct-{kind}-cover{level}", "construct", "--config", cfg,
                     "--depth", min(level, 10), "--format", kind)

    for level in (4, 5, 6, 7, 8, 9, 10):
        chosen = members(rng, level, max(1, (1 << level) // 3))
        cfg = inp.config(
            {"construction": {"type": "condexp", "level": level,
                              "values": {m: rng.randint(1, 9) for m in chosen}}}
        )
        plan.cli(f"verify-condexp{level}", "verify", "--config", cfg,
                 "--depth", level + 1, **PASS)
        plan.cli(f"construct-csv-condexp{level}", "construct", "--config", cfg,
                 "--depth", level)

    for level in (4, 6, 8, 10):
        lang = {"indices": sorted(rng.sample(range(32), 12)), "horizon": 32}
        cfg = inp.config(
            {"construction": {"type": "subset", "level": level, "language": lang}}
        )
        plan.cli(f"verify-subset{level}", "verify", "--config", cfg,
                 "--depth", level + 1, **PASS)
        plan.cli(f"construct-json-subset{level}", "construct", "--config", cfg,
                 "--depth", level, "--format", "json")

    for depth, q in ((6, 1), (7, 2), (8, 3), (9, 2)):
        target = {"indices": sorted(rng.sample(range(64), 20)), "horizon": 64}
        cfg = inp.config(
            {"construction": {"type": "acceptance", "q": q,
                              "correct": rng.randint(1, (1 << q) - 1), "target": target}}
        )
        plan.cli(f"verify-acceptance{depth}", "verify", "--config", cfg,
                 "--depth", depth, **PASS)
        plan.cli(f"construct-dot-acceptance{depth}", "construct", "--config", cfg,
                 "--depth", depth - 2, "--format", "dot")
    for depth, t in ((6, 2), (8, 3)):
        values = {bits(rng, rng.randint(1, 5)): rng.randint(0, 1 << t) for _ in range(12)}
        cfg = inp.config(
            {"construction": {"type": "acceptance-gap", "t": t, "values": values,
                              "default": rng.randint(0, 1 << t)}}
        )
        plan.cli(f"verify-gap{depth}", "verify", "--config", cfg, "--depth", depth, **PASS)
        plan.cli(f"construct-csv-gap{depth}", "construct", "--config", cfg, "--depth", depth)
    for depth in (6, 7, 8, 9):
        lang = {"indices": sorted(rng.sample(range(64), 16)), "horizon": 64}
        cfg = inp.config({"construction": {"type": "biimmunity", "language": lang}})
        plan.cli(f"verify-biimmunity{depth}", "verify", "--config", cfg,
                 "--depth", depth, **PASS)
        plan.cli(f"diag-biimmunity{depth}", "diagonalize", "--config", cfg, "-N", 12,
                 must=("non-increasing: PASS",))

    budgets = ([4, 1, 16], [9, 1, 48], [5, 1, 20])
    for i, level in enumerate((4, 5, 6, 7, 8)):
        cfg = inp.config(
            {"construction": {"type": "kt-cover", "level": level,
                              "gap": i % 3, "budget": budgets[i % 3]}}
        )
        plan.cli(f"verify-ktcover{level}", "verify", "--config", cfg,
                 "--depth", level, **PASS)
        plan.cli(f"construct-csv-ktcover{level}", "construct", "--config", cfg,
                 "--depth", level)

    # relation-backed covers go through oracle.count; mcsp-witness stays at
    # s <= 1 because a single s = 2 verify enumerates 2**22 witnesses
    relations = [
        (4, {"builtin": "sat", "vars": 2}),
        (4, {"builtin": "sat", "vars": 2}),
        (8, {"builtin": "sat", "vars": 3}),
        (8, {"builtin": "sat", "vars": 3}),
        (2, {"builtin": "mcsp-witness", "inputs": 1, "size": 0}),
        (2, {"builtin": "mcsp-witness", "inputs": 1, "size": 1}),
        (4, {"builtin": "mcsp-witness", "inputs": 2, "size": 0}),
        (4, {"builtin": "mcsp-witness", "inputs": 2, "size": 1}),
        (4, {"builtin": "short-program", "max_len": 4, "budget": budgets[0]}),
        (5, {"builtin": "short-program", "max_len": 5, "budget": budgets[1]}),
        (6, {"builtin": "short-program", "max_len": 6, "budget": budgets[2]}),
    ]
    for level, rel in relations:
        cfg = inp.config({"construction": {"type": "cover", "level": level, "relation": rel}})
        plan.cli(f"verify-{rel['builtin']}{level}", "verify", "--config", cfg,
                 "--depth", level, **PASS)
    for level in (6, 8):
        rel = {"builtin": "explicit", "members": members(rng, level, 1 << (level - 2))}
        cfg = inp.config({"construction": {"type": "cover", "level": level,
                                           "relation": rel, "decide": "unique"}})
        plan.cli(f"verify-explicit{level}", "verify", "--config", cfg,
                 "--depth", level, **PASS)

    for i in range(6):
        if i % 2:
            fam = {"type": "geometric-constants"}
            offset = rng.randint(1, 4)
        else:
            fam = {"type": "covers", "levels": {
                "3": members(rng, 3, 3), "5": members(rng, 5, 6)}}
            offset = 6
        cfg = inp.config({"family": fam,
                          "modulus": {"type": "affine", "slope": 1, "offset": offset}})
        plan.cli("sum", "sum", "--config", cfg, "-w", bits(rng, i),
                 "--precision", 6 + 2 * i, "--seed", rng.randrange(1000),
                 must=("truncated sum at",))

    for level in (6, 7, 8, 9, 8, 9):
        k = max(1, (1 << level) // 4)
        cfg = inp.config({"construction": {"type": "cover", "level": level,
                                           "members": members(rng, level, k)}})
        plan.direct(f"approx-verify{level}", "approx_verify", cfg, level,
                    rng.randrange(1 << 16), must=("violations: none",))
    return Generated(plan.jobs())


# -- path-scan -----------------------------------------------------------

# (prefix length, log2 of the exponent's denominator) for acceptance scans:
# cmp_pow2 raises values to the 2**k-th power, so k sets the cost
ACCEPT_SCANS = (
    [(n, k) for n in (32, 40, 48, 56, 64, 96) for k in (0, 2, 4, 6, 8, 10)]
    + [(n, k) for n in (128, 160, 200, 256) for k in (6, 8, 10)]
    + [(256, 10), (400, 8), (300, 10)]
)


def _acceptance(rng: random.Random, inp: Inputs, q: int, correct: int) -> str:
    target = {"indices": sorted(rng.sample(range(1024), 300)), "horizon": 1024}
    return inp.config({"construction": {"type": "acceptance", "q": q,
                                        "correct": correct, "target": target}})


def _gap(rng: random.Random, inp: Inputs) -> str:
    t = 3
    # 0 < g < 2**t keeps both odds positive, so no scan's capital dies early
    values = {bits(rng, rng.randint(1, 8)): rng.randint(1, (1 << t) - 1) for _ in range(60)}
    return inp.config({"construction": {"type": "acceptance-gap", "t": t,
                                        "values": values, "default": 5}})


def _biimmunity(rng: random.Random, inp: Inputs) -> tuple[str, set]:
    indices = set(rng.sample(range(1024), 100))
    cfg = inp.config({"construction": {"type": "biimmunity",
                                       "language": {"indices": sorted(indices),
                                                    "horizon": 1024}}})
    return cfg, indices


def _dominating(rng: random.Random, indices: set, n: int) -> str:
    """A prefix that keeps the bi-immunity capital alive: 1 on every member."""
    return "".join("1" if i in indices else rng.choice("01") for i in range(n))


def path_scan(rng: random.Random, inp: Inputs) -> Generated:
    plan = Plan(rng)
    # odds q/correct set how fast numerators grow, so they are fixed per slot
    acc = [_acceptance(rng, inp, q, c) for q, c in ((2, 3), (3, 5), (3, 6))]
    gap = [_gap(rng, inp) for _ in range(2)]
    bii = [_biimmunity(rng, inp) for _ in range(2)]

    for i, (n, k) in enumerate(ACCEPT_SCANS):
        plan.cli(f"success-acc{n}-k{k}", "success", "--config", acc[i % 3],
                 "--sequence", bits(rng, n), "--s", exponent(rng, k))
    for i, (n, k) in enumerate((n, k) for n in (32, 48, 64, 96, 128) for k in (0, 5, 10)):
        plan.cli(f"success-gap{n}-k{k}", "success", "--config", gap[i % 2],
                 "--sequence", bits(rng, n), "--s", exponent(rng, k))
    for i, (n, k) in enumerate((n, k) for n in (32, 64, 128, 256, 400) for k in (0, 5, 10)):
        cfg, indices = bii[i % 2]
        plan.cli(f"success-bii{n}-k{k}", "success", "--config", cfg,
                 "--sequence", _dominating(rng, indices, n), "--s", exponent(rng, k))

    diag = [(acc[i % 3], n) for i, n in enumerate((32, 32, 64, 64, 96))]
    diag += [(gap[0], 64), (gap[1], 128), (bii[0][0], 128), (bii[1][0], 400)]
    for cfg, n in diag:
        plan.cli(f"diag{n}", "diagonalize", "--config", cfg, "-N", n,
                 must=("non-increasing: PASS",))

    for i, n in enumerate((32, 48, 64, 96)):
        plan.direct(f"dimension-acc{n}", "empirical_dimension", acc[i % 3], bits(rng, n))
    for i, n in enumerate((48, 64, 96)):
        plan.direct(f"dimension-gap{n}", "empirical_dimension", gap[i % 2], bits(rng, n))
    for i, n in enumerate((128, 256, 400)):
        cfg, indices = bii[i % 2]
        plan.direct(f"dimension-bii{n}", "empirical_dimension", cfg,
                    _dominating(rng, indices, n))
    return Generated(plan.jobs())


# -- tables --------------------------------------------------------------

KT_BUDGETS = ((4, 1, 16), (9, 1, 48), (5, 1, 20), (3, 1, 12))
FORMS = ("summary", "csv", "sequence")
# the kt sweep runs every program up to L + 9 bits, so cost doubles per length
KT_COLD_PLAN = (4,) * 6 + (5,) * 3 + (6, 7, 8)
# census (inputs, max size) pairs and the alphas whose size bound fits them
CENSUS_ALPHAS = {2: ("0", "1/4", "1/2"), 3: ("0", "1/4", "1/2"), 4: ("0", "1/4")}
CENSUS_COLD_PLAN = [(2, s) for s in (2, 4, 6, 8)] + [(3, s) for s in (4, 5, 6, 8)] \
    + [(4, s) for s in (4, 5, 6, 7, 8)]


# certificate families: every nonempty subset of the fixture's inputs
CERTIFY_INPUTS = ([2], [3], [4], [2, 3], [2, 4], [3, 4], [2, 3, 4])


def _certify(rng: random.Random, inp: Inputs, inputs: list, census_size: int) -> str:
    """An mcsp certificate shaped like experiments/mcsp_certificate.json."""
    witnesses = ["0" * 31]
    if 2 in inputs:
        # level 7 covers every prefix whose trailing 4 table bits are all zero
        witnesses.append(bits(rng, 3) + "0000" + bits(rng, 24))
    return inp.config({"certify": {
        "family": {"type": "mcsp", "inputs": inputs,
                   "alpha": rng.choice(("0", "1/4", "1/2")), "census_size": census_size},
        "gap": {"7": 0, "15": 1, "31": 4}, "gap_default": "n",
        "modulus": {"type": "affine", "slope": 1, "offset": 32},
        "horizon": 31, "witnesses": witnesses}})


def _kolmogorov(plan: Plan, label: str, L: int, budget, form: str, cache: str,
                rng: random.Random) -> None:
    extra = {"summary": (), "csv": ("--format", "csv"),
             "sequence": ("--sequence", bits(rng, rng.randint(1, L)))}[form]
    plan.cli(f"{label}-kolmogorov{L}-{form}", "kolmogorov", "-L", L, "--budget", *budget,
             *extra, "--cache-dir", cache, must=("kt",))


def tables_cold(rng: random.Random, inp: Inputs) -> Generated:
    plan = Plan(rng)
    n_dirs = iter(range(1000))

    def cold() -> str:
        return f"cold/{next(n_dirs):03d}"

    for i, L in enumerate(KT_COLD_PLAN):
        _kolmogorov(plan, "cold", L, KT_BUDGETS[i % 4], FORMS[i % 3], cold(), rng)
    for _ in range(3):
        for n, size in CENSUS_COLD_PLAN:
            extra = ("--alpha", rng.choice(CENSUS_ALPHAS[n])) if size >= 5 or n < 4 else ()
            plan.cli(f"cold-census{n}-{size}", "census", "-n", n, "-S", size,
                     "--format", rng.choice(("csv", "json")), *extra, "--cache-dir", cold())
    for i in range(24):
        cfg = _certify(rng, inp, CERTIFY_INPUTS[i % 7], 4 + i % 3)
        plan.cli("cold-certify", "certify", "--config", cfg, "--cache-dir", cold(),
                 "--seed", rng.randrange(1000), must=("status: VALID",))
    for i, level in enumerate((4, 5, 6, 7, 8, 9, 4, 5, 6, 7, 8, 9, 6, 7)):
        cfg = inp.config({"construction": {"type": "kt-cover", "level": level,
                                           "gap": i % 3,
                                           "budget": list(KT_BUDGETS[i % 4])}})
        plan.cli(f"verify-ktcover{level}", "verify", "--config", cfg,
                 "--depth", level, **PASS)
        plan.cli(f"construct-ktcover{level}", "construct", "--config", cfg,
                 "--depth", level, "--format", ("csv", "json")[i % 2])
    return Generated(plan.jobs(), cold_dir="cold")


# caches the warm jobs read: kt tables (budget, L) and censuses (n, size)
WARM_KT = (((4, 1, 16), 10), ((9, 1, 48), 6))
WARM_CENSUS = ((2, 4), (3, 6), (4, 8), (2, 5), (3, 5), (4, 5))


def tables_warm(rng: random.Random, inp: Inputs) -> Generated:
    cache = "cache"
    populate = [
        ("kolmogorov", "-L", str(L), "--budget", *map(str, b), "--cache-dir", cache)
        for b, L in WARM_KT
    ] + [
        ("census", "-n", str(n), "-S", str(s), "--cache-dir", cache)
        for n, s in WARM_CENSUS
    ]
    plan = Plan(rng)
    for n, s, repeat in ((4, 8, 30), (3, 6, 10), (2, 4, 10)):
        for _ in range(repeat):
            plan.cli(f"mcsp{n}", "mcsp", "--table", bits(rng, 1 << n), "-s", s,
                     "--cache-dir", cache, must=("table",))
    for i in range(33):
        budget, L = WARM_KT[1 if i % 3 == 2 else 0]
        _kolmogorov(plan, "warm", L, budget, FORMS[i // 3 % 3], cache, rng)
    for n, s in WARM_CENSUS * 3:
        plan.cli(f"warm-census{n}-{s}", "census", "-n", n, "-S", s,
                 "--alpha", rng.choice(CENSUS_ALPHAS[n]), "--cache-dir", cache)
    for i in range(15):
        cfg = _certify(rng, inp, CERTIFY_INPUTS[i % 7], 5)
        plan.cli("warm-certify", "certify", "--config", cfg, "--cache-dir", cache,
                 "--seed", rng.randrange(1000), must=("status: VALID",))
    return Generated(plan.jobs(), populate=tuple(populate))


WORKLOADS = {
    "tree-audit": tree_audit,
    "path-scan": path_scan,
    "tables-cold": tables_cold,
    "tables-warm": tables_warm,
}


def generate(workload: str, seed: int, root: Path) -> Generated:
    """Write the workload's inputs for ``seed`` under ``root``; return its jobs."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng, Inputs(root))
