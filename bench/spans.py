"""Per-layer tracing for the benchmark, installed from outside ``src/``.

The tracer wraps the public entry points of each martlab module.  A wrapped
function opens a span (name, start, end, parent, job id) kept in memory in
compact arrays; counters record work done at the same boundaries (programs
run, witnesses enumerated, prefix levels scanned).  Self time is a span's
duration minus the time its child spans cover.

``install`` rebinds every ``martlab.*`` module namespace that holds an
original function and patches methods on their class; ``restore`` puts every
original back.  Nothing here touches ``gc`` or the recursion limit.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

# every martlab module the wrappers must see; imported before installing so
# lazily imported names (circuits, kolmogorov, entropy) are rebound as well
MODULES = (
    "martlab",
    "martlab.dyadic",
    "martlab.cantor",
    "martlab.oracle",
    "martlab.martingale",
    "martlab.constructions",
    "martlab.combinators",
    "martlab.circuits",
    "martlab.machine",
    "martlab.kolmogorov",
    "martlab.entropy",
    "martlab.golden",
    "martlab.config",
    "martlab.cli",
)

# construction kinds reported per layer; others are traced as "other"
KINDS = ("cover", "condexp", "subset", "acceptance", "biimmunity", "kt-cover")

_MARK = "_bench_wrapper"


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def call(self, nid: int, fn, args, kwargs):
        """Run ``fn`` inside a span; a call made directly inside a span of
        the same name is folded into it, so nested entry points (for example
        ``contains_index`` calling ``contains``) count once."""
        stack = self.stack
        if stack and self.name[stack[-1]] == nid:
            return fn(*args, **kwargs)
        i = self.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def totals(self) -> dict[str, tuple[int, int]]:
        """``name -> (calls, self_ns)`` over every closed span."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_ns[nid] += self.end[i] - self.start[i] - child[i]
        return {
            name: (calls[nid], self_ns[nid]) for nid, name in enumerate(self.names)
        }


# -- counters attached to spans: (tracer counts, args, kwargs, result) -----


def _witnesses(counts, args, kwargs, result) -> None:
    rel, x = args[0], args[2]
    counts["oracle.count.witnesses"] += 1 << rel.witness_length(len(x))


def _nodes(counts, args, kwargs, result) -> None:
    counts["martingale.verify_averaging.nodes"] += (1 << (args[1] + 1)) - 1


def _success_levels(counts, args, kwargs, result) -> None:
    counts["martingale.success_scan.levels"] += len(args[1]) + 1


def _dimension_levels(counts, args, kwargs, result) -> None:
    counts["martingale.empirical_dimension.levels"] += len(args[1])


def _program(counts, args, kwargs, result) -> None:
    counts["machine.run.steps"] += result.steps
    if result.output is not None:
        counts["machine.run.outputs"] += 1


def _kt_build(counts, args, kwargs, result) -> None:
    counts["kolmogorov.builds"] += 1


def _census_build(counts, args, kwargs, result) -> None:
    counts["circuits.builds"] += 1


# (module, attribute, span name, counter)
SPANS = (
    ("martlab.dyadic", "cmp_pow2", "dyadic.cmp_pow2", None),
    ("martlab.dyadic", "grid_floor_log2_ratio", "dyadic.grid_floor", None),
    ("martlab.dyadic", "grid_floor_one_minus_log2_ratio", "dyadic.grid_floor", None),
    ("martlab.oracle", "count", "oracle.count", _witnesses),
    ("martlab.martingale", "verify_averaging", "martingale.verify_averaging", _nodes),
    ("martlab.martingale", "tree_csv", "martingale.tree_export", None),
    ("martlab.martingale", "tree_dot", "martingale.tree_export", None),
    ("martlab.martingale", "success_scan", "martingale.success_scan", _success_levels),
    ("martlab.martingale", "empirical_dimension", "martingale.empirical_dimension",
     _dimension_levels),
    ("martlab.martingale", "diagonalize", "martingale.diagonalize", None),
    ("martlab.constructions", "cover_martingale", "constructions.build", None),
    ("martlab.constructions", "condexp_martingale", "constructions.build", None),
    ("martlab.constructions", "subset_martingale", "constructions.build", None),
    ("martlab.constructions", "acceptance_martingale", "constructions.build", None),
    ("martlab.constructions", "biimmunity_martingale", "constructions.build", None),
    ("martlab.kolmogorov", "kt_cover_martingale", "constructions.build", None),
    ("martlab.combinators", "sum_family", "combinators.sum_family", None),
    ("martlab.machine", "run", "machine.run", _program),
    ("martlab.kolmogorov", "build_kt_table", "kolmogorov.build_kt_table", _kt_build),
    ("martlab.kolmogorov", "load_kt_table", "kolmogorov.load_kt_table", None),
    ("martlab.kolmogorov", "save_kt_table", "kolmogorov.save_kt_table", None),
    ("martlab.kolmogorov", "short_program_counts", "kolmogorov.short_program_counts", None),
    ("martlab.kolmogorov", "k_rate", "kolmogorov.k_rate", None),
    ("martlab.circuits", "build_census", "circuits.build_census", _census_build),
    ("martlab.circuits", "load_census", "circuits.load_census", None),
    ("martlab.circuits", "save_census", "circuits.save_census", None),
    ("martlab.circuits", "mcsp", "circuits.mcsp", None),
    ("martlab.circuits", "mnp_cover_check", "circuits.mnp_cover_check", None),
    ("martlab.entropy", "mc_certificate", "entropy.mc_certificate", None),
    ("martlab.entropy", "level_count", "entropy.level_count", None),
    ("martlab.config", "load_config", "config.load", None),
    ("martlab.config", "build_construction", "config.load", None),
    ("martlab.config", "build_family", "config.load", None),
    ("martlab.config", "build_modulus", "config.load", None),
    ("martlab.config", "build_certify", "config.load", None),
    ("martlab.cli", "main", "cli.main", None),
)

# (module, class, method, span name) -- a name of None means "count only"
METHODS = (
    ("martlab.cantor", "LanguageView", "contains", "cantor.contains"),
    ("martlab.cantor", "LanguageView", "contains_index", "cantor.contains"),
    ("martlab.combinators", "ApproxSupermartingale", "verify_averaging_exact",
     "combinators.approx_verify"),
    ("martlab.kolmogorov", "KtTable", "lookup", None),
    ("martlab.circuits", "CircuitCensus", "min_size", None),
)

# (module, attribute, counter) -- called too often to open a span each time
COUNTED = (("martlab.cantor", "string_index", "cantor.string_index.calls"),)

# (module, attribute, counter prefix, build counter) -- cache hit accounting
CACHES = (
    ("martlab.kolmogorov", "cached_kt_table", "kolmogorov.cache", "kolmogorov.builds"),
    ("martlab.circuits", "cached_census", "circuits.cache", "circuits.builds"),
)


def _modules():
    return [importlib.import_module(name) for name in MODULES]


def originals() -> list:
    """Every object the tracer replaces, read from its defining module."""
    objs = []
    for mod, attr, *_ in SPANS + COUNTED + CACHES:
        objs.append(getattr(sys.modules[mod], attr))
    for mod, cls, meth, _ in METHODS:
        objs.append(getattr(sys.modules[mod], cls).__dict__[meth])
    objs.append(sys.modules["martlab.martingale"].Martingale.__dict__["value"])
    return objs


def assert_pristine() -> None:
    """Raise unless every traced entry point is the original object in its
    defining module and in every module that imported it (for example
    ``martlab.kolmogorov.run is martlab.machine.run``)."""
    modules = _modules()
    for obj in originals():
        if getattr(obj, _MARK, False):
            raise RuntimeError(f"traced wrapper left installed: {obj!r}")
    for mod, attr, *_ in SPANS + COUNTED + CACHES:
        for m in modules:
            if getattr(vars(m).get(attr), _MARK, False):
                raise RuntimeError(f"{m.__name__}.{attr} is not {mod}.{attr}")


class Installation:
    """The wrappers installed for one tracer, and how to undo them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def _rebind(self, orig, wrapper) -> None:
        for m in _modules():
            for key, val in list(vars(m).items()):
                if val is orig:
                    self.saved.append((m, key, orig))
                    setattr(m, key, wrapper)

    def _patch(self, cls, meth: str, wrapper) -> None:
        self.saved.append((cls, meth, cls.__dict__[meth]))
        setattr(cls, meth, wrapper)

    def install(self) -> None:
        t = self.tracer
        for mod, attr, name, counter in SPANS:
            orig = getattr(sys.modules[mod], attr)
            self._rebind(orig, _span(t, orig, name, counter))
        for mod, attr, counter in COUNTED:
            orig = getattr(sys.modules[mod], attr)
            self._rebind(orig, _counted(t, orig, counter))
        for mod, attr, prefix, builds in CACHES:
            orig = getattr(sys.modules[mod], attr)
            self._rebind(orig, _cache(t, orig, prefix, builds))
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[mod], cls_name)
            orig = cls.__dict__[meth]
            if name is None:
                wrapper = _counted(t, orig, f"{mod.split('.')[-1]}.{meth}.calls")
            else:
                wrapper = _span(t, orig, name, None)
            self._patch(cls, meth, wrapper)
        martingale = sys.modules["martlab.martingale"].Martingale
        self._patch(martingale, "value", _value(t, martingale.__dict__["value"]))

    def restore(self) -> None:
        for owner, key, orig in reversed(self.saved):
            setattr(owner, key, orig)
        for owner, key, orig in self.saved:
            current = vars(owner)[key]
            if current is not orig:
                raise RuntimeError(f"could not restore {owner!r}.{key}")
        self.saved.clear()


def _mark(wrapper):
    setattr(wrapper, _MARK, True)
    return wrapper


def _span(t: Tracer, fn, name: str, counter):
    nid = t.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = t.call(nid, fn, args, kwargs)
        if counter is not None:
            counter(t.counts, args, kwargs, result)
        return result

    return _mark(wrapper)


def _counted(t: Tracer, fn, key: str):
    counts = t.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return _mark(wrapper)


def _cache(t: Tracer, fn, prefix: str, builds: str):
    counts = t.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = counts[builds]
        result = fn(*args, **kwargs)
        # calls without a cache directory build in memory and are not lookups
        cache_dir = args[2] if len(args) > 2 else kwargs.get("cache_dir")
        if cache_dir is not None:
            counts[f"{prefix}.lookups"] += 1
            if counts[builds] == before:
                counts[f"{prefix}.hits"] += 1
        return result

    return _mark(wrapper)


def _value(t: Tracer, fn):
    """``Martingale.value`` as a span named after ``meta["construction"]``."""
    ids = {kind: t.name_id(f"constructions.{kind}.value") for kind in KINDS}
    other = t.name_id("constructions.other.value")
    counts = t.counts

    @functools.wraps(fn)
    def value(self, w):
        counts["martingale.value.calls"] += 1
        nid = ids.get(self.meta.get("construction"), other)
        return t.call(nid, fn, (self, w), {})

    return _mark(value)
