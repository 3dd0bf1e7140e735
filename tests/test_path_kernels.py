"""Path kernels against the per-prefix evaluation they replaced.

``success_scan``, ``empirical_dimension``, ``diagonalize`` and the
diagonalize trace read a martingale along one path, in one pass of its
``RatioForm`` path kernel (:meth:`martlab.martingale.Martingale.path`).
Their twins in ``node_walk`` evaluate ``m.value`` at every prefix as a
``Dyadic``.  For every construction kind the two must give the same values
and the same reports, and where evaluation fails, the same exception with
the same message after the same prefixes.
"""

import random
from dataclasses import replace

import pytest

import node_walk
from martlab.cantor import BitString, LanguageView, all_strings
from martlab.constructions import (
    AcceptanceSpec,
    acceptance_martingale,
    biimmunity_martingale,
)
from martlab.dyadic import Dyadic
from martlab.errors import (
    HorizonExceeded,
    MartlabError,
    NegativeValue,
    RowSumViolation,
)
from martlab.martingale import (
    Martingale,
    diagonalize,
    empirical_dimension,
    success_scan,
)
from test_row_kernels import KINDS, _language

# the acceptance and bi-immunity languages stop at index 64
LENGTHS = (0, 1, 9, 33, 64)

EXPONENTS = [Dyadic.parse(t) for t in ("0", "1/4", "1/2", "3/4", "13/16", "1")]


def _sequence(rnd: random.Random, n: int) -> BitString:
    return BitString.from_int(rnd.getrandbits(n), n) if n else BitString()


def _path_values(m: Martingale, S: BitString) -> list[Dyadic]:
    return [Dyadic(num, log_den) for num, log_den in m.path(S)]


def _diagonal_trace(m: Martingale, N: int) -> tuple[BitString, list[Dyadic]]:
    w = diagonalize(m, N)
    return w, _path_values(m, w)


@pytest.mark.parametrize("kind", KINDS)
def test_path_matches_value_per_prefix(kind, census2, budget):
    for seed in range(3):
        rnd = random.Random(seed)
        m = KINDS[kind][0](rnd, census2, budget)
        for n in LENGTHS:  # past every kind's freeze depth
            S = _sequence(rnd, n)
            expected = [m.value(S.prefix(k)) for k in range(n + 1)]
            assert _path_values(m, S) == expected, (kind, seed, n)


@pytest.mark.parametrize("kind", KINDS)
def test_scans_match_the_per_prefix_twin(kind, census2, budget):
    for seed in range(3):
        rnd = random.Random(seed)
        m = KINDS[kind][0](rnd, census2, budget)
        for n in LENGTHS:
            S = _sequence(rnd, n)
            for s in EXPONENTS:
                assert success_scan(m, S, s) == node_walk.success_scan(m.value, S, s)
            if n:
                assert empirical_dimension(m, S) == node_walk.empirical_dimension(
                    m.value, S
                )
            assert _diagonal_trace(m, n) == node_walk.diagonalize(m.value, n)


def test_exact_ties_are_hits():
    # members at every even index: along a dominating S the value at an even
    # n is 2**(n/2), exactly the s = 1/2 threshold
    A = LanguageView.from_indices(range(0, 64, 2), horizon=64)
    m = biimmunity_martingale(A)
    S = BitString("1" * 64)
    half = Dyadic(1, 1)
    report = success_scan(m, S, half)
    assert report == node_walk.success_scan(m.value, S, half)
    assert report.values[40] == Dyadic(1 << 20)
    assert set(range(0, 65, 2)) <= report.success_levels
    # at s = 1 the threshold is 1, met by every value of a dominating S
    assert success_scan(m, S, Dyadic(1)).success_levels == frozenset(range(65))
    assert empirical_dimension(m, S) == node_walk.empirical_dimension(m.value, S)


def _negative_gap(i: int) -> int:
    return 9 if i == 5 else 3  # 9 > 2**3 makes f(i, 0) negative


def _row_sum_break(i: int, b: int) -> int:
    return 3 if i == 7 else 2  # rows of 2**2, except 3 + 3 at index 7


# each case builds a fresh martingale and the sequence it fails along
FAILURES = {
    "negative-gap-row": (
        lambda: acceptance_martingale(AcceptanceSpec.from_gap(_negative_gap, lambda n: 3)),
        NegativeValue,
    ),
    "row-sum": (
        lambda: acceptance_martingale(AcceptanceSpec(_row_sum_break, lambda n: 2)),
        RowSumViolation,
    ),
    "acceptance-horizon": (
        lambda: acceptance_martingale(
            AcceptanceSpec.biased(_language(random.Random(3), 11), 3, 2)
        ),
        HorizonExceeded,
    ),
    "biimmunity-horizon": (
        lambda: biimmunity_martingale(_language(random.Random(4), 11)),
        HorizonExceeded,
    ),
}


def _until_raised(values) -> tuple[list, str]:
    seen = []
    try:
        for v in values:
            seen.append(v)
    except MartlabError as exc:
        return seen, f"{type(exc).__name__}: {exc}"
    return seen, ""


@pytest.mark.parametrize("case", FAILURES)
def test_failures_raise_at_the_same_prefix(case):
    build, error = FAILURES[case]
    S = BitString("1101" * 5)
    twin, twin_error = _until_raised(
        build().value(S.prefix(n)) for n in range(len(S) + 1)
    )
    path, path_error = _until_raised(
        Dyadic(num, log_den) for num, log_den in build().path(S)
    )
    assert path_error.startswith(error.__name__) and 1 < len(path) < len(S)
    assert (path, path_error) == (twin, twin_error)
    for scan, twin_scan in (
        (lambda m: success_scan(m, S, Dyadic(1, 1)),
         lambda m: node_walk.success_scan(m.value, S, Dyadic(1, 1))),
        (lambda m: empirical_dimension(m, S),
         lambda m: node_walk.empirical_dimension(m.value, S)),
        (lambda m: diagonalize(m, len(S)),
         lambda m: node_walk.diagonalize(m.value, len(S))),
    ):
        with pytest.raises(error) as raised:
            scan(build())
        with pytest.raises(error) as twin_raised:
            twin_scan(build())
        assert str(raised.value) == str(twin_raised.value)


def test_negative_kernel_value_raises_as_value_does():
    nums = [4, 2, -2, 6]  # along the all-ones path, one numerator per prefix

    def path(n, pick):
        for k in range(n + 1):
            yield nums[k], k
            if k < n:
                pick(0, 0)

    m = Martingale.from_ratio(
        lambda w: nums[len(w)],
        lambda w: len(w),
        lambda k: ([nums[k]] * (1 << k), k),
        path=path,
    )
    S = BitString("111")
    twin = _until_raised(m.value(S.prefix(n)) for n in range(4))
    assert twin[1] == "NegativeValue: negative value -1/2 at BitString('11')"
    assert _until_raised(Dyadic(*p) for p in m.path(S)) == twin


def test_node_kernel_compares_children_over_their_larger_denominator():
    """A node form kept in lowest terms gives the two children of a prefix
    different log-denominators; the node kernel brings them to the larger
    before it picks."""
    rnd = random.Random(61)
    for _ in range(50):
        table = {str(w): Dyadic(rnd.randrange(6), rnd.randrange(4))
                 for k in range(6) for w in all_strings(k)}

        def value(w, t=table):
            return t[str(w)]

        m = Martingale.from_ratio(
            lambda w: value(w).num,
            lambda w: value(w).log_den,
            node_walk.tabled(value, 5).ratio.row,
        )
        assert _diagonal_trace(m, 5) == node_walk.diagonalize(m.value, 5)


# a path kernel may evaluate a few nodes through the node form; the node
# kernel evaluates every prefix, 65 here, and each prefix's sibling
FEW_NODE_CALLS = 2


def _counted_nodes(m: Martingale, calls: list) -> Martingale:
    """``m`` with its kernels, but a node form that records each string."""

    def numerator(w):
        calls.append(w)
        return m.ratio.numerator(w)

    return replace(m, ratio=replace(m.ratio, numerator=numerator))


@pytest.mark.parametrize("kind", ["acceptance", "gap-acceptance", "biimmunity"])
def test_product_scans_do_not_fall_back_to_value(kind):
    calls = []
    m = _counted_nodes(KINDS[kind][0](random.Random(0), None, None), calls)
    S = _sequence(random.Random(1), 64)
    for scan in (
        lambda: success_scan(m, S, Dyadic(1, 1)),
        lambda: empirical_dimension(m, S),
        lambda: _diagonal_trace(m, 64),
    ):
        calls.clear()
        scan()
        assert len(calls) <= FEW_NODE_CALLS, (kind, len(calls))
    # the guard sees a form whose kernel is gone
    bare = Martingale.from_ratio(m.ratio.numerator, m.ratio.log_denominator, m.ratio.row)
    calls.clear()
    success_scan(bare, S, Dyadic(1, 1))
    assert len([w for w in calls if w.is_prefix_of(S)]) == len(S) + 1
