"""Path kernels against the per-prefix evaluation they replaced.

``success_scan``, ``empirical_dimension``, ``diagonalize`` and the
diagonalize trace read a martingale along one path, in one walk of its
``RatioForm`` kernel (:meth:`martlab.martingale.Martingale.path`).  Their
twins in ``node_walk`` evaluate ``m.value`` at every prefix as a
``Dyadic``.  For every construction kind the two must give the same values
and the same reports, and where evaluation fails, the same exception with
the same message after the same prefixes.  Kernels compose: a scan over a
sum steps each member's kernel once per bit, so its cost is linear in the
scan's length.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import node_walk
from martlab.cantor import BitString, LanguageView, all_strings
from martlab.circuits import mcsp_cover
from martlab.combinators import scale_pow2, sum_finite
from martlab.constructions import (
    AcceptanceSpec,
    Cover,
    _products,
    acceptance_martingale,
    biimmunity_martingale,
    cover_martingale,
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
    SuccessReport,
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


def _scan(m: Martingale, S: BitString, s: Dyadic) -> SuccessReport:
    """``success_scan``'s report with each value pair as a ``Dyadic``, as the
    twin reports it."""
    report = success_scan(m, S, s)
    return replace(report, values=tuple(Dyadic(*p) for p in report.values))


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
                assert _scan(m, S, s) == node_walk.success_scan(m.value, S, s)
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
    report = _scan(m, S, half)
    assert report == node_walk.success_scan(m.value, S, half)
    assert report.values[40] == Dyadic(1 << 20)
    assert set(range(0, 65, 2)) <= report.success_levels
    # at s = 1 the threshold is 1, met by every value of a dominating S
    assert success_scan(m, S, Dyadic(1)).success_levels == frozenset(range(65))
    assert empirical_dimension(m, S) == node_walk.empirical_dimension(m.value, S)


def test_covers_past_the_enumeration_cap_scan_from_their_counts(census3):
    """An explicit cover at level 30 and an mcsp cover at level 15 have no
    row to read at their level; their scans count each prefix, as the twin
    does, and keep the level's value past it."""
    rnd = random.Random(30)
    members = [BitString.from_int(rnd.getrandbits(30), 30) for _ in range(40)]
    for cover, member in (
        (Cover.from_members(members, 30), members[0]),
        (mcsp_cover(3, 4, census3), BitString("0" * 15)),  # a constant table
    ):
        m, level = cover_martingale(cover), cover.level
        assert cover.contains(member)

        def value(w, cover=cover, level=level):
            return Dyadic(cover.count(w.prefix(level)), max(0, level - len(w)))

        N = level + 4
        assert _diagonal_trace(m, N) == node_walk.diagonalize(value, N)
        for S in (_sequence(rnd, N), member + _sequence(rnd, 4)):
            for s in EXPONENTS:
                assert _scan(m, S, s) == node_walk.success_scan(value, S, s)


def _negative_gap(i: int) -> int:
    return 9 if i == 5 else 3  # 9 > 2**3 makes f(i, 0) negative


def _row_sum_break(i: int) -> tuple[int, int]:
    return (3, 3) if i == 7 else (2, 2)  # rows of 2**2, except 3 + 3 at index 7


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
    nums = [4, 2, -2, 6]  # one numerator per level, over 2**k at level k

    def kernel():
        for k in range(1, 4):
            yield nums[k], nums[k], k

    m = Martingale.from_ratio(lambda k: ([nums[k]] * (1 << k), k), kernel)
    S = BitString("111")
    twin = _until_raised(m.value(S.prefix(n)) for n in range(4))
    assert twin[1] == "NegativeValue: negative value -1/2 at BitString('11')"
    assert _until_raised(Dyadic(*p) for p in m.path(S)) == twin


def test_diagonalize_raises_where_path_and_value_do():
    # the 1-child is the smaller, and negative: the walk to it must raise
    values = {"": Dyadic(2), "0": Dyadic(5), "1": Dyadic(-1)}
    m = node_walk.tabled(lambda w: values[str(w)], 1)
    for read in (
        lambda: m.value(BitString("1")),
        lambda: list(m.path(BitString("1"))),
        lambda: diagonalize(m, 1),
    ):
        with pytest.raises(NegativeValue) as raised:
            read()
        assert str(raised.value) == "negative value -1 at BitString('1')"


def test_sum_kernel_compares_children_over_their_larger_denominator():
    """Tables in lowest terms give each level, and each summand, its own
    log-denominator; a sum's kernel brings the members' children to the
    larger before the diagonal picks between them."""
    rnd = random.Random(61)
    for _ in range(50):
        tables = [
            {str(w): Dyadic(rnd.randrange(6), rnd.randrange(4))
             for k in range(6) for w in all_strings(k)}
            for _ in range(2)
        ]
        a, b = (node_walk.tabled(lambda w, t=t: t[str(w)], 5) for t in tables)
        k = rnd.randrange(-2, 3)
        m = sum_finite(a, scale_pow2(b, k))

        def value(w):
            a, b = (node_walk.as_fraction(t[str(w)]) for t in tables)
            return node_walk.as_dyadic(a + b * Fraction(2) ** k)

        assert _diagonal_trace(m, 5) == node_walk.diagonalize(value, 5)
        S = _sequence(rnd, 5)
        assert _scan(m, S, Dyadic(1, 1)) == node_walk.success_scan(
            value, S, Dyadic(1, 1)
        )


@pytest.mark.parametrize("kind", ["acceptance", "gap-acceptance", "biimmunity"])
def test_product_scans_do_not_fall_back_to_value(kind):
    """Each scan steps the kernel once per bit, in one walk (the diagonal
    trace in two); a value read at each prefix would walk from the root
    every time."""
    steps = []
    m = node_walk.stepped(KINDS[kind][0](random.Random(0), None, None), steps)
    S = _sequence(random.Random(1), 64)
    for scan, walks in (
        (lambda: success_scan(m, S, Dyadic(1, 1)), 1),
        (lambda: empirical_dimension(m, S), 1),
        (lambda: _diagonal_trace(m, 64), 2),
    ):
        steps.clear()
        scan()
        assert len(steps) == 64 * walks, kind
    steps.clear()
    m.value(S)
    assert len(steps) == 64


@pytest.mark.parametrize("n", [100, 200, 400])
def test_scans_over_a_composed_form_are_linear(n):
    """A scan over a sum of products, one of them scaled, asks each product
    for a constant number of factor pairs per bit; a kernel that evaluated
    both children's node forms at each prefix would ask for ``n**2 / 2``."""
    calls = {"a": [], "b": []}

    def factors(name, odds):
        def counted(i):
            calls[name].append(i)
            return odds

        return counted

    a = _products(factors("a", (3, 5, 2)))
    b = _products(factors("b", (1, 3, 1)))
    m = sum_finite(a, scale_pow2(b, 1))
    S = _sequence(random.Random(n), n)
    for scan in (
        lambda: success_scan(m, S, Dyadic(1, 1)),
        lambda: diagonalize(m, n),
        lambda: empirical_dimension(m, S),
    ):
        for member in calls.values():
            member.clear()
        scan()
        assert all(len(member) <= 2 * n for member in calls.values()), (
            n, {name: len(member) for name, member in calls.items()}
        )


@pytest.mark.parametrize("kind", KINDS)
def test_scans_build_a_dyadic_only_per_reported_value(kind, census2, budget, monkeypatch):
    """A success scan builds no ``Dyadic``: it reports its walk's pairs.  A
    dimension report builds at most one per grid floor, ``|S|``: the walk,
    the threshold comparisons and the floors read integer pairs."""
    rnd = random.Random(5)
    m = KINDS[kind][0](rnd, census2, budget)
    S = _sequence(rnd, 40)
    success_scan(m, S, Dyadic(1, 1))  # fills the form's lazy tables first
    built = []
    init = Dyadic.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Dyadic, "__init__", counted)
    for s in EXPONENTS:
        built.clear()
        success_scan(m, S, s)
        assert not built, (kind, s)
    built.clear()
    empirical_dimension(m, S)
    assert len(built) <= len(S), kind
