"""Row kernels against the per-node walk they replaced.

``verify_averaging`` and the tree dumps read each construction a level at a
time, as integer rows (:func:`martlab.martingale.levels`).  Their twin in
``node_walk`` evaluates ``m.value`` at every node as a ``Dyadic`` and
compares values one node at a time.  For every construction kind, the two
must give the same report (violations, unfrozen nodes), the same CSV, JSON
and DOT text and the same golden-tree mismatches, on passing trees and on
hand-corrupted ones.
"""

import random
from functools import partial

import pytest

import node_walk
from martlab.cantor import BitString, LanguageView, all_strings
from martlab.circuits import mcsp_cover
from martlab.combinators import (
    MartingaleFamily,
    aggregate_martingale,
    approx_supermartingale,
    geometric_modulus,
    scale_pow2,
    sum_finite,
)
from martlab.constructions import (
    AcceptanceSpec,
    Cover,
    acceptance_martingale,
    biimmunity_martingale,
    condexp_martingale,
    cover_martingale,
    subset_martingale,
)
from martlab.dyadic import Dyadic, ONE
from martlab.errors import NegativeValue
from martlab.golden import (
    FIGURE_DEPTH,
    GOLDEN_TREES,
    build_figure,
    figure_ids,
    golden_mismatches,
)
from martlab.kolmogorov import kt_cover_martingale
from martlab.martingale import (
    Martingale,
    tree_csv,
    tree_dot,
    tree_json,
    verify_averaging,
)
from martlab.oracle import explicit_set_relation, sat_relation


def twin_report(m: Martingale, depth: int, value=None):
    return node_walk.averaging_report(
        value or m.value, depth, m.supermartingale, m.freeze_depth
    )


def assert_same_as_twin(m: Martingale, depth: int, value=None):
    """The row walks of ``m`` against the twins that read ``value`` at
    every node, ``m.value`` unless a table that breaks its declared freeze
    gives its own: ``m.value`` stops at the freeze depth."""
    value = value or m.value
    report = verify_averaging(m, depth)
    assert report == twin_report(m, depth, value)
    assert node_walk.dumped(tree_csv, m, depth) == node_walk.tree_csv(value, depth)
    assert node_walk.dumped(tree_json, m, depth) == node_walk.tree_json(value, depth)
    assert node_walk.dumped(tree_dot, m, depth) == node_walk.tree_dot(value, depth)
    return report


def _language(rnd: random.Random, horizon: int) -> LanguageView:
    members = [i for i in range(horizon) if rnd.random() < 0.4]
    return LanguageView.from_indices(members, horizon)


def _members(rnd: random.Random, n: int) -> list[BitString]:
    return [BitString.from_int(v, n) for v in range(1 << n) if rnd.random() < 0.3]


def _cover_sum(rnd):
    a = cover_martingale(Cover.from_members(_members(rnd, 3), 3))
    b = condexp_martingale({v: v.bit_count() for v in range(16)}, 4)
    return sum_finite(a, scale_pow2(b, -2))


def _family_sum(rnd):
    covers = [Cover.from_members(_members(rnd, n), n) for n in range(4)]
    fam = MartingaleFamily(
        lambda n: cover_martingale(covers[n]),
        lambda n: ONE,
        "covers",
        support=tuple(range(4)),
    )
    return aggregate_martingale(fam, geometric_modulus(ONE))


def _gap_spec(rnd):
    t = rnd.randrange(0, 3)
    table = {}

    def g(i):
        if i not in table:
            table[i] = rnd.randrange((1 << t) + 1)
        return table[i]

    return AcceptanceSpec.from_gap(g, lambda n: t)


# kind -> (construction, depths): each builder takes (rnd, census2, budget)
KINDS = {
    "explicit": (lambda rnd, c, b: cover_martingale(
        Cover.from_members(_members(rnd, 5), 5)), (0, 3, 5, 8)),
    "explicit-level-0": (lambda rnd, c, b: cover_martingale(
        Cover.from_members([""], 0)), (0, 2)),
    "predicate": (lambda rnd, c, b: cover_martingale(
        Cover.from_predicate(lambda x: x.to_int().bit_count() % 3 == 1, 5)), (4, 7)),
    "relation-exists": (lambda rnd, c, b: cover_martingale(
        Cover.from_relation(sat_relation(2), 4, "exists")), (4, 6)),
    "relation-unique": (lambda rnd, c, b: cover_martingale(
        Cover.from_relation(
            explicit_set_relation("set", _members(rnd, 4)), 4, "unique"
        )), (4, 6)),
    "condexp": (lambda rnd, c, b: condexp_martingale(
        {v: v * 7 % 5 for v in range(32)}, 5), (2, 5, 7)),
    "subset": (lambda rnd, c, b: subset_martingale(_language(rnd, 6), 6), (6, 8)),
    "mcsp": (lambda rnd, c, b: cover_martingale(mcsp_cover(2, 2, c)), (7, 8)),
    "kt-cover": (lambda rnd, c, b: kt_cover_martingale(6, 1, b), (6, 8)),
    "acceptance": (lambda rnd, c, b: acceptance_martingale(
        AcceptanceSpec.biased(_language(rnd, 64), 3, 2)), (0, 6)),
    "gap-acceptance": (lambda rnd, c, b: acceptance_martingale(
        _gap_spec(rnd)), (6,)),
    "biimmunity": (lambda rnd, c, b: biimmunity_martingale(
        _language(rnd, 64)), (6,)),
    "sum-scale": (lambda rnd, c, b: _cover_sum(rnd), (3, 6)),
    "family-sum": (lambda rnd, c, b: _family_sum(rnd), (5,)),
}


@pytest.mark.parametrize("kind", KINDS)
def test_rows_match_the_per_node_walk(kind, census2, budget):
    build, depths = KINDS[kind]
    for seed in range(3):
        m = build(random.Random(seed), census2, budget)
        for depth in depths:
            report = assert_same_as_twin(m, depth)
            assert report.passed and report.frozen, (kind, seed, depth)


# what each kind's meta names: bench/spans.py reads meta["construction"] to
# name the span of every value call, and meta holds nothing else
META_KIND = {"explicit": "cover", "explicit-level-0": "cover", "predicate": "cover",
             "relation-exists": "cover", "relation-unique": "cover", "mcsp": "cover",
             "gap-acceptance": "acceptance", "sum-scale": "sum"}


@pytest.mark.parametrize("kind", KINDS)
def test_meta_is_the_construction_kind(kind, census2, budget):
    m = KINDS[kind][0](random.Random(0), census2, budget)
    assert m.meta == {"construction": META_KIND.get(kind, kind)}


# KINDS and the package's other producers of a counting form: a constant,
# a scaling up (sum-scale scales down) and the transform's scaled form
FORMS = {
    **{kind: build for kind, (build, _) in KINDS.items()},
    "constant": lambda rnd, c, b: Martingale.constant(Dyadic(5, 3)),
    "scale-up": lambda rnd, c, b: scale_pow2(
        condexp_martingale({v: v.bit_count() for v in range(8)}, 3), 2),
    "approx": lambda rnd, c, b: _approx_scaled(rnd),
}


def _approx_scaled(rnd) -> Martingale:
    form = cover_martingale(Cover.from_members(_members(rnd, 4), 4)).ratio

    def h(x):
        return form.numerator(x) + rnd.choice([-1, 0, 1]) * (form.numerator(x) // 4)

    return approx_supermartingale(form, h, 4).scaled


@pytest.mark.parametrize("kind", FORMS)
def test_row_entries_are_the_node_form(kind, census2, budget):
    """Entry ``i`` of row ``k``, over the row's log-denominator, is where
    the kernel's walk to the ``i``-th length-``k`` string ends (the root is
    the capital, in lowest terms) and the value there; a leveled form's
    count there is the entry itself."""
    m = FORMS[kind](random.Random(0), census2, budget)
    for k in range(7):
        nums, log_den = m.ratio.row(k)
        for w, num in zip(all_strings(k), nums):
            *_, walked = m.path(w)
            assert Dyadic(*walked) == Dyadic(num, log_den) == m.value(w), (kind, w)
            assert not k or walked == (num, log_den), (kind, w)
            if m.ratio.numerator is not None:
                assert m.ratio.numerator(w) == num, (kind, w)
    leveled = {kind for kind in FORMS if FORMS[kind](random.Random(0), census2, budget)
               .ratio.numerator is not None}
    assert leveled == set(KINDS) - {"acceptance", "gap-acceptance", "biimmunity",
                                    "sum-scale", "family-sum"}


def test_meta_of_the_scaled_and_approximate_forms():
    m = condexp_martingale({v: v.bit_count() for v in range(16)}, 4)
    assert scale_pow2(m, 3).meta == {"construction": "condexp"}
    # the transform's export is an approximation, which names no construction
    approx = approx_supermartingale(m.ratio, m.ratio.numerator, 4)
    assert not hasattr(approx.martingale, "meta")


def _table_value(rows, log_dens):
    """``rows[k][i] / 2**log_dens[k]`` at the ``i``-th length-``k`` string."""
    return lambda w: Dyadic(rows[len(w)][w.to_int()], log_dens[len(w)])


def _tabled(rows, log_dens, **kwargs):
    """The martingale taking :func:`_table_value` at every string."""
    return node_walk.tabled(_table_value(rows, log_dens), len(rows) - 1, **kwargs)


def _figure_rows():
    members = [0b0001, 0b0010, 0b0011, 0b0110, 0b1101]
    return [
        [sum(1 for v in members if v >> (4 - k) == i) for i in range(1 << k)]
        for k in range(5)
    ]


def test_violations_on_two_levels_match_the_twin():
    rows = _figure_rows()
    rows[1][1] += 1  # the root and node 1 now disagree with their children
    rows[3][5] += 2  # node 10 and node 101
    report = assert_same_as_twin(_tabled(rows, [4, 3, 2, 1, 0]), 4)
    assert [str(v.node) for v in report.violations] == ["", "1", "10", "101"]
    assert report.violations[1].parent_value == Dyadic(2, 3)
    assert report.violations[1].child_sum == Dyadic(1, 2)


def test_supermartingale_violations_match_the_twin():
    rows = _figure_rows()
    rows[1][0] += 1  # node 0 now exceeds its children (allowed), the root's half not
    rows[4][13] += 1  # leaf 1101 pushes node 110's children past it
    m = _tabled(rows, [4, 3, 2, 1, 0], supermartingale=True)
    report = assert_same_as_twin(m, 4)
    assert [str(v.node) for v in report.violations] == ["", "110"]


def test_freeze_violation_matches_the_twin():
    rows = _figure_rows() + [None]
    rows[5] = [c for c in rows[4] for _ in range(2)]
    rows[5][6] = 0  # leaf 0011 gives one child 0, which breaks the law there too
    m = _tabled(rows, [4, 3, 2, 1, 0, 0], freeze_depth=4)
    report = assert_same_as_twin(m, 5, _table_value(rows, [4, 3, 2, 1, 0, 0]))
    assert [str(v.node) for v in report.violations] == ["0011"]
    assert [str(w) for w in report.unfrozen] == ["0011"]


def test_negative_numerator_raises_the_same_message():
    rows = _figure_rows()
    rows[3][6] = -2
    m = _tabled(rows, [4, 3, 2, 1, 0])
    with pytest.raises(NegativeValue) as twin:
        twin_report(m, 4)
    dumps = [partial(node_walk.dumped, dump) for dump in (tree_csv, tree_json, tree_dot)]
    for check in (verify_averaging, *dumps):
        with pytest.raises(NegativeValue) as rows_error:
            check(m, 4)
        assert str(rows_error.value) == str(twin.value)
    assert str(twin.value) == "negative value -1 at BitString('110')"


def test_random_tables_match_the_twin():
    rnd = random.Random(16)
    for _ in range(300):
        depth = rnd.randrange(0, 6)
        log_dens = [rnd.randrange(0, 6) for _ in range(depth + 2)]
        rows = [[rnd.randrange(4) for _ in range(1 << k)] for k in range(depth + 2)]
        freeze = rnd.choice([None, rnd.randrange(depth + 2)])
        m = _tabled(
            rows, log_dens, freeze_depth=freeze, supermartingale=rnd.random() < 0.5
        )
        assert_same_as_twin(m, depth, _table_value(rows, log_dens))


def test_sums_of_mixed_denominators_match_the_twin():
    """Sums and scalings bring their members' rows to the largest
    log-denominator: a level-3 cover's ``2**(3-k)`` against a ``q = 2``
    acceptance martingale's ``2**(2k)``."""
    rnd = random.Random(61)
    for _ in range(10):
        cover = cover_martingale(Cover.from_members(_members(rnd, 3), 3))
        spec = AcceptanceSpec.biased(_language(rnd, 64), rnd.randrange(5), 2)
        accept = acceptance_martingale(spec)
        k = rnd.randrange(-3, 4)
        fam = MartingaleFamily(
            [cover, accept, scale_pow2(accept, k)].__getitem__,
            lambda n: ONE,
            "mixed",
            support=tuple(range(3)),
        )
        for m in (
            sum_finite(cover, accept),
            sum_finite(scale_pow2(accept, k), scale_pow2(cover, -k)),
            scale_pow2(sum_finite(accept, cover), k),
            aggregate_martingale(fam, geometric_modulus(ONE)),
        ):
            assert_same_as_twin(m, 5)


def _sup_twin(sup, depth: int) -> list[BitString]:
    report = node_walk.averaging_report(sup.exact_value, depth, supermartingale=True)
    return [violation.node for violation in report.violations]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_approx_verify_matches_the_rational_twin(n):
    rnd = random.Random(n)
    for trial in range(20):
        if trial % 2:
            # a cover's counts: a martingale, so the transform keeps the law
            members = _members(rnd, n)
            form = cover_martingale(Cover.from_members(members, n)).ratio
        else:
            # arbitrary counts: the relaxed law fails somewhere
            table = {str(w): rnd.randrange(8) for k in range(n + 1)
                     for w in all_strings(k)}
            form = node_walk.table_form(table, n)

        def h(x, f=form.numerator):
            fx = f(x)
            return fx + rnd.choice([-1, 0, 1]) * (fx // n)

        sup = approx_supermartingale(form, h, n)
        for depth in (n - 1, n, n + 2):
            assert sup.verify_averaging_exact(depth) == _sup_twin(sup, depth)


@pytest.mark.parametrize("fid", figure_ids())
def test_golden_mismatches_match_per_node_values(fid):
    assert golden_mismatches(fid, build_figure(fid)) == []
    other = build_figure(fid % 5 + 1)  # the next figure's tree, in this slot
    expected = [
        (w, GOLDEN_TREES[fid][w], str(v))
        for nodes, values in node_walk.levels(other.value, FIGURE_DEPTH)
        for w, v in zip(nodes, values)
        if str(v) != GOLDEN_TREES[fid][w]
    ]
    assert expected and golden_mismatches(fid, other) == expected
