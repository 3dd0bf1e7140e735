from fractions import Fraction

import pytest

import node_walk

from martlab.cantor import BitString, EMPTY, LanguageView
from martlab.constructions import (
    AcceptanceSpec,
    Cover,
    acceptance_martingale,
    cover_martingale,
)
from martlab.dyadic import Dyadic, ONE, ZERO
from martlab.errors import CapExceeded, NegativeValue
from martlab.martingale import (
    LEVEL_CAP,
    Martingale,
    diagonalize,
    empirical_dimension,
    levels,
    success_scan,
    tree_csv,
    tree_dot,
    verify_averaging,
)


def figure_cover():
    return cover_martingale(
        Cover.from_members(["0001", "0010", "0011", "0110", "1101"], 4)
    )


def marked():
    return LanguageView.from_indices([1, 3], horizon=16)


def table_martingale(values: dict, **kwargs) -> Martingale:
    depth = max(map(len, values))
    return node_walk.tabled(lambda w: values[str(w)], depth, **kwargs)


def test_averaging_pass_on_figure_cover():
    assert verify_averaging(figure_cover(), 4).passed


def test_averaging_pass_constant():
    assert verify_averaging(Martingale.constant(ONE), 7).passed


def figure_cover_table() -> dict:
    return {
        str(w): v
        for nodes, values in node_walk.levels(figure_cover().value, 4)
        for w, v in zip(nodes, values)
    }


def test_levels_index_order_and_single_evaluation():
    calls = []

    def value(w):
        calls.append(w)
        return Fraction(len(w), 3)

    walk = list(node_walk.levels(value, 3))
    assert [len(nodes) for nodes, _ in walk] == [1, 2, 4, 8]
    for k, (nodes, values) in enumerate(walk):
        assert [str(w) for w in nodes] == [
            format(i, f"0{k}b") if k else "" for i in range(1 << k)
        ]
        assert values == [Fraction(k, 3)] * len(nodes)
    # the children of nodes[i] sit at 2i and 2i+1 one level down
    parents, children = walk[2][0], walk[3][0]
    for i, w in enumerate(parents):
        assert (children[2 * i], children[2 * i + 1]) == (w.append(0), w.append(1))
    assert len(calls) == len(set(calls)) == 15


@pytest.mark.parametrize(
    "build, depth",
    [(figure_cover, 6), (lambda: table_martingale(figure_cover_table()), 4)],
    ids=["row-kernel", "per-node"],
)
def test_levels_rows_hold_each_node_value_in_index_order(build, depth):
    m = build()
    rows = list(levels(m, depth))
    assert [k for k, _, _ in rows] == list(range(depth + 1))
    for k, nums, log_den in rows:
        assert len(nums) == 1 << k
        assert [Dyadic(num, log_den) for num in nums] == [
            m.value(BitString.from_int(i, k)) for i in range(1 << k)
        ]


def test_levels_refuse_a_depth_past_the_cap():
    m = figure_cover()
    assert next(levels(m, LEVEL_CAP))[0] == 0
    for depth, walk in ((LEVEL_CAP + 1, lambda d: next(levels(m, d))),
                        (LEVEL_CAP + 1, lambda d: verify_averaging(m, d)),
                        (40, lambda d: node_walk.dumped(tree_csv, m, d))):
        with pytest.raises(CapExceeded, match=f"^depth {depth} exceeds enumeration cap 22"):
            walk(depth)


def plus_one(v: Dyadic) -> Dyadic:
    """``v + 1``, added as the integer pair ``(num + 2**log_den, log_den)``."""
    return Dyadic(v.num + (1 << v.log_den), v.log_den)


def test_averaging_localizes_corruption():
    values = figure_cover_table()
    values["0010"] = plus_one(values["0010"])  # perturb one leaf
    report = verify_averaging(table_martingale(values), 4)
    assert [str(v.node) for v in report.violations] == ["001"]


def test_averaging_violations_in_level_then_lex_order():
    values = figure_cover_table()
    values["0010"] = plus_one(values["0010"])  # a leaf under the 0-branch
    values["10"] = plus_one(values["10"])  # a level-2 node under the 1-branch
    report = verify_averaging(table_martingale(values), 4)
    # depth-first order would give 001, 1, 10 and string order the same
    assert [str(v.node) for v in report.violations] == ["1", "10", "001"]


def test_freeze_violation_reported():
    values = {"": ONE, "0": ONE, "1": ONE, "00": Dyadic(1, 1),
              "01": Dyadic(3, 1), "10": ONE, "11": ONE}
    m = table_martingale(values, freeze_depth=1)
    report = verify_averaging(m, 2)
    assert report.passed  # the averaging law itself holds
    assert report.freeze_depth == 1
    assert [str(w) for w in report.unfrozen] == ["0"]
    assert not report.frozen
    # a freeze at or below the checked depth is not checked
    assert verify_averaging(m, 1).freeze_depth is None


def test_supermartingale_relaxation():
    def halving(w):
        return Dyadic.pow2(-len(w))

    strict = node_walk.tabled(halving, 4, supermartingale=True)
    assert verify_averaging(strict, 4).passed
    as_martingale = node_walk.tabled(halving, 4)
    assert not verify_averaging(as_martingale, 4).passed


def test_negative_value_rejected():
    bad = node_walk.tabled(lambda w: Dyadic(-1) if len(w) == 2 else ONE, 2)
    with pytest.raises(NegativeValue):
        bad.value(BitString("00"))


def test_constant_value_takes_no_kernel_step():
    steps = []
    m = node_walk.stepped(Martingale.constant(Dyadic(5, 3)), steps)
    for w in ("", "0", "0110" * 8):
        assert m.value(BitString(w)) == Dyadic(5, 3)
    assert steps == []
    assert [Dyadic(*p) for p in m.path(BitString("01"))] == [Dyadic(5, 3)] * 3
    assert steps == [None, 0]


def test_success_scan_constant_one():
    m = Martingale.constant(ONE)
    S = BitString("010101")
    at_one = success_scan(m, S, Dyadic(1))
    assert at_one.success_levels == frozenset(range(7))
    at_half = success_scan(m, S, Dyadic(1, 1))
    assert at_half.success_levels == frozenset({0})
    assert at_half.unitary_hit == 0


def test_success_scan_acceptance_path():
    m = acceptance_martingale(AcceptanceSpec.biased(marked(), 3, 2))
    S = BitString("0101")
    # at s = 0 the (3/2)^n path never reaches 2^n past the root
    report = success_scan(m, S, Dyadic(0))
    assert report.success_levels == frozenset({0})
    # s just above 1 - log2(3/2): all levels pass; just below: none past root
    above = Dyadic(425, 10)
    below = Dyadic(424, 10)
    assert success_scan(m, S, above).success_levels == frozenset(range(5))
    assert success_scan(m, S, below).success_levels == frozenset({0})
    assert tuple(Dyadic(*p) for p in report.values) == (
        ONE,
        Dyadic(3, 1),
        Dyadic(9, 2),
        Dyadic(27, 3),
        Dyadic(81, 4),
    )


def test_diagonalize_ties_go_left():
    assert str(diagonalize(Martingale.constant(ONE), 5)) == "00000"


def test_diagonalize_zero_length():
    assert diagonalize(figure_cover(), 0) == EMPTY


def test_diagonalize_figure_cover():
    m = figure_cover()
    w = diagonalize(m, 4)
    trace = [m.value(w.prefix(k)) for k in range(5)]
    assert all(trace[i + 1] <= trace[i] for i in range(4))
    assert trace[-1] <= Dyadic(5, 4)


def test_empirical_dimension_doubler():
    # capital 2^n along the all-ones path: both statistics 0
    always_right = acceptance_martingale(
        AcceptanceSpec(counts=lambda i: (0, 4), q=lambda n: 2)
    )
    report = empirical_dimension(always_right, BitString("1111"))
    assert report.best == ZERO and report.worst == ZERO


def test_empirical_dimension_constant():
    report = empirical_dimension(Martingale.constant(ONE), BitString("0000"))
    assert report.best == ONE and report.worst == ONE


def test_empirical_dimension_acceptance_path():
    m = acceptance_martingale(AcceptanceSpec.biased(marked(), 3, 2))
    report = empirical_dimension(m, BitString("0101"))
    # every level sits at 1 - log2(3/2); the grid floor of that is 424/1024
    assert report.best == Dyadic(424, 10)
    assert report.worst == Dyadic(424, 10)
    # grid value brackets the irrational target: 424 <= 1024*(1 - log2(3/2)) < 425
    assert Fraction(3, 2) ** 1024 <= Fraction(2) ** 600
    assert Fraction(3, 2) ** 1024 > Fraction(2) ** 599


def test_empirical_dimension_zero_sentinel():
    m = figure_cover()
    report = empirical_dimension(m, BitString("1000"))
    assert report.levels[-1] is None  # dead branch
    assert report.worst is None
    assert report.best is not None


def test_tree_csv_shape():
    text = node_walk.dumped(tree_csv, figure_cover(), 2)
    lines = text.strip().splitlines()
    assert lines[0] == "node,value"
    assert len(lines) == 1 + 1 + 2 + 4
    assert lines[1] == "λ,5/16"


def test_tree_dot_highlights_unit_leaves():
    text = node_walk.dumped(tree_dot, figure_cover(), 4)
    assert '"0001" [label="1", style=filled' in text
    assert '"0000" [label="0"]' in text
