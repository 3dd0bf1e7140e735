from fractions import Fraction

import pytest

from martlab.cantor import BitString, EMPTY, LanguageView
from martlab.constructions import (
    AcceptanceSpec,
    Cover,
    acceptance_martingale,
    cover_martingale,
)
from martlab.dyadic import Dyadic, ONE, ZERO
from martlab.errors import NegativeValue
from martlab.martingale import (
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


def table_martingale(values: dict) -> Martingale:
    return Martingale.from_exact(lambda w: values[str(w)])


def test_averaging_pass_on_figure_cover():
    assert verify_averaging(figure_cover(), 4).passed


def test_averaging_pass_constant():
    assert verify_averaging(Martingale.constant(ONE), 7).passed


def figure_cover_table() -> dict:
    return {
        str(w): v
        for nodes, values in levels(figure_cover().value, 4)
        for w, v in zip(nodes, values)
    }


def test_levels_index_order_and_single_evaluation():
    calls = []

    def value(w):
        calls.append(w)
        return Fraction(len(w), 3)

    walk = list(levels(value, 3))
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


def test_averaging_localizes_corruption():
    values = figure_cover_table()
    values["0010"] = values["0010"] + ONE  # perturb one leaf
    report = verify_averaging(table_martingale(values), 4)
    assert [str(v.node) for v in report.violations] == ["001"]


def test_averaging_violations_in_level_then_lex_order():
    values = figure_cover_table()
    values["0010"] = values["0010"] + ONE  # a leaf under the 0-branch
    values["10"] = values["10"] + ONE  # a level-2 node under the 1-branch
    report = verify_averaging(table_martingale(values), 4)
    # depth-first order would give 001, 1, 10 and string order the same
    assert [str(v.node) for v in report.violations] == ["1", "10", "001"]


def test_freeze_violation_reported():
    values = {"": ONE, "0": ONE, "1": ONE, "00": Dyadic(1, 1),
              "01": Dyadic(3, 1), "10": ONE, "11": ONE}
    m = Martingale.from_exact(lambda w: values[str(w)], freeze_depth=1)
    report = verify_averaging(m, 2)
    assert report.passed  # the averaging law itself holds
    assert report.freeze_depth == 1
    assert [str(w) for w in report.unfrozen] == ["0"]
    assert not report.frozen
    # a freeze at or below the checked depth is not checked
    assert verify_averaging(m, 1).freeze_depth is None


def test_supermartingale_relaxation():
    strict = Martingale.from_exact(
        lambda w: Dyadic.pow2(-len(w)), supermartingale=True
    )
    assert verify_averaging(strict, 4).passed
    as_martingale = Martingale.from_exact(lambda w: Dyadic.pow2(-len(w)))
    assert not verify_averaging(as_martingale, 4).passed


def test_negative_value_rejected():
    bad = Martingale.from_exact(
        lambda w: Dyadic(-1) if len(w) == 2 else ONE
    )
    with pytest.raises(NegativeValue):
        bad.value(BitString("00"))


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
    assert report.values == (
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
        AcceptanceSpec(
            f=lambda x, b: 4 if b == 1 else 0, q=lambda n: 2
        )
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
    assert report.has_infinite_level
    assert report.worst is None
    assert report.best is not None


def test_tree_csv_shape():
    text = tree_csv(figure_cover(), 2)
    lines = text.strip().splitlines()
    assert lines[0] == "node,value"
    assert len(lines) == 1 + 1 + 2 + 4
    assert lines[1] == "λ,5/16"


def test_tree_dot_highlights_unit_leaves():
    text = tree_dot(figure_cover(), 4)
    assert '"0001" [label="1", style=filled' in text
    assert '"0000" [label="0"]' in text


def test_approx_consistency_default():
    m = figure_cover()
    for r in (0, 5, 30):
        assert m.value_approx(BitString("01"), r) == m.value(BitString("01"))
