import random
from dataclasses import replace
from fractions import Fraction

import pytest

import node_walk

from martlab.cantor import BitString, EMPTY, all_strings
from martlab.combinators import (
    DEFAULT_ROOT_PRECISION,
    ApproxSupermartingale,
    Approximation,
    ConvergenceModulus,
    MartingaleFamily,
    aggregate_martingale,
    approx_supermartingale,
    borel_cantelli_dimension,
    borel_cantelli_measure,
    dimension_certificate,
    geometric_modulus,
    ratio_power,
    scale_pow2,
    sum_family,
    sum_finite,
    unit_certificate,
    worst_case_gamma,
)
from martlab.constructions import Cover, cover_martingale, subset_cover
from martlab.cantor import LanguageView
from martlab.dyadic import Dyadic, ONE, ZERO
from martlab.errors import (
    ApproximatorOutOfBand,
    CapitalBoundViolation,
    DegenerateFamily,
    ModulusViolation,
    NegativeValue,
)
from martlab.golden import build_figure
from martlab.martingale import Martingale, verify_averaging


def geometric_family():
    return MartingaleFamily(
        generator=lambda n: Martingale.constant(Dyadic.pow2(-n)),
        capital_bound=lambda n: Dyadic.pow2(-n),
        name="geometric",
    )


def plus_two_modulus():
    return ConvergenceModulus(lambda w, i: i + 2 + len(w), "i+2+|w|")


# -- finite sums -------------------------------------------------------------


def test_sum_roots_of_reference_trees():
    total = sum_finite(build_figure(1), build_figure(2))
    assert total.value(EMPTY) == Dyadic(19, 4)
    assert total.initial_capital == Dyadic(5, 4) + Dyadic(7, 3)


def test_sum_with_zero_is_identity():
    m = build_figure(1)
    total = sum_finite(m, Martingale.constant(ZERO))
    for w in all_strings(3):
        assert total.value(w) == m.value(w)


def test_sum_with_self_doubles():
    m = build_figure(3)
    total = sum_finite(m, m)
    for w in all_strings(4):
        assert total.value(w) == m.value(w).scale2(1)


def test_sum_commutes_and_associates():
    rnd = random.Random(3)
    a, b, c = (build_figure(i) for i in (1, 2, 3))
    nodes = [
        BitString.from_int(rnd.randrange(1 << k), k)
        for k in range(6)
        for _ in range(4)
    ]
    ab, ba = sum_finite(a, b), sum_finite(b, a)
    abc = sum_finite(sum_finite(a, b), c)
    acb = sum_finite(a, sum_finite(b, c))
    for w in nodes:
        assert ab.value(w) == ba.value(w)
        assert abc.value(w) == acb.value(w)


def test_sum_ratio_form_uses_common_power_of_two():
    a, b = build_figure(1), build_figure(2)
    total = sum_finite(a, b)
    kernel = total.ratio.kernel()
    kernel.send(None)
    zero, one, log_den = kernel.send(0)  # the children of 0
    assert log_den == max(a.ratio.row(2)[1], b.ratio.row(2)[1])
    w = BitString("01")
    assert Dyadic(one, log_den) == total.value(w) == a.value(w) + b.value(w)


def test_scale_pow2():
    m = build_figure(1)
    doubled = scale_pow2(m, 3)
    halved = scale_pow2(m, -2)
    for w in all_strings(4):
        assert doubled.value(w) == m.value(w).scale2(3)
        assert halved.value(w) == m.value(w).scale2(-2)
    assert verify_averaging(doubled, 4).passed


# -- truncated family sums ---------------------------------------------------


def test_sum_family_geometric_example():
    fam, mod = geometric_family(), plus_two_modulus()
    for r in (0, 3, 8):
        value = sum_family(fam, mod, EMPTY, r)
        assert value == Dyadic(2) - Dyadic.pow2(-(r + 1))
        assert Dyadic(2) - value <= Dyadic.pow2(-r)


def test_sum_family_single_member():
    fam = MartingaleFamily(
        generator=lambda n: build_figure(1),
        capital_bound=lambda n: Dyadic(5, 4),
        support=(0,),
    )
    mod = ConvergenceModulus(lambda w, i: 1)
    for r in (0, 10):
        assert sum_family(fam, mod, BitString("01"), r) == build_figure(1).value(
            BitString("01")
        )


def test_sum_family_precision_consistency():
    fam, mod = geometric_family(), plus_two_modulus()
    rnd = random.Random(5)
    for _ in range(20):
        k = rnd.randrange(6)
        w = BitString.from_int(rnd.randrange(1 << k), k)
        r1, r2 = sorted(rnd.sample(range(21), 2))
        v1 = sum_family(fam, mod, w, r1)
        v2 = sum_family(fam, mod, w, r2)
        diff = v2 - v1 if v2 >= v1 else v1 - v2
        assert diff <= Dyadic.pow2(-r1) + Dyadic.pow2(-r2)


def test_modulus_violation_raises():
    fam = geometric_family()
    lying = ConvergenceModulus(lambda w, i: 0, "always-zero")
    with pytest.raises(ModulusViolation):
        sum_family(fam, lying, EMPTY, 4)


def test_geometric_modulus_is_valid():
    fam = geometric_family()
    mod = geometric_modulus(ONE)
    for r in (0, 5, 12):
        value = sum_family(fam, mod, EMPTY, r)
        assert Dyadic(2) - value <= Dyadic.pow2(-r)


# -- covering aggregates ------------------------------------------------------


def test_borel_cantelli_measure_covers_members():
    rnd = random.Random(9)
    covers = {}
    for n in range(1, 9):
        count = 1 << (n // 2)  # capital 2^(n/2 - n) <= 2^(-n/2)
        members = rnd.sample(range(1 << n), count)
        covers[n] = Cover.from_members(
            [BitString.from_int(v, n) for v in members], n
        )
    fam = MartingaleFamily(
        generator=lambda n: cover_martingale(covers[n]),
        capital_bound=lambda n: Dyadic(1 << (n // 2), n),
        name="sparse-covers",
        support=tuple(covers),
    )
    # capitals are 2^-ceil(n/2); tails past 2(i+|w|)+6 fit under 2^-i
    mod = ConvergenceModulus(lambda w, i: min(9, 2 * (i + len(w)) + 6))
    aggregate = borel_cantelli_measure(fam, mod)
    for n, cover in covers.items():
        for x in [BitString.from_int(v, n) for v in range(1 << n)]:
            if cover.contains(x):
                cert = unit_certificate(fam, mod, n, x)
                assert cert.covered
                assert aggregate.value(x) >= ONE


def test_borel_cantelli_rejects_degenerate():
    fam = MartingaleFamily(
        generator=lambda n: Martingale.constant(ZERO),
        capital_bound=lambda n: ZERO,
        name="zeros",
    )
    with pytest.raises(DegenerateFamily):
        borel_cantelli_measure(fam, plus_two_modulus())


def test_borel_cantelli_rejects_capital_cheat():
    fam = MartingaleFamily(
        generator=lambda n: Martingale.constant(ONE),
        capital_bound=lambda n: Dyadic.pow2(-n),
        name="cheat",
    )
    with pytest.raises(CapitalBoundViolation):
        borel_cantelli_measure(fam, plus_two_modulus())


def test_borel_cantelli_single_member_family():
    m = build_figure(1)
    fam = MartingaleFamily(
        generator=lambda n: m,
        capital_bound=lambda n: m.initial_capital,
        support=(0,),
    )
    agg = borel_cantelli_measure(fam, ConvergenceModulus(lambda w, i: 1))
    for w in all_strings(4):
        assert agg.value(w) == m.value(w)


def test_a_finitely_supported_aggregate_is_a_martingale():
    members = [build_figure(i) for i in (1, 2, 3)]
    fam = MartingaleFamily(
        generator=members.__getitem__,
        capital_bound=lambda n: members[n].initial_capital,
        support=(0, 1, 2),
    )
    agg = aggregate_martingale(fam, plus_two_modulus())
    assert isinstance(agg, Martingale)
    total = sum_finite(agg, members[0])
    for w in all_strings(5):
        assert total.value(w) == sum((m.value(w) for m in members), members[0].value(w))


def _counted_family(support):
    """A family of one-string covers on ``support``, with the indices its
    generator is asked for and the member kernels it creates, in order."""
    asked, kernels = [], []

    def generator(n):
        asked.append(n)
        m = cover_martingale(Cover.from_members([BitString("0" * n)], n))

        def kernel():
            kernels.append(n)
            return m.ratio.kernel()

        return replace(m, ratio=replace(m.ratio, kernel=kernel))

    fam = MartingaleFamily(
        generator, lambda n: Dyadic.pow2(-n), "counted", support=support
    )
    return fam, asked, kernels


def test_a_finite_sum_steps_only_its_support():
    support = (7, 15, 31)
    w = BitString("0" * 31)
    mod = ConvergenceModulus(lambda w, i: 32)
    fam, asked, kernels = _counted_family(support)
    assert sum_family(fam, mod, w, 0) == Dyadic(3)
    assert asked == list(support)
    fam, asked, kernels = _counted_family(support)
    agg = aggregate_martingale(fam, mod)
    assert asked == list(support)
    assert kernels == []
    assert agg.value(w) == Dyadic(3)
    assert kernels == list(support)
    assert fam.member(8) is fam.member(40) and fam.member(8).initial_capital == ZERO
    assert asked == list(support)


def test_borel_cantelli_measure_of_an_infinite_family():
    # no support: the sum is only a truncated approximation
    fam, mod = geometric_family(), plus_two_modulus()
    agg = borel_cantelli_measure(fam, mod)
    assert isinstance(agg, Approximation)
    assert not hasattr(agg, "value") and not hasattr(agg, "ratio")
    for w in (EMPTY, BitString("0"), BitString("101")):
        for r in (0, 3, 8):
            assert agg.approx(w, r) == sum_family(fam, mod, w, r)
    assert agg.initial_capital == sum_family(fam, mod, EMPTY, DEFAULT_ROOT_PRECISION)


def test_borel_cantelli_dimension_guarantee():
    rnd = random.Random(21)
    covers = {}
    for n in range(1, 13):
        count = 1 << (n // 2)
        members = rnd.sample(range(1 << n), count)
        covers[n] = Cover.from_members(
            [BitString.from_int(v, n) for v in members], n
        )
    base = MartingaleFamily(
        generator=lambda n: cover_martingale(covers[n]),
        capital_bound=lambda n: Dyadic(1 << (n // 2), n),
        name="half-density",
        support=tuple(covers),
    )
    s, t = Dyadic(1, 1), Dyadic(3, 2)
    scaled, mod = borel_cantelli_dimension(base, s, t, audit_levels=13)
    one_minus_t = ONE - t
    for n in (1, 4, 7, 12):
        for v in rnd.sample(range(1 << n), min(8, 1 << n)):
            x = BitString.from_int(v, n)
            if covers[n].contains(x):
                cert = dimension_certificate(scaled, base, mod, t, n, x)
                assert cert.covered
                assert node_walk.cmp_pow2(cert.partial_sum, one_minus_t * Dyadic(n)) >= 0


def test_borel_cantelli_dimension_requires_t_above_s():
    fam = geometric_family()
    with pytest.raises(ValueError):
        borel_cantelli_dimension(fam, Dyadic(3, 2), Dyadic(1, 1))


def test_borel_cantelli_dimension_t_one_reduces_to_measure():
    fam = MartingaleFamily(
        generator=lambda n: scale_pow2(build_figure(1), -n),
        capital_bound=lambda n: Dyadic(5, 4).scale2(-n),
        name="scaled-figs",
        support=tuple(range(6)),
    )
    scaled, _ = borel_cantelli_dimension(fam, Dyadic(0), ONE, audit_levels=6)
    for n in range(6):
        for w in ("", "01", "0010"):
            w = BitString(w)
            assert scaled.member(n).value(w) == fam.member(n).value(w)


def test_scaled_capital_series_geometric_tail():
    # 2^(ceil((1-t)n) + (s-1)n) <= 2^(-(t-s)n + 1) termwise to horizon 64,
    # so partial sums sit under the convergent geometric tail
    s, t = Dyadic(1, 1), Dyadic(3, 2)
    s_frac, t_frac = Fraction(1, 2), Fraction(3, 4)
    numeric_bound = 0.0
    for n in range(65):
        shift = ((ONE - t) * Dyadic(n)).ceil()
        term_exp = shift + (s_frac - 1) * n
        bound_exp = -(t_frac - s_frac) * n + 1
        assert term_exp <= bound_exp
        numeric_bound += 2.0 ** float(bound_exp)
    assert numeric_bound < 16.0


# -- the approximation transform ----------------------------------------------


def exact_subset_form(n, seed=0):
    rnd = random.Random(seed)
    indices = [i for i in range(n) if rnd.random() < 0.6]
    B = LanguageView.from_indices(indices, horizon=max(n, 1))
    cover = subset_cover(B, n)
    m = cover_martingale(cover)
    return m


def test_transform_exact_approximator_scales_by_damping():
    m = exact_subset_form(4, seed=1)
    result = approx_supermartingale(m.ratio, m.ratio.numerator, 4)
    assert result.damping == Fraction(3, 5) ** 4
    for v in all_strings(4):
        expected = Fraction(m.value(v).num, 1 << m.value(v).log_den) * Fraction(
            3, 5
        ) ** 4
        assert result.exact_value(v) == expected


def test_transform_smallest_level():
    m = exact_subset_form(2, seed=2)
    result = approx_supermartingale(m.ratio, m.ratio.numerator, 2)
    assert result.damping == Fraction(1, 9)
    assert ratio_power(2) == Fraction(1, 9)
    assert worst_case_gamma(2) == Fraction(1, 18)


def test_transform_upper_band_edge_passes():
    m = exact_subset_form(3, seed=3)
    f = m.ratio.numerator

    def h(x):
        return f(x) + f(x) // 3  # (1 + 1/n) f floor, still in band for n=3

    result = approx_supermartingale(m.ratio, h, 3)
    assert result.verify_averaging_exact(5) == []


def test_transform_lower_band_edge_keeps_worst_case_gamma():
    m = exact_subset_form(4, seed=4)
    f = m.ratio.numerator

    def h(x):
        return -((-3 * f(x)) // 4)  # ceil((1 - 1/n) f) for n = 4

    result = approx_supermartingale(m.ratio, h, 4)
    assert result.verify_averaging_exact(6) == []
    gamma = worst_case_gamma(4)
    for v in all_strings(4):
        base = m.value(v)
        assert result.exact_value(v) >= gamma * Fraction(
            base.num, 1 << base.log_den
        )


def test_transform_out_of_band_raises():
    m = exact_subset_form(3, seed=5)

    def h(x):
        return 2 * m.ratio.numerator(x) + 1

    with pytest.raises(ApproximatorOutOfBand):
        approx_supermartingale(m.ratio, h, 3).exact_value(EMPTY)


def _out_of_band(f):
    return lambda x: 3 * f(x) + 1 if str(x) in ("1", "01") else f(x)


def _negative_h(f):
    return lambda x: -1 if str(x) in ("10", "011") else f(x)


# (form, h from the form's numerator, first bad node, error, message)
TRANSFORM_FAILURES = {
    "out-of-band": (
        lambda: exact_subset_form(3, seed=5).ratio, _out_of_band, "1",
        ApproximatorOutOfBand, "h(BitString('1')) = {h} outside "
        "[(1-1/3) f, (1+1/3) f] for f = {f}",
    ),
    "negative-h": (
        lambda: exact_subset_form(3, seed=5).ratio, _negative_h, "10",
        NegativeValue, "approximation transform needs nonnegative counts "
        "at BitString('10')",
    ),
    "negative-f": (
        lambda: node_walk.table_form({str(w): 1 - 2 * (str(w) == "01")
                             for k in range(4) for w in all_strings(k)}, 3),
        lambda f: lambda x: 1, "01",
        NegativeValue, "approximation transform needs nonnegative counts "
        "at BitString('01')",
    ),
}


@pytest.mark.parametrize("case", TRANSFORM_FAILURES)
def test_transform_fails_at_its_first_bad_node(case):
    build, approximator, bad, error, message = TRANSFORM_FAILURES[case]
    form = build()
    calls = []

    def h(x):
        calls.append(str(x))
        return approximator(form.numerator)(x)

    result = approx_supermartingale(form, h, 3)
    with pytest.raises(error) as raised:
        result.verify_averaging_exact(5)
    x = BitString(bad)
    hx = approximator(form.numerator)(x)
    assert str(raised.value) == message.format(h=hx, f=form.numerator(x))
    # h was asked about each node in level then index order, up to the bad one
    order = [str(w) for k in range(4) for w in all_strings(k)]
    assert calls == order[: order.index(bad) + 1]


@pytest.mark.parametrize("depth", [0, 2, 3, 5])
def test_transform_calls_h_once_per_node(depth):
    m = exact_subset_form(3, seed=7)
    calls = []

    def h(x):
        calls.append(x)
        return m.ratio.numerator(x)

    result = approx_supermartingale(m.ratio, h, 3)
    assert result.verify_averaging_exact(depth) == []
    nodes = [w for k in range(min(depth, 3) + 1) for w in all_strings(k)]
    assert calls == nodes
    for w in nodes:  # the exact values read the same approximations
        result.exact_value(w)
    assert calls == nodes


def test_transform_export_floor_grid():
    m = exact_subset_form(3, seed=6)
    result = approx_supermartingale(m.ratio, m.ratio.numerator, 3)
    out = result.martingale
    assert out.supermartingale
    for v in ("", "01", "110"):
        v = BitString(v)
        exact = result.exact_value(v)
        for r in (8, 32, 40):
            approx = out.approx(v, r)
            err = exact - Fraction(approx.num, 1 << approx.log_den)
            assert 0 <= err < Fraction(1, 2 ** max(r, 32))


def test_gamma_sequence_monotone_toward_exp_minus_two():
    values = [ratio_power(n) for n in range(2, 65)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[0] == Fraction(1, 9)
    assert values[-1] < Fraction(13534, 100000)  # stays below e^-2
    worst = [worst_case_gamma(n) for n in range(2, 65)]
    assert all(a < b for a, b in zip(worst, worst[1:]))
    assert worst[-1] < Fraction(13534, 100000)
