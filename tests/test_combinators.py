import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import node_walk
from node_walk import as_dyadic, as_fraction

from martlab.cantor import BitString, EMPTY, all_strings
from martlab.combinators import (
    DEFAULT_AUDIT_PAD,
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
    _audit_family,
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
from test_acceptance import _half_density_family


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
    assert as_fraction(total.initial_capital) == Fraction(5, 16) + Fraction(7, 8)


def test_sum_with_zero_is_identity():
    m = build_figure(1)
    total = sum_finite(m, Martingale.constant(ZERO))
    for w in all_strings(3):
        assert total.value(w) == m.value(w)


def test_sum_with_self_doubles():
    m = build_figure(3)
    total = sum_finite(m, m)
    for w in all_strings(4):
        assert as_fraction(total.value(w)) == 2 * as_fraction(m.value(w))


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
    assert Dyadic(one, log_den) == total.value(w)
    assert as_fraction(total.value(w)) == as_fraction(a.value(w)) + as_fraction(b.value(w))


def test_scale_pow2():
    m = build_figure(1)
    doubled = scale_pow2(m, 3)
    halved = scale_pow2(m, -2)
    for w in all_strings(4):
        assert as_fraction(doubled.value(w)) == 8 * as_fraction(m.value(w))
        assert as_fraction(halved.value(w)) == as_fraction(m.value(w)) / 4
    assert verify_averaging(doubled, 4).passed


# -- truncated family sums ---------------------------------------------------


def test_sum_family_geometric_example():
    fam, mod = geometric_family(), plus_two_modulus()
    for r in (0, 3, 8):
        value = as_fraction(sum_family(fam, mod, EMPTY, r))
        assert value == 2 - Fraction(1, 2 ** (r + 1))
        assert 2 - value <= Fraction(1, 2**r)


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
        v1 = as_fraction(sum_family(fam, mod, w, r1))
        v2 = as_fraction(sum_family(fam, mod, w, r2))
        assert abs(v2 - v1) <= Fraction(1, 2**r1) + Fraction(1, 2**r2)


def test_modulus_violation_raises():
    fam = geometric_family()
    lying = ConvergenceModulus(lambda w, i: 0, "always-zero")
    with pytest.raises(ModulusViolation):
        sum_family(fam, lying, EMPTY, 4)


def test_geometric_modulus_is_valid():
    fam = geometric_family()
    mod = geometric_modulus(ONE)
    for r in (0, 5, 12):
        value = as_fraction(sum_family(fam, mod, EMPTY, r))
        assert 2 - value <= Fraction(1, 2**r)


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
        assert as_fraction(total.value(w)) == sum(
            (as_fraction(m.value(w)) for m in members), as_fraction(members[0].value(w))
        )


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
    one_minus_t = 1 - as_fraction(t)
    for n in (1, 4, 7, 12):
        for v in rnd.sample(range(1 << n), min(8, 1 << n)):
            x = BitString.from_int(v, n)
            if covers[n].contains(x):
                cert = dimension_certificate(scaled, base, mod, t, n, x)
                assert cert.covered
                assert node_walk.cmp_pow2(cert.partial_sum, one_minus_t * n) >= 0


def test_borel_cantelli_dimension_requires_t_above_s():
    fam = geometric_family()
    with pytest.raises(ValueError):
        borel_cantelli_dimension(fam, Dyadic(3, 2), Dyadic(1, 1))


def test_borel_cantelli_dimension_t_one_reduces_to_measure():
    fam = MartingaleFamily(
        generator=lambda n: scale_pow2(build_figure(1), -n),
        capital_bound=lambda n: Dyadic(5, 4 + n),
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
    s_frac, t_frac = Fraction(1, 2), Fraction(3, 4)
    numeric_bound = 0.0
    for n in range(65):
        shift = math.ceil((1 - t_frac) * n)
        term_exp = shift + (s_frac - 1) * n
        bound_exp = -(t_frac - s_frac) * n + 1
        assert term_exp <= bound_exp
        numeric_bound += 2.0 ** float(bound_exp)
    assert numeric_bound < 16.0


def _geometric_support(top):
    """``2**-n`` constants on ``0..top - 1``, capitals at most ``2**-n``."""
    return MartingaleFamily(
        generator=lambda n: Martingale.constant(Dyadic.pow2(-n)),
        capital_bound=lambda n: Dyadic.pow2(-n),
        name="geometric",
        support=tuple(range(top)),
    )


# (base family, s) pairs whose capitals meet 2**((s-1)n), and t values above s
DIMENSION_BASES = [
    (lambda: _half_density_family(random.Random(17), 12)[1], "1/2", ("3/4", "1", "5/4")),
    (lambda: _geometric_support(16), "0", ("1/2", "1", "3/2")),
]


@pytest.mark.parametrize("base, s, ts", DIMENSION_BASES, ids=["half-density", "geometric"])
def test_scaled_capital_bound_holds_for_every_member(base, s, ts):
    """The scaled family's ``capital_bound`` is the base bound times
    ``2**ceil((1-t)n)``, computed with ``Fraction``, and it bounds each
    scaled member's capital, for ``t`` below, at and above 1."""
    base = base()
    for t in ts:
        scaled, _ = borel_cantelli_dimension(base, Dyadic.parse(s), Dyadic.parse(t))
        for n in base.support:
            factor = Fraction(2) ** math.ceil((1 - Fraction(t)) * n)
            capital, bound = scaled.member(n).initial_capital, scaled.capital_bound(n)
            assert as_fraction(capital) == as_fraction(base.member(n).initial_capital) * factor
            assert as_fraction(bound) == as_fraction(base.capital_bound(n)) * factor
            assert capital <= bound


# -- the pair sums against a Fraction twin --------------------------------------


def _fraction_sum(fam, w, start, stop):
    """``sum_{start <= n < stop} d_n(w)`` added as ``Fraction``s, reading only
    the support's members."""
    return sum(
        (as_fraction(fam.member(n).value(w)) for n in range(start, stop)
         if fam.support is None or n in fam.support),
        Fraction(0),
    )


@st.composite
def families(draw):
    """Geometric constants ``c * 2**(-d*n)``, or a finite support of
    constants and scaled covers, with capital bounds of ``f / 2**g`` times
    each capital: ``f / 2**g < 1`` declares a bound the capitals break."""
    f, g = draw(st.sampled_from([(1, 0), (1, 1), (3, 0), (3, 1)]))
    if draw(st.booleans()):
        c, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
        support = None
        generator = lambda n: Martingale.constant(Dyadic(c, d * n))  # noqa: E731
    else:
        support = tuple(sorted(draw(st.sets(st.integers(0, 20), max_size=6))))
        members = {}
        for n in support:
            if draw(st.booleans()):
                value = Dyadic(draw(st.integers(0, 64)), draw(st.integers(0, 12)))
                members[n] = Martingale.constant(value)
            else:
                level = draw(st.integers(0, 5))
                strings = draw(st.sets(st.integers(0, (1 << level) - 1), max_size=4))
                cover = Cover.from_members([BitString.from_int(v, level) for v in strings], level)
                members[n] = scale_pow2(cover_martingale(cover), draw(st.integers(-6, 2)))
        generator = members.__getitem__

    def capital_bound(n):
        capital = generator(n).initial_capital
        return Dyadic(capital.num * f, capital.log_den + g)

    return MartingaleFamily(generator, capital_bound, "random", support=support)


moduli = st.builds(
    lambda a, b, e: ConvergenceModulus(
        lambda w, i: max(0, a * i + b + e * len(w)), f"{a}i+{b}+{e}|w|"
    ),
    st.integers(0, 2), st.integers(0, 6), st.integers(0, 1),
)
nodes = st.integers(0, 6).flatmap(
    lambda k: st.integers(0, (1 << k) - 1).map(lambda v: BitString.from_int(v, k))
)


def _constant_at(value):
    """The family whose one member, at index 0, is the constant ``value``."""
    member = Martingale.constant(value)
    return MartingaleFamily(lambda n: member, lambda n: value, "one", support=(0,))


@settings(max_examples=80, deadline=None)
@given(families(), moduli, nodes, st.integers(-3, 12))
@example(_constant_at(Dyadic(1, 4)), ConvergenceModulus(lambda w, i: 0), EMPTY, 4)
@example(_constant_at(Dyadic(4)), ConvergenceModulus(lambda w, i: 0), EMPTY, -2)
def test_sum_family_matches_the_fraction_twin(fam, mod, w, r):
    """The truncated sum is the ``Fraction`` sum below ``m(w, r)``, and the
    audit refuses exactly when the window's ``Fraction`` tail passes
    ``2**-r``, for a negative ``r`` too; a tail of exactly ``2**-r``
    passes."""
    start = mod(w, r)
    if _fraction_sum(fam, w, start, start + DEFAULT_AUDIT_PAD) > Fraction(2) ** -r:
        with pytest.raises(ModulusViolation):
            sum_family(fam, mod, w, r)
    else:
        assert as_fraction(sum_family(fam, mod, w, r)) == _fraction_sum(fam, w, 0, start)


def _audit_twin(fam, mod, levels):
    """The error ``_audit_family`` should raise, from ``Fraction`` sums."""
    indices = [n for n in range(levels) if fam.support is None or n in fam.support]
    capitals = [as_fraction(fam.member(n).initial_capital) for n in indices]
    bounds = [as_fraction(fam.capital_bound(n)) for n in indices]
    if any(c > b for c, b in zip(capitals, bounds)):
        return CapitalBoundViolation
    if not any(capitals):
        return DegenerateFamily
    for i in (0, 4, 8):
        start = mod(EMPTY, i)
        window = range(start, start + DEFAULT_AUDIT_PAD)
        tail = sum(as_fraction(fam.capital_bound(n)) for n in window
                   if fam.support is None or n in fam.support)
        if tail > Fraction(1, 2**i):
            return ModulusViolation
    return None


@settings(max_examples=80, deadline=None)
@given(families(), moduli, st.integers(0, 16))
def test_family_audit_matches_the_fraction_twin(fam, mod, levels):
    try:
        _audit_family(fam, mod, levels)
        raised = None
    except (CapitalBoundViolation, DegenerateFamily, ModulusViolation) as exc:
        raised = type(exc)
    assert raised is _audit_twin(fam, mod, levels)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(base, s, t) for base, s, ts in DIMENSION_BASES for t in ts]),
       st.randoms(use_true_random=False))
def test_dimension_certificates_match_the_fraction_twin(case, rnd):
    """A certificate's partial sum is the base members' ``Fraction`` values
    times ``2**ceil((1-t)k)``, added below its stop, and it is covered
    exactly when member ``n`` reaches 1 and ``cmp_pow2`` against the
    ``Fraction`` exponent ``(1-t)n`` finds the sum at or above it.  The
    modulus returned with the scaled family truncates its sum within
    ``2**-r``."""
    base, s, t = case
    base = base()
    scaled, mod = borel_cantelli_dimension(base, Dyadic.parse(s), Dyadic.parse(t))
    one_minus_t = 1 - Fraction(t)
    for n in base.support:
        x = BitString.from_int(rnd.getrandbits(n), n) if n else EMPTY
        cert = dimension_certificate(scaled, base, mod, Dyadic.parse(t), n, x)
        stop = max(mod(x, DEFAULT_ROOT_PRECISION), n + 1)
        partial = sum(
            as_fraction(base.member(k).value(x)) * Fraction(2) ** math.ceil(one_minus_t * k)
            for k in base.support if k < stop
        )
        assert as_fraction(cert.partial_sum) == partial
        reaches = as_fraction(base.member(n).value(x)) >= 1
        assert cert.covered == (
            reaches and node_walk.cmp_pow2(as_dyadic(partial), one_minus_t * n) >= 0
        )
        total = _fraction_sum(scaled, x, 0, base.support[-1] + 1)
        for r in (0, 4, 8):
            assert 0 <= total - as_fraction(sum_family(scaled, mod, x, r)) <= Fraction(1, 2**r)


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
