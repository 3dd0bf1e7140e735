import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import node_walk
from martlab import dyadic
from martlab.dyadic import (
    Dyadic,
    ONE,
    cmp_pow2,
    grid_floor_log2_ratio,
    grid_floor_one_minus_log2_ratio,
    pow_bit_length,
    text,
    texts,
)
from martlab.errors import CapExceeded

dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=40),
)
nonneg_dyadics = st.builds(
    Dyadic,
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=40),
)


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.num, 1 << d.log_den)


def cmp_dyadics(value: Dyadic, exponent: Dyadic) -> int:
    """``cmp_pow2`` on the canonical pairs of two ``Dyadic``s."""
    return cmp_pow2(value.num, value.log_den, exponent.num, exponent.log_den)


def test_dyadic_is_immutable():
    with pytest.raises(AttributeError, match="immutable"):
        ONE.num = 2


def test_dyadic_has_no_arithmetic():
    """Values add as integer pairs where they are summed; a ``Dyadic`` only
    parses, prints and compares."""
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(ONE, ONE)
    for name in ("scale2", "ceil", "is_zero"):
        with pytest.raises(AttributeError):
            getattr(ONE, name)


def test_parse_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        Dyadic.parse("2/3")


def test_negative_log_den_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


@given(dyadics)
def test_normalization_canonical(d):
    assert d.log_den == 0 or d.num % 2 == 1


@given(dyadics, dyadics)
def test_order_matches_fractions(a, b):
    assert (a < b) == (as_fraction(a) < as_fraction(b))
    assert (a == b) == (as_fraction(a) == as_fraction(b))


@given(dyadics)
def test_render_parse_roundtrip(d):
    assert Dyadic.parse(str(d)) == d


def test_text_past_the_digit_limit_is_a_resource_cap():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter prints integers of any length")
    # 2**(3 * limit) has about 0.9 * limit digits, 2**(4 * limit) about 1.2 * limit
    assert str(Dyadic(1, 3 * limit)) == f"1/{1 << 3 * limit}"
    for value in (Dyadic(1, 4 * limit), Dyadic(1 << 4 * limit), Dyadic(-3 << 4 * limit, 1)):
        with pytest.raises(CapExceeded, match=f"exceeds the {limit}-digit print cap"):
            str(value)


def fraction_text(num: int, log_den: int) -> str:
    """``num / 2**log_den`` in lowest terms by ``Fraction``, as ``p`` or ``p/d``."""
    f = Fraction(num, 1 << log_den)
    return f"{f.numerator}/{f.denominator}" if f.denominator > 1 else str(f.numerator)


def rendered(render, *args):
    """``render(*args)``, or the type and message of what it raised."""
    try:
        return "ok", render(*args)
    except (ValueError, CapExceeded) as exc:
        return type(exc), str(exc)


LIMIT = sys.get_int_max_str_digits()

# a value in any terms: an integer times a power of two, over a power of two,
# so zero, negatives, powers of two and non-canonical pairs all come up
pairs = st.builds(
    lambda m, t, log_den: (m << t, log_den),
    st.integers(min_value=-(2**40), max_value=2**40) | st.sampled_from([0, 1, -1, 3]),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=60),
)
# pairs about the print cap: numerators and denominators of 3 to 4 * LIMIT
# bits, whose lowest terms may or may not print
long_pairs = st.builds(
    lambda m, t, log_den: (m << t, log_den),
    st.sampled_from([0, 1, -1, 3, -5]),
    st.sampled_from([0, 3 * LIMIT, 4 * LIMIT, 4 * LIMIT + 3]),
    st.sampled_from([0, 5, 3 * LIMIT, 4 * LIMIT, 4 * LIMIT + 7]),
)


@given(pairs)
@example((0, 30))
@example((1 << 45, 40))
@example((-(3 << 12), 12))
def test_text_matches_the_dyadic_and_the_fraction(pair):
    assert text(*pair) == str(Dyadic(*pair)) == fraction_text(*pair)


@settings(max_examples=40, deadline=None)
@given(long_pairs)
def test_text_about_the_print_cap_matches_the_dyadic(pair):
    assert rendered(text, *pair) == rendered(lambda: str(Dyadic(*pair)))


@settings(max_examples=60, deadline=None)
@given(st.lists(pairs | long_pairs, max_size=6))
def test_texts_match_the_line_by_line_rendering(values):
    """The list renders as its pairs one by one, and a list with a value
    past the cap raises the first such value's error."""
    assert rendered(texts, tuple(values)) == rendered(
        lambda: [str(Dyadic(*p)) for p in values]
    )


def test_texts_decide_the_cap_exactly():
    if not LIMIT:
        pytest.skip("the interpreter prints integers of any length")
    cap = 10**LIMIT  # the least integer of LIMIT + 1 digits
    den_bits = (cap - 1).bit_length()  # the least 2**k >= cap
    for pair in ((cap - 1, 0), (1 - cap, 0), (1, den_bits - 1), (cap, 3 * LIMIT)):
        assert texts(((1, 1), pair)) == ["1/2", str(Dyadic(*pair))]
    for pair in ((cap, 0), (-cap, 0), (1, den_bits), (cap << 1, 1)):
        assert rendered(texts, ((1, 1), pair, (1, 4 * LIMIT))) == rendered(
            lambda: str(Dyadic(*pair))
        )


def test_texts_render_nothing_before_a_value_past_the_cap(monkeypatch):
    """The cap is decided on the pairs in lowest terms, so a list holding a
    value past it renders only that value, whose text raises; a long pair
    whose lowest terms print is not rendered first."""
    if not LIMIT:
        pytest.skip("the interpreter prints integers of any length")
    calls = []

    def counted(num, log_den):
        calls.append((num, log_den))
        return text(num, log_den)

    monkeypatch.setattr(dyadic, "text", counted)
    for past in ((1, 4 * LIMIT), (10**LIMIT + 1, 2), (-1 << 4 * LIMIT, 0)):
        calls.clear()
        with pytest.raises(CapExceeded):
            dyadic.texts(((1, 1), (1 << 4 * LIMIT, 4 * LIMIT), past, (5, 0)))
        assert calls == [past]


@given(nonneg_dyadics, st.integers(min_value=-20, max_value=20))
def test_cmp_pow2_integer_exponents_agree(v, e):
    direct = (
        (v > Dyadic.pow2(e)) - (v < Dyadic.pow2(e))
    )
    assert cmp_pow2(v.num, v.log_den, e, 0) == direct


@given(
    st.integers(min_value=1, max_value=2**20),
    st.integers(min_value=1, max_value=24),
)
def test_grid_floor_log2_ratio_brackets(m, n):
    g = grid_floor_log2_ratio(m, n)
    # g <= log2(m)/n < g + 2^-10, cleared to integer powers
    index = g.num << (10 - g.log_den)
    assert m**1024 >= (1 << (index * n))
    assert m**1024 < (1 << ((index + 1) * n))


@given(
    st.integers(min_value=1, max_value=2**16),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=16),
)
def test_grid_floor_one_minus_log2_brackets(num, log_den, n):
    v = Dyadic(num, log_den)
    g = grid_floor_one_minus_log2_ratio(v.num, v.log_den, n)
    # verify with the other exact mechanism: v <= 2^(n(1 - g/2^10)) etc.
    lo = g.num << (10 - g.log_den) if g.log_den < 10 else g.num
    # n - n * lo / 2**10 and n - n * (lo + 1) / 2**10, as pairs over 2**10
    threshold_lo = Dyadic(n * ((1 << 10) - lo), 10)
    threshold_hi = Dyadic(n * ((1 << 10) - lo - 1), 10)
    assert cmp_dyadics(v, threshold_lo) <= 0
    assert cmp_dyadics(v, threshold_hi) > 0
    # and with the raw formula: 2**(1024*(n + j) - g*n) >= num**1024
    powered = v.num**1024

    def fits(index):
        e = 1024 * (n + v.log_den) - index * n
        return e >= 0 and (1 << e) >= powered

    assert fits(lo) and not fits(lo + 1)


# -- differential oracles: the full-power code the fast paths replaced --------


def full_power_cmp_pow2(value: Dyadic, exponent: Dyadic) -> int:
    if value.num <= 0:
        return -1
    q = 1 << exponent.log_den
    lhs = Dyadic(value.num**q, value.log_den * q)
    rhs = Dyadic.pow2(exponent.num)
    return (lhs > rhs) - (lhs < rhs)


def search_grid_floor_log2_ratio(m: int, n: int, grid_bits: int) -> Dyadic:
    scale = 1 << grid_bits
    lo, hi = 0, (m.bit_length() * scale) // n + 1
    powered = m**scale
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if powered >= (1 << (mid * n)):
            lo = mid
        else:
            hi = mid - 1
    return Dyadic(lo, grid_bits)


def search_grid_floor_one_minus(value: Dyadic, n: int, grid_bits: int) -> Dyadic:
    m, j = value.num, value.log_den
    scale = 1 << grid_bits
    powered = m**scale
    top = scale * (n + j)

    def ok(g: int) -> bool:
        rhs_exp = top - g * n
        return rhs_exp >= 0 and (1 << rhs_exp) >= powered

    span = (m.bit_length() + j + n) * scale // n + 2
    lo, hi = -span, span
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid - 1
    return Dyadic(lo, grid_bits)


def band_exponent(value: Dyadic, k: int, offset: int) -> Dyadic:
    """``p / 2**k`` whose target ``p + j*2**k`` sits ``offset`` into the band
    ``[(b-1)*2**k, b*2**k)`` that ``value``'s bit length ``b`` leaves open;
    ``p`` is made odd so the exponent keeps its ``2**k`` denominator."""
    q = 1 << k
    target = (value.num.bit_length() - 1) * q + offset % q
    p = target - value.log_den * q
    return Dyadic(p | 1 if k else p, k)


numerators = st.one_of(
    st.integers(min_value=1, max_value=2**2000),
    st.integers(min_value=1, max_value=2000).map(lambda b: 1 << b),
    st.integers(min_value=1, max_value=2000).map(lambda b: (1 << b) - 1),
)
slow = settings(deadline=None, max_examples=60)


@slow
@given(numerators, st.integers(min_value=0, max_value=2100))
@example(1, 0)
@example(1, 2100)
@example((1 << 2000) - 1, 1024)
@example(1 << 2000, 1024)
@example(3, 1 << 11)
def test_pow_bit_length_matches_full_power(m, e):
    assert pow_bit_length(m, e) == (m**e).bit_length()


def test_pow_bit_length_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pow_bit_length(0, 3)
    with pytest.raises(ValueError):
        pow_bit_length(3, -1)


@slow
@given(
    numerators,
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=2**10),
)
def test_cmp_pow2_matches_full_power_in_the_band(m, log_den, k, offset):
    value = Dyadic(m, log_den)
    exponent = band_exponent(value, k, offset)
    assert cmp_dyadics(value, exponent) == full_power_cmp_pow2(value, exponent)


@settings(deadline=None)
@given(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-(2**20), max_value=2**20),
    st.integers(min_value=0, max_value=10),
)
def test_cmp_pow2_matches_full_power_anywhere(num, log_den, p, k):
    value, exponent = Dyadic(num, log_den), Dyadic(p, k)
    assert cmp_dyadics(value, exponent) == full_power_cmp_pow2(value, exponent)


@pytest.mark.parametrize("b", [1, 2, 63, 64, 65, 200, 2000])
@pytest.mark.parametrize("k", [0, 1, 5, 10])
@pytest.mark.parametrize("log_den", [0, 3])
def test_cmp_pow2_powers_of_two_and_all_ones(b, k, log_den):
    q = 1 << k
    power = Dyadic(1 << b, log_den)  # exactly 2**(b - log_den)
    exact = Dyadic((b - log_den) * q, k)
    assert cmp_dyadics(power, exact) == 0
    below = Dyadic((b - log_den) * q + 1, k)
    above = Dyadic((b - log_den) * q - 1, k)
    for exponent in (exact, below, above):
        assert cmp_dyadics(power, exponent) == full_power_cmp_pow2(power, exponent)
    ones = Dyadic((1 << b) - 1, log_den)
    for exponent in (exact, below, above, band_exponent(ones, k, q - 1)):
        assert cmp_dyadics(ones, exponent) == full_power_cmp_pow2(ones, exponent)


def test_cmp_pow2_negative_exponents():
    assert cmp_pow2(1, 3, -3, 0) == 0
    assert cmp_pow2(1, 3, -5, 1) == -1
    assert cmp_pow2(1, 3, -7, 1) == 1
    assert cmp_pow2(3, 10, -8, 0) == -1
    assert cmp_pow2(3, 10, -9, 0) == 1
    assert cmp_pow2(0, 0, -8, 0) == -1


@slow
@given(
    numerators,
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=0, max_value=10),
)
def test_grid_floor_log2_ratio_matches_search(m, n, grid_bits):
    expected = search_grid_floor_log2_ratio(m, n, grid_bits)
    assert grid_floor_log2_ratio(m, n, grid_bits) == expected


@slow
@given(
    numerators,
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=0, max_value=10),
)
@example(1 << 64, 0, 64, 10)
@example(1, 12, 3, 10)
def test_grid_floor_one_minus_matches_search(m, log_den, n, grid_bits):
    v = Dyadic(m, log_den)
    expected = search_grid_floor_one_minus(v, n, grid_bits)
    assert grid_floor_one_minus_log2_ratio(v.num, v.log_den, n, grid_bits) == expected
    # the same value in other terms: m over 2**log_den, not reduced
    assert grid_floor_one_minus_log2_ratio(m, log_den, n, grid_bits) == expected


# -- the pair comparison against its Dyadic twin -------------------------------


@slow
@given(
    numerators,
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=2**10),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
)
def test_cmp_pow2_matches_the_dyadic_twin_in_the_band(m, log_den, k, offset, zeros, extra):
    """Inside the band, on the value with ``zeros`` trailing zeros added to
    its numerator and on the exponent with ``extra`` common twos added."""
    value = Dyadic(m, log_den)
    exponent = band_exponent(value, k, offset)
    expected = node_walk.cmp_pow2(value, as_fraction(exponent))
    assert cmp_dyadics(value, exponent) == expected
    assert cmp_pow2(
        value.num << zeros, value.log_den + zeros,
        exponent.num << extra, exponent.log_den + extra,
    ) == expected


@pytest.mark.parametrize("b", [1, 2, 63, 64, 65, 200, 2000])
@pytest.mark.parametrize("k", [0, 1, 5, 10])
@pytest.mark.parametrize("zeros", [0, 3])
def test_cmp_pow2_matches_the_dyadic_twin_at_powers_of_two(b, k, zeros):
    """``2**b`` over ``2**zeros`` against ``(b - zeros) * 2**k / 2**k`` and
    its two neighbours, in the lowest terms of neither side."""
    q = 1 << k
    for p in ((b - zeros) * q, (b - zeros) * q + 1, (b - zeros) * q - 1):
        expected = node_walk.cmp_pow2(Dyadic(1 << b, zeros), Fraction(p, 1 << k))
        assert cmp_pow2(1 << b, zeros, p, k) == expected
        assert cmp_pow2(1 << b + 5, zeros + 5, p << 3, k + 3) == expected
    assert cmp_pow2(1 << b, zeros, (b - zeros) * q, k) == 0


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=2**12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=400),
)
def test_cmp_pow2_matches_the_dyadic_twin_on_scan_thresholds(num, log_den, s_num, s_log, n):
    """The exponent as a scan passes it, ``(1 - s) * n`` as the unreduced
    ``(p * n, k)`` with ``p = 2**k - s.num``, against the twin's ``Fraction``
    ``(1 - s) * n``; ``num`` need not be in lowest terms."""
    s = Dyadic(s_num, s_log)
    p, k = (1 << s.log_den) - s.num, s.log_den
    expected = node_walk.cmp_pow2(Dyadic(num, log_den), (1 - as_fraction(s)) * n)
    assert cmp_pow2(num, log_den, p * n, k) == expected
    assert cmp_pow2(num, log_den, (p * n) << 4, k + 4) == expected
