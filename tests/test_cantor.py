import pytest
from hypothesis import given, strategies as st

from martlab.cantor import (
    BitString,
    EMPTY,
    LanguageView,
    all_strings,
    char_prefix,
    index_of,
    mirror,
    string_index,
)
from martlab.errors import HorizonExceeded

from language_twin import census, language_of


def test_enumeration_start():
    assert [str(string_index(i)) for i in range(7)] == [
        "",
        "0",
        "1",
        "00",
        "01",
        "10",
        "11",
    ]


def test_index_examples():
    assert string_index(0) == EMPTY
    assert string_index(2) == BitString("1")
    assert string_index(6) == BitString("11")


@given(st.integers(min_value=0, max_value=100000))
def test_enumeration_bijection(i):
    assert index_of(string_index(i)) == i


@given(st.integers(min_value=0, max_value=100000))
def test_string_length_law(i):
    assert len(string_index(i)) == (i + 1).bit_length() - 1


def test_enumeration_is_length_then_lex():
    previous = None
    for i in range(500):
        s = string_index(i)
        key = (len(s), str(s))
        if previous is not None:
            assert key > previous
        previous = key


def test_census_examples():
    B = LanguageView.from_indices([1, 3], horizon=8)
    assert census(B, 4) == 2
    assert census(B, 0) == 0
    everything = LanguageView.from_indices(range(16), 16)
    assert census(everything, 7) == 7


def test_census_horizon_error():
    B = LanguageView.from_indices([1], horizon=4)
    with pytest.raises(HorizonExceeded):
        census(B, 5)
    with pytest.raises(HorizonExceeded):
        B.contains(string_index(4))


def test_char_prefix_examples():
    A = LanguageView.from_indices([1, 3], horizon=8)
    assert char_prefix(A, 4) == BitString("0101")
    empty = LanguageView.from_indices([], horizon=8)
    assert char_prefix(empty, 5) == BitString("00000")
    just_root = LanguageView.from_indices([0], horizon=8)
    assert char_prefix(just_root, 1) == BitString("1")


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=8))
def test_language_char_prefix_roundtrip(indices):
    A = LanguageView.from_indices(indices, horizon=31)
    w = char_prefix(A, 31)
    L = language_of(w)
    for i in range(31):
        assert L.contains_index(i) == A.contains_index(i)
    assert census(A, 31) == w.to_int().bit_count()


def _reversed_text(v: int, n: int) -> int:
    return int(format(v, f"0{n}b")[::-1], 2)


def test_mirror_reverses_every_short_value():
    for n in range(11):
        assert [mirror(v, n) for v in range(1 << n)] == [
            _reversed_text(v, n) for v in range(1 << n)
        ]


@given(st.integers(0, 64).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_mirror_reverses_wide_values(case):
    n, v = case
    assert mirror(v, n) == _reversed_text(v, n)
    assert mirror(mirror(v, n), n) == v


def test_all_strings():
    assert [str(s) for s in all_strings(2)] == ["00", "01", "10", "11"]


def test_bitstring_basics():
    w = BitString("0101")
    assert w.prefix(2) == BitString("01")
    assert (w + BitString("1")).bits() == "01011"
    assert BitString.from_int(5, 4) == BitString("0101")
    assert w.to_int() == 5
    with pytest.raises(ValueError):
        BitString("012")


def test_language_view_is_immutable():
    view = LanguageView.from_indices([1], horizon=4)
    with pytest.raises(AttributeError, match="immutable"):
        view.horizon = 8
