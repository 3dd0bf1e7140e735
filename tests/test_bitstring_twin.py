"""``cantor.BitString`` held as its enumeration code, against the text-held
twin in ``bitstring_v1``: every method and enumeration function gives the
same bits, the same ints and the same errors, the empty string included."""

import pytest
from hypothesis import given, settings, strategies as st

from martlab import cantor
from martlab.cantor import BitString

import bitstring_v1 as v1

texts = st.text("01", max_size=40)


def _same(new, old) -> None:
    """Two results agree: equal text for strings, else equal values."""
    if isinstance(new, BitString):
        assert isinstance(old, v1.BitString)
        assert str(new) == str(old)
    else:
        assert new == old


@given(texts)
def test_reads_match_the_twin(text):
    new, old = BitString(text), v1.BitString(text)
    assert (str(new), repr(new), new.bits()) == (str(old), repr(old), old.bits())
    assert len(new) == len(old) == len(text)
    assert list(new) == list(old)
    assert new.to_int() == old.to_int()
    assert cantor.index_of(new) == v1.index_of(old)
    assert bool(new) == bool(old)


@given(texts, texts)
def test_comparisons_match_the_twin(a, b):
    new_a, new_b = BitString(a), BitString(b)
    old_a, old_b = v1.BitString(a), v1.BitString(b)
    assert (new_a == new_b) == (old_a == old_b) == (a == b)
    assert (new_a != new_b) == (a != b)
    if a == b:
        assert hash(new_a) == hash(new_b)
    assert new_a != a and new_a != old_a  # neither text nor the twin is a BitString


@given(texts, texts, st.sampled_from([0, 1, True, False, 2, None]))
def test_builders_match_the_twin(a, b, bit):
    new_a, old_a = BitString(a), v1.BitString(a)
    _same(new_a.append(bit), old_a.append(bit))
    _same(new_a + BitString(b), old_a + v1.BitString(b))
    for n in range(len(a) + 3):
        _same(new_a.prefix(n), old_a.prefix(n))
    _same(BitString(list(map(int, a))), v1.BitString(list(map(int, a))))
    _same(BitString(new_a), v1.BitString(old_a))


def test_prefix_at_or_past_the_length_is_the_string_itself():
    for text in ("", "0", "0110"):
        w = BitString(text)
        for n in range(len(text), len(text) + 3):
            assert w.prefix(n) is w
        if text:
            assert w.prefix(len(text) - 1) is not w


def test_negative_prefix_raises():
    # text slicing would silently drop characters from the end
    assert str(v1.BitString("0110").prefix(-1)) == "011"
    for text in ("", "0110"):
        with pytest.raises(ValueError, match="prefix length -1 is negative"):
            BitString(text).prefix(-1)


@settings(max_examples=200)
@given(st.integers(0, 40).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, 2**k - 1))))
def test_from_int_matches_the_twin(length_value):
    length, value = length_value
    _same(BitString.from_int(value, length), v1.BitString.from_int(value, length))


def test_from_int_rejects_a_value_that_does_not_fit():
    for value, length in ((4, 2), (1, 0), (-1, 3)):
        with pytest.raises(ValueError):
            BitString.from_int(value, length)


@given(st.integers(0, 2**45))
def test_enumeration_round_trips_match_the_twin(i):
    _same(cantor.string_index(i), v1.string_index(i))
    assert cantor.index_of(cantor.string_index(i)) == i


def test_enumeration_order_matches_the_twin():
    for length in range(9):
        assert list(map(str, cantor.all_strings(length))) == list(
            map(str, v1.all_strings(length)))
    assert [str(cantor.string_index(i)) for i in range(600)] == [
        str(v1.string_index(i)) for i in range(600)]
    assert cantor.string_index(0) == cantor.EMPTY == BitString("")
    for bad in (cantor.string_index, v1.string_index):
        with pytest.raises(ValueError):
            bad(-1)


def test_construction_errors_match_the_twin():
    for bad in ("012", " 01", "0_1", "1 ", "-1", "b"):
        for cls in (BitString, v1.BitString):
            with pytest.raises(ValueError, match="not a bit string"):
                cls(bad)
    for w in (BitString("01"), v1.BitString("01")):
        with pytest.raises(AttributeError, match="immutable"):
            w.x = 1
