"""The one-int language mask against its frozenset twin, and index-keyed
acceptance odds against string-keyed products."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import language_twin as twin
from martlab import cantor
from martlab.cantor import BitString, LanguageView, string_index
from martlab.constructions import AcceptanceSpec, acceptance_martingale
from martlab.errors import CapExceeded, HorizonExceeded, MartlabError, RowSumViolation


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except (ValueError, HorizonExceeded) as exc:
        return type(exc), str(exc)


def same_language(view: LanguageView, ref: twin.Language, probes: int = 3) -> None:
    h = ref.horizon
    assert view.horizon == h and view.name == ref.name
    for i in range(-1, max(h, 0) + probes):
        assert outcome(view.contains_index, i) == outcome(ref.contains_index, i)
        if i >= 0:
            s = string_index(i)
            assert outcome(view.contains, s) == outcome(ref.contains, s)
    for n in range(-1, max(h, 0) + probes):
        assert outcome(cantor.char_prefix, view, n) == outcome(twin.char_prefix, ref, n)


# member indices inside a horizon of 0..40, duplicated and in any order
languages = st.integers(0, 40).flatmap(lambda h: st.tuples(
    st.lists(st.integers(0, h - 1), max_size=12) if h else st.just([]), st.just(h)
))


@settings(max_examples=60, deadline=None)
@given(languages)
def test_mask_matches_the_frozenset_twin(language):
    indices, horizon = language
    view = LanguageView.from_indices(indices, horizon, "A")
    ref = twin.Language.from_indices(indices, horizon, "A")
    same_language(view, ref)
    members = [str(string_index(i)) for i in indices]
    same_language(LanguageView.from_members(members, horizon),
                  twin.Language.from_members(members, horizon))
    assert cantor.char_prefix(view, horizon) == twin.char_prefix(ref, horizon)


def test_horizon_zero_and_the_empty_member():
    for indices, horizon in (([], 0), ([0], 1), ([0, 0], 3), ([], 1)):
        same_language(LanguageView.from_indices(indices, horizon),
                      twin.Language.from_indices(indices, horizon))
    assert cantor.char_prefix(LanguageView.from_indices([0], 1), 1) == BitString("1")


@settings(max_examples=100, deadline=None)
@given(st.integers(-2, 12).flatmap(lambda h: st.tuples(
    st.lists(st.integers(-3, h + 40), max_size=6), st.just(h)
)))
def test_construction_errors_match_the_twin(language):
    indices, horizon = language
    members = [str(string_index(i)) for i in indices if i >= 0]
    for build, items in (("from_indices", indices), ("from_members", members)):
        got = outcome(getattr(LanguageView, build), items, horizon)
        want = outcome(getattr(twin.Language, build), items, horizon)
        if got[0] == want[0] == "ok":
            same_language(got[1], want[1])
        else:
            assert got == want


def masked(build, indices, horizon):
    """The mask ``build`` makes, or the type and message of what it raised."""
    try:
        return "ok", build(indices, horizon)
    except (ValueError, MartlabError) as exc:
        return type(exc), str(exc)


def view_mask(indices, horizon) -> int:
    return LanguageView.from_indices(indices, horizon)._mask


# small indices, negatives and members past the mask cap, under horizons
# from negative to past the cap
TOP = cantor.MASK_CAP


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-3, 70) | st.sampled_from([TOP, TOP + 9]), max_size=10),
    st.integers(-3, 72) | st.sampled_from([TOP, TOP + 10]),
)
@example([], -2)
@example([5, -1, 80], 10)
@example([80, TOP], TOP + 10)
@example([TOP + 9, -2], 3)
def test_masks_match_the_loop_twin(indices, horizon):
    """The mask, and which error comes first: a negative index, then the
    first index past the horizon in input order, then the mask cap."""
    assert masked(view_mask, iter(indices), horizon) == masked(
        twin.mask_from_indices, indices, horizon
    )


def test_a_member_past_the_mask_cap_is_a_resource_cap():
    top = cantor.MASK_CAP
    assert LanguageView.from_indices([top - 1], top).contains_index(top - 1)
    with pytest.raises(CapExceeded, match=f"member index {top} exceeds mask cap"):
        LanguageView.from_indices([1, top], top + 1)


# -- acceptance odds: by index against by string --------------------------


def string_product(f, q, w: BitString) -> Fraction:
    """``2**|w|`` times the chosen rows' odds, each asked by its string."""
    value = Fraction(1 << len(w))
    for i, bit in enumerate(w):
        x = string_index(i)
        value *= Fraction(f(x, bit), 1 << q(len(x)))
    return value


def as_fraction(d) -> Fraction:
    return Fraction(d.num, 1 << d.log_den)


prefixes = st.lists(st.booleans(), max_size=40).map(BitString)


@settings(max_examples=60, deadline=None)
@given(languages, st.integers(0, 3).flatmap(
    lambda q: st.tuples(st.integers(0, 1 << q), st.just(q))), prefixes)
def test_biased_odds_by_index_match_the_string_twin(language, odds, w):
    indices, horizon = language
    correct, q = odds
    ref = twin.Language.from_indices(indices, horizon)

    def f(x, b):
        return correct if b == ref.contains(x) else (1 << q) - correct

    m = acceptance_martingale(
        AcceptanceSpec.biased(LanguageView.from_indices(indices, horizon), correct, q)
    )
    for k in range(len(w) + 1):
        v = w.prefix(k)
        want = outcome(string_product, f, lambda n: q, v)
        got = outcome(lambda: as_fraction(m.value(v)))
        assert got == want


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 62), st.integers(0, 1 << 30), max_size=20),
       st.integers(0, 3), prefixes)
def test_gap_odds_by_index_match_the_string_twin(rows, shift, w):
    # t(n) varies with the length; row i answers g = rows[i] mod 2**t(n) + 1
    def t(n):
        return (n + shift) % 4

    def g_of(x):
        return rows.get(cantor.index_of(x), 0) % ((1 << t(len(x))) + 1)

    def f(x, b):
        return g_of(x) if b else (1 << t(len(x))) - g_of(x)

    m = acceptance_martingale(
        AcceptanceSpec.from_gap(lambda i: g_of(string_index(i)), t)
    )
    for k in range(len(w) + 1):
        v = w.prefix(k)
        assert as_fraction(m.value(v)) == string_product(f, t, v)
        *_, (_, log_den) = m.path(v)
        assert log_den == sum(t(len(string_index(i))) for i in range(k))


def test_row_sum_violation_names_the_string():
    spec = AcceptanceSpec(counts=lambda i: (1, 2), q=lambda n: n, name="bad")
    with pytest.raises(RowSumViolation) as err:
        acceptance_martingale(spec).value(BitString("0000"))
    assert str(err.value) == "bad: f(BitString(''),0)+f(BitString(''),1) = 1+2 != 2**0"
    with pytest.raises(RowSumViolation) as err:
        spec.row(4)
    assert str(err.value) == "bad: f(BitString('01'),0)+f(BitString('01'),1) = 1+2 != 2**2"
