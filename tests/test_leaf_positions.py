"""Leveled constructions built from row positions, against their twins.

``condexp_martingale`` fills its leaf row from a sparse map of row
positions, and the configuration parses cover members and value keys
straight to integers.  The twins in ``leaves_v1`` read one ``BitString`` per
leaf, member or key, as martlab did before.
"""

import pytest
from hypothesis import given, settings, strategies as st

from martlab import cantor, config
from martlab.cantor import BitString
from martlab.config import build_construction
from martlab.constructions import Cover, condexp_martingale
from martlab.errors import ConfigError, MartlabError, NegativeValue

import leaves_v1


def _kernel_pairs(m, bits):
    """The kernel's ``(zero, one, log_den)`` at each prefix of ``bits``."""
    kernel, pairs = m.ratio.kernel(), []
    pairs.append(next(kernel))
    for b in bits:
        pairs.append(kernel.send(b))
    return pairs


def _raised(build, *args):
    """``build(*args)``, or the type and message of what it raised."""
    try:
        return build(*args)
    except (ValueError, MartlabError) as exc:
        return type(exc), str(exc)


@st.composite
def leaf_maps(draw):
    """A level and a sparse map of row positions: empty, full or in between,
    inserted in any order, with a negative value now and then."""
    n = draw(st.integers(0, 7), label="level")
    size = 1 << n
    shape = draw(st.sampled_from(["empty", "full", "sparse"]))
    if shape == "empty":
        positions = []
    elif shape == "full":
        positions = draw(st.permutations(range(size)))
    else:
        positions = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size))
    values = st.integers(0, 9) | st.integers(-3, -1) if draw(st.booleans()) else st.integers(0, 9)
    return n, {i: draw(values) for i in positions}


@settings(max_examples=200, deadline=None)
@given(leaf_maps(), st.data())
def test_sparse_condexp_matches_the_dense_twin(case, data):
    n, values = case
    try:
        dense = leaves_v1.condexp_martingale(lambda x: values.get(x.to_int(), 0), n)
    except NegativeValue as exc:
        with pytest.raises(NegativeValue) as raised:
            condexp_martingale(values, n)
        assert str(raised.value) == str(exc)
        return
    sparse = condexp_martingale(values, n)
    for k in range(n + 3):
        assert sparse.ratio.row(k) == dense.ratio.row(k)
    depth = n + 2
    for v in range(1 << depth):
        w = BitString.from_int(v, depth)
        for k in range(depth + 1):
            assert sparse.ratio.numerator(w.prefix(k)) == dense.ratio.numerator(w.prefix(k))
    bits = data.draw(st.lists(st.integers(0, 1), max_size=n + 3), label="path")
    assert _kernel_pairs(sparse, bits) == _kernel_pairs(dense, bits)
    assert sparse.initial_capital == dense.initial_capital
    assert sparse.meta == dense.meta == {"construction": "condexp"}


def test_a_negative_value_names_the_least_negative_position():
    # 0110 is inserted first; the twin meets 0011 first, in index order
    values = {0b0110: -2, 0b0011: -1, 0b1001: -5, 0b0000: 1}
    with pytest.raises(NegativeValue) as dense:
        leaves_v1.condexp_martingale(lambda x: values.get(x.to_int(), 0), 4)
    with pytest.raises(NegativeValue, match=r"f\(BitString\('0011'\)\) = -1 is negative"):
        condexp_martingale(values, 4)
    assert str(dense.value) == "f(BitString('0011')) = -1 is negative"


def test_level_zero_and_empty_maps():
    assert condexp_martingale({}, 0).ratio.row(0) == ([0], 0)
    assert condexp_martingale({0: 5}, 0).ratio.row(2) == ([5, 5, 5, 5], 0)
    assert condexp_martingale({}, 3).ratio.row(3) == ([0] * 8, 0)


@pytest.mark.parametrize("position", [-1, 8, 1 << 40])
def test_a_position_off_the_level_is_refused(position):
    with pytest.raises(ValueError, match=f"position {position} is not a 3-bit value"):
        condexp_martingale({0: 1, position: 2}, 3)


@pytest.mark.parametrize("members, message", [
    (["0b1"], "not a bit string: '0b1'"),  # int(m, 2) alone would read 1
    (["1_0", "01"], "not a bit string: '1_0'"),
    (["0", "+1"], "not a bit string: '+1'"),  # text before any length
    (["011", BitString("0"), "0"], "member 0 does not have length 3"),
])
def test_from_members_checks_text_before_lengths(members, message):
    with pytest.raises(ValueError) as raised:
        Cover.from_members(members, 3)
    assert str(raised.value) == message


def test_from_members_reads_text_and_strings_alike():
    assert Cover.from_members([""], 0).level_row(0) == [1]
    assert Cover.from_members(["1", BitString("0"), "1"], 1).level_row(1) == [1, 1]
    assert Cover.from_members(["10", BitString("01")], 2).level_row(2) == [0, 1, 1, 0]


# -- the configuration's parse against the parent's ------------------------

_TEXT = st.text("01", max_size=5)
_KEY = _TEXT | st.sampled_from(["0x", "2", " 1", "0b1", "1_0", "+1", "-1"])
_MEMBER = _KEY | st.integers(0, 3) | st.none() | st.lists(st.integers(0, 1), max_size=2)
_GAP = st.integers(0, 8) | st.sampled_from([-1, 9, "3", "x", None])


def _same_build(spec):
    new = _raised(build_construction, spec)
    old = _raised(leaves_v1.build_construction, spec)
    if isinstance(old, tuple) or isinstance(new, tuple):
        assert new == old
        return new
    depth = new.freeze_depth if new.freeze_depth is not None else 15
    for k in range(depth + 1):
        assert new.ratio.row(k) == old.ratio.row(k)
    return new


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.lists(_MEMBER, max_size=8))
def test_cover_members_parse_as_the_parent_did(level, members):
    built = _same_build({"type": "cover", "level": level, "members": members})
    covers = _raised(config._level_covers, {"levels": {str(level): members}}, "family")
    if isinstance(built, tuple):  # the same error, under the family's field
        kind, message = built
        assert covers == (kind, message.replace("construction.members",
                                                f"family.levels.{level}"))
    else:
        assert [covers[level].level_row(k) for k in range(level + 1)] == [
            built.ratio.row(k)[0] for k in range(level + 1)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3),
       st.dictionaries(_KEY, st.integers(0, 8) | st.sampled_from([-1, "x"]), max_size=6))
def test_condexp_values_parse_as_the_parent_did_at_their_level(level, values):
    spec = {"type": "condexp", "level": level, "values": values}
    new = _raised(build_construction, spec)
    old = _raised(leaves_v1.build_construction, spec)
    wrong = [k for k in values if len(k) != level]
    if isinstance(old, tuple) and old[0] is ConfigError or not wrong:
        _same_build(spec)
    else:  # the parent dropped a key of another length; it is refused now
        assert new == (ConfigError,
                       f"construction.values: key {wrong[0]} does not have length {level}")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.dictionaries(_KEY.filter(lambda k: len(k) < 4), _GAP, max_size=6),
       _GAP)
def test_acceptance_gap_values_parse_as_the_parent_did(t, values, default):
    _same_build({"type": "acceptance-gap", "t": t, "values": values, "default": default})


# -- work guard -------------------------------------------------------------


def test_level_20_configs_build_no_string_per_leaf(monkeypatch):
    made = []
    of, init = cantor._of, BitString.__init__

    def counted_of(code):
        made.append(code)
        return of(code)

    def counted_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(cantor, "_of", counted_of)
    monkeypatch.setattr(BitString, "__init__", counted_init)
    n = 20
    for spec in (
        {"type": "condexp", "level": n,
         "values": {"0" * n: 3, "01" * (n // 2): 1, "1" * n: 2}},
        {"type": "cover", "level": n, "members": ["0" * n, "01" * (n // 2), "1" * n]},
    ):
        m = build_construction(spec)
        assert m.initial_capital.num > 0
        assert made == [], spec["type"]
