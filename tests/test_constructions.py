import gc
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from martlab.cantor import (
    BitString,
    EMPTY,
    LanguageView,
    all_strings,
    char_prefix,
    string_index,
)
from martlab.circuits import TruthTable, mcsp_cover, mcsp_witness_relation
from martlab.constructions import (
    AcceptanceSpec,
    Cover,
    acceptance_martingale,
    biimmunity_martingale,
    condexp_martingale,
    cover_martingale,
    subset_cover,
    subset_martingale,
)
from martlab.dyadic import Dyadic, ONE, ZERO
from martlab.errors import (
    CapExceeded,
    NegativeValue,
    RowSumViolation,
)
from martlab.martingale import verify_averaging
from martlab.oracle import WitnessRelation, sat_relation

import leaves_v1
import relations_v1
from language_twin import census
from relations_v1 import CountMode


def marked(horizon=16):
    return LanguageView.from_indices([1, 3], horizon=horizon)


# -- cover ----------------------------------------------------------------


def test_cover_figure_values():
    m = cover_martingale(
        Cover.from_members(["0001", "0010", "0011", "0110", "1101"], 4)
    )
    assert m.value(EMPTY) == Dyadic(5, 4)
    assert m.value(BitString("0")) == Dyadic(1, 1)
    assert m.value(BitString("1")) == Dyadic(1, 3)
    assert m.value(BitString("11")) == Dyadic(1, 2)
    assert m.value(BitString("0010")) == ONE


def test_cover_empty_and_full():
    empty = cover_martingale(Cover.from_members([], 3))
    assert empty.value(EMPTY) == ZERO
    assert empty.value(BitString("101")) == ZERO
    full = cover_martingale(Cover.from_members(all_strings(3), 3))
    for w in ("", "1", "01", "110"):
        assert full.value(BitString(w)) == ONE


def test_cover_freeze():
    m = cover_martingale(Cover.from_members(["01"], 2))
    assert m.freeze_depth == 2
    assert m.value(BitString("0110")) == m.value(BitString("01"))
    assert m.value(BitString("0000")) == ZERO


def test_cover_numerator_and_value_count_once():
    # the approximate-counting check reads the numerator once per string
    members = Cover.from_members(["0001", "0110", "1101"], 4)
    calls = []

    def count(w):
        calls.append(str(w))
        return members.count(w)

    m = cover_martingale(Cover(4, count))
    for x in ("", "0", "011", "0110", "01101"):
        x = BitString(x)
        calls.clear()
        assert m.ratio.numerator(x) == members.count(x.prefix(4))
        assert calls == [str(x.prefix(4))]
        calls.clear()
        assert m.value(x) == Dyadic(members.count(x.prefix(4)), max(0, 4 - len(x)))
        assert calls == ([str(x.prefix(4))] if x else [])  # the root is the capital


def test_cover_level_cap():
    with pytest.raises(CapExceeded):
        cover_martingale(Cover.from_predicate(lambda x: True, 23))


def test_cover_from_sat_relation():
    # members of the cover: 4-bit truth tables with at least one model
    m = cover_martingale(Cover.from_relation(sat_relation(2), 4))
    assert m.value(EMPTY) == Dyadic(15, 4)
    assert m.value(BitString("0000")) == ZERO


def test_cover_gap_language_validates():
    # a gap 2*accepts - 2**k has the parity of 2**k, so no relation over a
    # full witness cube keeps a promise of gap 0 or 1: the mode is refused
    cheat = WitnessRelation("bad-gap", lambda n: 1, lambda n, y: range(1 << n))
    with pytest.raises(ValueError, match="exists/unique, got 'gap'"):
        Cover.from_relation(cheat, 2, "gap")


@pytest.mark.parametrize("decide, tag", [("exists", "SpanP"), ("unique", "#P")])
def test_cover_decide_mode_picks_the_class(decide, tag):
    # one accepting path out of one: a member in both modes; the class
    # ``tag`` each mode counts in is checked in test_counting_classes
    everything = WitnessRelation("all", lambda n: 0, lambda n, y: range(1 << n))
    m = cover_martingale(Cover.from_relation(everything, 2, decide))
    assert m.value(EMPTY) == ONE


def test_cover_rejects_an_unknown_decide_mode():
    with pytest.raises(ValueError, match="exists/unique, got 'maybe'"):
        Cover.from_relation(sat_relation(2), 4, "maybe")


def inside(B, x):
    # brute-force twin of subset_cover's membership: every 1 bit marks B
    return all(B.contains_index(i) for i, b in enumerate(x) if b)


SUBSET_B = LanguageView.from_indices([0, 2, 3], 8)

# one cover of each kind, each with members at its level
COVER_KINDS = {
    "members": lambda census2: Cover.from_members(["0001", "0110", "1111"], 4),
    "predicate": lambda census2: Cover.from_predicate(lambda x: True, 3),
    "predicate-level-0": lambda census2: Cover.from_predicate(lambda x: True, 0),
    "relation": lambda census2: Cover.from_relation(sat_relation(2), 4),
    "image-relation": lambda census2: Cover.from_relation(
        mcsp_witness_relation(1, 1), 2
    ),
    "subset": lambda census2: subset_cover(SUBSET_B, 4),
    "mcsp": lambda census2: mcsp_cover(2, 2, census2),
}

SAT2_TWIN = relations_v1.twin(sat_relation(2), relations_v1.sat_verify(2))
MCSP11_TWIN = relations_v1.twin(mcsp_witness_relation(1, 1), relations_v1.mcsp_verify(1, 1))

# each cover kind's membership at its level, decided without the cover's count
MEMBERSHIP_TWINS = {
    "members": lambda census2: lambda x: str(x) in {"0001", "0110", "1111"},
    "predicate": lambda census2: lambda x: True,
    "predicate-level-0": lambda census2: lambda x: True,
    "relation": lambda census2: lambda x: (
        relations_v1.count(SAT2_TWIN, CountMode.WITNESS_COUNT, x) > 0
    ),
    "image-relation": lambda census2: lambda x: (
        relations_v1.count(MCSP11_TWIN, CountMode.WITNESS_COUNT, x) > 0
    ),
    "subset": lambda census2: lambda x: inside(SUBSET_B, x),
    "mcsp": lambda census2: lambda x: (
        census2.sizes[TruthTable.from_bits(BitString(x.bits()[3:])).mask] <= 2
    ),
}


@pytest.mark.parametrize("kind", COVER_KINDS)
def test_cover_contains_only_strings_of_its_level(kind, census2):
    cover = COVER_KINDS[kind](census2)
    assert any(cover.contains(x) for x in all_strings(cover.level))
    for n in {0, cover.level - 1, cover.level + 1} - {cover.level, -1}:
        assert not any(cover.contains(x) for x in all_strings(n)), n


@pytest.mark.parametrize("kind", COVER_KINDS)
def test_cover_contains_matches_an_independent_twin(kind, census2):
    cover = COVER_KINDS[kind](census2)
    member = MEMBERSHIP_TWINS[kind](census2)
    leaves = list(all_strings(cover.level))
    assert [cover.contains(x) for x in leaves] == [member(x) for x in leaves]


def test_cover_root_law_randomized():
    rnd = random.Random(7)
    for n in range(1, 7):
        for _ in range(5):
            members = {
                BitString.from_int(rnd.randrange(1 << n), n)
                for _ in range(rnd.randrange(1 << n))
            }
            m = cover_martingale(Cover.from_members(members, n))
            assert m.value(EMPTY) == Dyadic(len(members), n)
            for x in all_strings(n):
                expected = ONE if x in members else ZERO
                assert m.value(x) == expected


# -- conditional expectation ----------------------------------------------


def figure_condexp():
    values = {"0001": 2, "0010": 1, "0011": 4, "0110": 3, "1101": 4}
    return condexp_martingale({int(x, 2): v for x, v in values.items()}, 4)


def test_condexp_figure_values():
    m = figure_condexp()
    assert m.value(EMPTY) == Dyadic(7, 3)
    assert m.value(BitString("0")) == Dyadic(5, 2)
    assert m.value(BitString("001")) == Dyadic(5, 1)
    assert m.value(BitString("0011")) == Dyadic(4)


def test_condexp_constant_one():
    m = condexp_martingale(dict.fromkeys(range(8), 1), 3)
    for w in ("", "0", "11", "010"):
        assert m.value(BitString(w)) == ONE


def test_condexp_rejects_negative():
    with pytest.raises(NegativeValue):
        condexp_martingale(dict.fromkeys(range(4), -1), 2).value(EMPTY)


def test_condexp_indicator_equals_cover():
    rnd = random.Random(11)
    for n in (2, 4):
        members = {
            BitString.from_int(v, n)
            for v in rnd.sample(range(1 << n), (1 << n) // 2)
        }
        as_cover = cover_martingale(Cover.from_members(members, n))
        as_condexp = condexp_martingale({x.to_int(): 1 for x in members}, n)
        stack = [EMPTY]
        while stack:
            w = stack.pop()
            assert as_cover.value(w) == as_condexp.value(w)
            if len(w) < n + 2:
                stack.extend((w.append(0), w.append(1)))


def test_condexp_leaf_law_randomized():
    rnd = random.Random(13)
    for n in range(1, 7):
        values = {
            str(BitString.from_int(v, n)): rnd.randrange(8)
            for v in range(1 << n)
        }
        m = condexp_martingale({int(x, 2): v for x, v in values.items()}, n)
        for x in all_strings(n):
            assert m.value(x) == Dyadic(values[str(x)])


# -- counting kernels against their brute-force twins -----------------------


def scan_ext_count(members, w):
    # brute-force twin of Cover.from_members' sorted-range count
    return sum(1 for m in members if m.prefix(len(w)) == w)


def extension_sum(leaf, w, n):
    # brute-force twin of the pairwise subtree sums
    free = n - len(w)
    return sum(leaf(w + BitString.from_int(v, free)) for v in range(1 << free))


def check_ext_count(level, values, probes):
    members = [BitString.from_int(v, level) for v in values]
    cover = Cover.from_members(members, level)
    top = (1 << level) - 1
    for p in probes:
        x = BitString.from_int(min(max(p, 0), top), level)
        for k in range(level + 1):
            w = x.prefix(k)
            assert cover.count(w) == scan_ext_count(members, w)
        assert cover.contains(x) == (x in members)
        assert not cover.contains(x.append(1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_explicit_ext_count_matches_member_scan(data):
    level = data.draw(st.integers(0, 12), label="level")
    top = (1 << level) - 1
    values = data.draw(st.sets(st.integers(0, top), max_size=64), label="members")
    probes = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    # members and their neighbours sit at the edges of the counted ranges
    probes += [v + d for v in sorted(values)[:6] for d in (-1, 0, 1)]
    check_ext_count(level, values, probes)


def test_explicit_ext_count_empty_and_full_cube():
    for level in range(13):
        top = (1 << level) - 1
        probes = [0, 1, top // 3, top - 1, top]
        check_ext_count(level, [], probes)
        check_ext_count(level, range(top + 1), probes)


def test_subtree_sums_match_extension_sums():
    rnd = random.Random(37)
    for n in range(8):
        values = [rnd.randrange(5) for _ in range(1 << n)]
        marks = {v for v in range(1 << n) if rnd.random() < 0.4}

        def f(x):
            return values[x.to_int()]

        def member(x):
            return x.to_int() in marks

        def indicator(x):
            return 1 if member(x) else 0

        condexp = condexp_martingale(dict(enumerate(values)), n)
        cover = cover_martingale(Cover.from_predicate(member, n))
        for k in range(n + 2):
            for w in all_strings(k):
                free = max(0, n - k)
                expected = extension_sum(f, w.prefix(n), n)
                assert condexp.ratio.numerator(w) == expected
                assert condexp.value(w) == Dyadic(expected, free)
                expected = extension_sum(indicator, w.prefix(n), n)
                assert cover.ratio.numerator(w) == expected
                assert cover.value(w) == Dyadic(expected, free)


def test_generic_kernels_evaluate_each_leaf_once_in_order():
    seen = []

    def f(x):
        seen.append(x)
        return x.to_int().bit_count()

    assert verify_averaging(leaves_v1.condexp_martingale(f, 5), 7).passed
    assert seen == list(all_strings(5))
    seen.clear()
    cover = Cover.from_predicate(lambda x: f(x) % 2 == 1, 5)
    assert verify_averaging(cover_martingale(cover), 7).passed
    assert seen == list(all_strings(5))


def test_condexp_negative_names_first_leaf():
    # the least negative position is reported, whatever the map's order
    values = {int(x, 2): -1 for x in ("0110", "0011", "1001")}
    with pytest.raises(NegativeValue, match=r"f\(BitString\('0011'\)\) = -1"):
        condexp_martingale({**values, 0: 1}, 4)


def test_kernels_leave_no_garbage_cycles():
    # a self-referencing memo would keep each dropped martingale alive until
    # a full collection
    builds = (
        lambda: cover_martingale(
            Cover.from_members(["0001", "0110", "1101"], 4)
        ),
        lambda: cover_martingale(Cover.from_relation(sat_relation(2), 4)),
        lambda: cover_martingale(Cover.from_predicate(lambda x: x.bits()[0] == "1", 4)),
        lambda: condexp_martingale({v: v.bit_count() for v in range(16)}, 4),
    )
    gc.collect()
    gc.disable()
    try:
        for build in builds:
            assert verify_averaging(build(), 6).passed
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- subset ----------------------------------------------------------------


def test_subset_figure_values():
    m = subset_martingale(marked(), 4)
    assert m.value(EMPTY) == Dyadic(1, 2)
    assert m.value(BitString("0101")) == ONE
    assert m.value(BitString("1")) == ZERO
    assert m.value(BitString("01")) == Dyadic(1, 1)


def test_subset_full_and_empty():
    everything = LanguageView.from_indices(range(16), 16)
    m = subset_martingale(everything, 4)
    for w in ("", "0", "10", "111"):
        assert m.value(BitString(w)) == ONE
    nothing = LanguageView.from_indices([], horizon=16)
    m = subset_martingale(nothing, 4)
    assert m.value(EMPTY) == Dyadic(1, 4)
    assert m.value(BitString("0000")) == ONE
    assert m.value(BitString("0100")) == ZERO


def test_subset_leaf_count_law_randomized():
    rnd = random.Random(17)
    for n in range(1, 7):
        indices = [i for i in range(n) if rnd.random() < 0.5]
        B = LanguageView.from_indices(indices, horizon=n)
        m = subset_martingale(B, n)
        c = census(B, n)
        assert m.value(EMPTY) == Dyadic.pow2(c - n)
        unit_leaves = sum(1 for x in all_strings(n) if m.value(x) == ONE)
        assert unit_leaves == 1 << c


def test_subset_cover_counts_match_enumeration():
    B = marked()
    cover = subset_cover(B, 5)
    for w in ("", "0", "01", "0101", "11"):
        w = BitString(w)
        brute = sum(
            1
            for v in range(1 << (5 - len(w)))
            if inside(B, w + BitString.from_int(v, 5 - len(w)))
        )
        assert cover.count(w) == brute


def test_subset_mask_count_matches_brute_force_randomized():
    rnd = random.Random(41)
    for n in range(9):
        for _ in range(6):
            B = LanguageView.from_indices(
                [i for i in range(n) if rnd.random() < 0.6], horizon=n
            )
            cover = subset_cover(B, n)
            for k in range(n + 2):
                for w in all_strings(k):
                    if k <= n:
                        brute = sum(
                            1
                            for v in range(1 << n - k)
                            if inside(B, w + BitString.from_int(v, n - k))
                        )
                        assert cover.count(w) == brute, (n, w)
                    assert cover.contains(w) == (k == n and inside(B, w)), (n, w)


# -- acceptance ------------------------------------------------------------


def test_acceptance_figure_path():
    m = acceptance_martingale(AcceptanceSpec.biased(marked(), 3, 2))
    expected = [ONE, Dyadic(3, 1), Dyadic(9, 2), Dyadic(27, 3), Dyadic(81, 4)]
    S = BitString("0101")
    for n, value in enumerate(expected):
        assert m.value(S.prefix(n)) == value
    assert m.freeze_depth is None


def test_acceptance_fair_coin():
    spec = AcceptanceSpec(counts=lambda i: (2, 2), q=lambda n: 2)
    m = acceptance_martingale(spec)
    for w in ("", "0", "01", "110", "0101"):
        assert m.value(BitString(w)) == ONE


def test_acceptance_gap_error_free_machine():
    target = marked()

    def g(i):
        return 4 if target.contains_index(i) else 0

    m = acceptance_martingale(AcceptanceSpec.from_gap(g, lambda n: 2))
    S = char_prefix(target, 4)
    for n in range(5):
        assert m.value(S.prefix(n)) == Dyadic.pow2(n)
    # one wrong bit kills the capital
    assert m.value(BitString("1")) == ZERO


def test_acceptance_row_sum_checked():
    spec = AcceptanceSpec(counts=lambda i: (1, 1), q=lambda n: 2)
    with pytest.raises(RowSumViolation):
        acceptance_martingale(spec).value(BitString("0"))


def test_acceptance_rows_read_each_membership_once():
    # one membership (or gap) query decides both path counts of a row
    class Counted:
        def __init__(self, view):
            self.view, self.calls = view, 0

        def contains_index(self, i):
            self.calls += 1
            return self.view.contains_index(i)

    target = Counted(marked())
    spec = AcceptanceSpec.biased(target, 3, 2)
    for i in range(15):
        assert spec.row(i) == ((1, 3, 2) if target.view.contains_index(i) else (3, 1, 2))
        assert target.calls == i + 1
    gaps = []
    spec = AcceptanceSpec.from_gap(lambda i: gaps.append(i) or 1, lambda n: 1)
    assert [spec.row(i) for i in range(7)] == [(1, 1, 1)] * 7
    assert gaps == list(range(7))


def test_acceptance_gap_negative_rejected():
    spec = AcceptanceSpec.from_gap(lambda i: 5, lambda n: 2)
    with pytest.raises(NegativeValue):
        acceptance_martingale(spec).value(BitString("0"))


def test_acceptance_product_law_randomized():
    rnd = random.Random(19)
    for _ in range(10):
        q = rnd.randrange(1, 4)
        rows = {}

        def f(i, b, q=q, rows=rows):
            if i not in rows:
                f1 = rnd.randrange(0, (1 << q) + 1)
                rows[i] = ((1 << q) - f1, f1)
            return rows[i][b]

        m = acceptance_martingale(
            AcceptanceSpec(counts=lambda i: (f(i, 0), f(i, 1)), q=lambda n: q)
        )
        for w in all_strings(6):
            product = Fraction(1)
            for i in range(6):
                product *= Fraction(f(i, int(w.bits()[i])), 1 << q)
            expected = Fraction(2) ** 6 * product
            got = m.value(w)
            assert Fraction(got.num, 1 << got.log_den) == expected


def test_acceptance_growth_bound():
    # correctness 1 - 2^-q(k) with q(k) = 2k (the k = 0 row degenerates to 0)
    target = marked()

    def f(i, b):
        k = len(string_index(i))
        correct = (1 << (2 * k)) - 1
        return correct if b == int(target.contains_index(i)) else 1

    spec = AcceptanceSpec(counts=lambda i: (f(i, 0), f(i, 1)), q=lambda k: 2 * k)
    m = acceptance_martingale(spec)
    for n in range(1, 7):
        S = char_prefix(target, n)
        lhs = m.value(S)
        bound = Fraction(2) ** n
        for i in range(n):
            bound *= 1 - Fraction(1, 2 ** (2 * len(string_index(i))))
        assert Fraction(lhs.num, 1 << lhs.log_den) >= bound


def test_acceptance_log_denominator_matches_resum():
    # non-constant q, queried deep first and then at shallower, unseen prefixes
    def q(k):
        return k % 3 + 1

    m = acceptance_martingale(AcceptanceSpec.from_gap(lambda i: 1, q))
    rnd = random.Random(23)
    for n in (40, 7, 0, 41, 13, 100, 99):
        w = BitString.from_int(rnd.getrandbits(n), n) if n else EMPTY
        resum = sum(q(len(string_index(i))) for i in range(n))
        *_, (num, log_den) = m.path(w)
        assert log_den == resum
        assert Dyadic(num, log_den) == m.value(w)
    assert m.ratio.row(9)[1] == sum(q(len(string_index(i))) for i in range(9))


def test_acceptance_deep_cold_prefix():
    # 5,000 levels evaluated in one call, past the default recursion limit
    n = 5000
    members = range(0, n, 3)
    target = LanguageView.from_indices(members, horizon=n + 1)
    m = acceptance_martingale(AcceptanceSpec.biased(target, 3, 2))
    w = BitString("1" * n)
    # a 1 bit wins odds 3/4 on a member and 1/4 elsewhere
    expected = Dyadic(2**n * 3 ** len(members), 2 * n)
    assert m.value(w) == expected
    # a further 0 bit wins odds 3/4 off the language's members
    assert m.value(w.append(0)) == Dyadic(3 * expected.num, expected.log_den + 1)


def _last(path):
    for last in path:
        pass
    return Dyadic(*last)


def test_deep_cold_prefix_memory_is_linear():
    # a value and a path scan each keep one running product, not the path's
    # values: a few MiB of numerators here, past the default recursion limit
    n = 5000
    target = LanguageView.from_indices(range(0, n, 3), horizon=n + 1)
    w = BitString("1" * n)
    for m in (
        acceptance_martingale(AcceptanceSpec.biased(target, 3, 2)),
        biimmunity_martingale(target),
    ):
        for walk in (m.value, lambda w: _last(m.path(w))):
            tracemalloc.start()
            try:
                value = walk(w)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 << 20
            assert value == m.value(w) == _last(m.path(w))


def test_cover_verify_retains_little_memory():
    # values past the freeze depth are not memoized per query
    m = cover_martingale(
        Cover.from_members(["0001", "0010", "0011", "0110", "1101"], 4)
    )
    tracemalloc.start()
    try:
        assert verify_averaging(m, 14).passed
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


# -- bi-immunity -----------------------------------------------------------


def test_biimmunity_figure_values():
    m = biimmunity_martingale(marked())
    assert m.value(BitString("0101")) == Dyadic(4)
    assert m.value(BitString("0100")) == ZERO
    assert m.value(BitString("11")) == Dyadic(2)


def test_biimmunity_empty_language():
    m = biimmunity_martingale(LanguageView.from_indices([], horizon=16))
    for w in ("", "0", "10", "1101"):
        assert m.value(BitString(w)) == ONE


def test_biimmunity_everything():
    m = biimmunity_martingale(LanguageView.from_indices(range(16), 16))
    assert m.value(BitString("1111")) == Dyadic(16, 0)
    assert m.value(BitString("1110")) == ZERO
    assert m.value(BitString("0111")) == ZERO


def test_biimmunity_value_law_exhaustive():
    rnd = random.Random(23)
    for _ in range(5):
        indices = [i for i in range(6) if rnd.random() < 0.5]
        A = LanguageView.from_indices(indices, horizon=8)
        m = biimmunity_martingale(A)
        for length in range(7):
            prefix = char_prefix(A, length)
            for w in all_strings(length):
                dominates = all(
                    a == "1" for a, b in zip(w.bits(), prefix.bits()) if b == "1"
                )
                expected = (
                    Dyadic.pow2(prefix.to_int().bit_count()) if dominates else ZERO
                )
                assert m.value(w) == expected


def test_biimmunity_support_law():
    # positive capital exactly on prefixes dominating the language
    A = marked(horizon=8)
    m = biimmunity_martingale(A)
    for w in all_strings(5):
        prefix = char_prefix(A, 5)
        dominates = all(a == "1" for a, b in zip(w.bits(), prefix.bits()) if b == "1")
        assert (m.value(w) > ZERO) == dominates


def test_biimmunity_deep_cold_prefix():
    n = 5000
    indices = range(2, n, 7)
    m = biimmunity_martingale(LanguageView.from_indices(indices, horizon=n + 1))
    w = BitString("1" * n)
    assert m.value(w) == Dyadic(1 << len(indices))
    assert m.value(w.append(1)) == m.value(w)
    assert m.value(BitString("1" * (n - 1) + "0")) == m.value(w)
    assert m.value(BitString("0" * n)) == ZERO


# -- cross-construction averaging -------------------------------------------


@pytest.mark.parametrize("depth", [5])
def test_all_figures_average_exactly(depth):
    from martlab.golden import build_figure, figure_ids

    for fid in figure_ids():
        assert verify_averaging(build_figure(fid), depth).passed


def test_unbounded_constructions_average_to_depth_twelve():
    target = LanguageView.from_indices([1, 3, 6, 10], horizon=16)
    assert verify_averaging(biimmunity_martingale(target), 12).passed
    assert verify_averaging(
        acceptance_martingale(AcceptanceSpec.biased(target, 3, 2)), 12
    ).passed


def test_leveled_constructions_average_past_their_freeze():
    rnd = random.Random(29)
    for n in (2, 4):
        members = [
            BitString.from_int(v, n)
            for v in rnd.sample(range(1 << n), 1 << (n - 1))
        ]
        for m in (
            cover_martingale(Cover.from_members(members, n)),
            condexp_martingale({v: v % 3 for v in range(1 << n)}, n),
            subset_martingale(marked(), n),
        ):
            assert verify_averaging(m, n + 3).passed
