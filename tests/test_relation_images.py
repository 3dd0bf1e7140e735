"""Relation images: the image contract, the level counts of every relation,
and the image covers, each against a per-input twin."""

import functools

import pytest

from martlab.cantor import BitString, all_strings
from martlab.circuits import mcsp_witness_relation
from martlab.constructions import Cover
from martlab.errors import CapExceeded, GapViolation, UniquenessViolation
from martlab.kolmogorov import kolmogorov_witness_relation
from martlab.machine import BudgetPoly
from martlab.oracle import (
    CountMode,
    WitnessRelation,
    count,
    explicit_set_relation,
    level_counts,
    sat_relation,
)

import relations_v1

BUDGETS = (BudgetPoly(4, 1, 16), BudgetPoly(9, 1, 48), BudgetPoly(5, 1, 20))
# the short-program relations of the tree-audit bench workload
SHORT_PROGRAMS = list(zip((4, 5, 6), BUDGETS)) + [(0, BUDGETS[0]), (2, BUDGETS[1])]
MCSP_SIZES = [(1, 0), (1, 1), (2, 0), (2, 1)]


def _witnesses(rel, n):
    k = rel.witness_length(n)
    return [BitString.from_int(v, k) for v in range(1 << k)]


@pytest.mark.parametrize("n, s", MCSP_SIZES)
def test_mcsp_image_matches_the_verify_it_replaced(n, s):
    rel = mcsp_witness_relation(n, s)
    verify_v1 = relations_v1.mcsp_verify(n, s)
    tables = list(all_strings(1 << n))
    for y in _witnesses(rel, 1 << n):
        image = rel.image(1 << n, y)
        for x in tables:
            assert verify_v1(x, y) == (image == x), (x, y)


@pytest.mark.parametrize("max_len, budget", SHORT_PROGRAMS, ids=str)
def test_short_program_image_matches_the_verify_it_replaced(max_len, budget):
    rel = kolmogorov_witness_relation(max_len, budget)
    verify_v1 = relations_v1.short_program_verify(max_len, budget)
    for n in range(7):
        strings = list(all_strings(n))
        for y in _witnesses(rel, n):
            image = rel.image(n, y)
            assert image is None or len(image) == n
            for x in strings:
                assert verify_v1(x, y) == (image == x), (x, y)


def test_mcsp_image_rejects_a_wrong_length():
    rel = mcsp_witness_relation(1, 0)
    y = BitString.from_int(0, rel.witness_length(2))
    with pytest.raises(ValueError, match="input must be a 2-bit table"):
        rel.image(3, y)
    with pytest.raises(ValueError, match="input must be a 2-bit table"):
        rel.verify(BitString("010"), y)


@functools.cache
def _relation(kind: str, *params) -> WitnessRelation:
    if kind == "mcsp":
        return mcsp_witness_relation(*params)
    return kolmogorov_witness_relation(*params)


@functools.cache
def _per_input_counts(key: tuple, n: int) -> list[int]:
    rel = _relation(*key)
    return [count(rel, CountMode.WITNESS_COUNT, x) for x in all_strings(n)]


MCSP_LEVELS = [(("mcsp", n, s), 1 << n) for n, s in MCSP_SIZES]
SHORT_LEVELS = [
    (("short", max_len, budget), n)
    for max_len, budget in SHORT_PROGRAMS
    for n in range(max_len + 1)
]


def test_level_counts_match_per_input_counts():
    for key, n in MCSP_LEVELS + SHORT_LEVELS:
        assert level_counts(_relation(*key), n) == _per_input_counts(key, n)
    # relations with no image: a truth table has one satisfying assignment
    # per 1 row, and an explicit member one empty witness
    members = ["", "1", "01", "10", "11", "010", "111"]
    explicit = explicit_set_relation("explicit", members)
    cases = [(sat_relation(v), 1 << v, lambda x: x.bits().count("1")) for v in range(4)]
    cases += [(explicit, n, lambda x: int(x.bits() in members)) for n in range(5)]
    cases += [(explicit_set_relation("empty", []), 2, lambda x: 0)]
    for rel, n, closed_form in cases:
        per_input = [count(rel, CountMode.WITNESS_COUNT, x) for x in all_strings(n)]
        expected = [closed_form(x) for x in all_strings(n)]
        assert level_counts(rel, n) == per_input == expected, (rel.name, n)


def test_level_counts_check_the_cube_before_any_image():
    seen = []

    def image(n, y):
        seen.append(y)
        return None

    wide = WitnessRelation.from_image("wide", lambda n: 23, image)
    with pytest.raises(CapExceeded, match="witness length 23 exceeds cap 22"):
        level_counts(wide, 2)
    negative = WitnessRelation.from_image("negative", lambda n: -1, image)
    with pytest.raises(ValueError, match="negative witness length -1"):
        level_counts(negative, 2)
    assert seen == []


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, UniquenessViolation, GapViolation) as exc:
        return type(exc), str(exc)


def _per_input_twin(key: tuple, level: int, decide: str) -> Cover:
    """The cover decided leaf by leaf from per-input counts."""
    rel = _relation(*key)

    def member(x: BitString) -> bool:
        accepts = _per_input_counts(key, level)[x.to_int()]
        if decide == "unique" and accepts > 1:
            raise UniquenessViolation(f"{rel.name}: {accepts} witnesses on {x!r}")
        if decide == "gap":
            gap = 2 * accepts - (1 << rel.witness_length(level))
            if gap not in (0, 1):
                raise GapViolation(f"{rel.name}: gap {gap} on {x!r} is not 0 or 1")
            return gap == 1
        return accepts > 0

    return Cover.from_predicate(member, level)


# each mcsp size at its level and one below, which is the wrong table length
SWEEP_CASES = MCSP_LEVELS + [(key, n - 1) for key, n in MCSP_LEVELS]
SWEEP_CASES += [(key, n) for key, n in SHORT_LEVELS if n in (0, 2, key[1])]


@pytest.mark.parametrize("decide", ["exists", "unique", "gap"])
def test_image_cover_matches_per_input_twin(decide):
    raised = set()
    for key, level in SWEEP_CASES:
        cover = Cover.from_relation(_relation(*key), level, decide)
        twin = _per_input_twin(key, level, decide)
        for k in range(level + 2):
            for w in all_strings(k):
                got = _outcome(cover.ext_count, w)
                assert got == _outcome(twin.ext_count, w), (cover.name, level, w)
                if isinstance(got, tuple):
                    raised.add(got[0])
        for x in all_strings(level):
            assert _outcome(cover.contains, x) == _outcome(twin.contains, x)
    # every mode meets the wrong-level error, and each checking mode its own
    expected = {ValueError}
    expected |= {"exists": set(), "unique": {UniquenessViolation},
                 "gap": {GapViolation}}[decide]
    assert raised == expected


def test_image_cover_sweeps_the_cube_once_at_its_first_query():
    calls = []

    def image(n, y):  # witness v accepts the input v mod 2**n
        calls.append(y)
        return BitString.from_int(y.to_int() % (1 << n), n)

    rel = WitnessRelation.from_image("mod", lambda n: n + 1, image)
    cover = Cover.from_relation(rel, 3)
    assert calls == []
    assert cover.ext_count(BitString("")) == 8
    assert cover.contains(BitString("101"))
    assert [cover.ext_count(w) for w in all_strings(2)] == [2, 2, 2, 2]
    # every length-3 string is a member, and no string of another length
    assert not cover.contains(BitString("01"))
    assert not cover.contains(BitString("0101"))
    assert len(calls) == 16
