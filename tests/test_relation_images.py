"""Relations and what their witnesses accept: the image contract, the level
counts of every built-in relation and the covers they decide, each against
the per-input twin in ``relations_v1``.  A relation takes each witness as
its int; the twin's verifiers take it as a ``BitString``, converted here."""

import functools
from dataclasses import replace
from itertools import product

import pytest

from martlab import cantor
from martlab.cantor import BitString, all_strings
from martlab.circuits import mcsp_witness_relation
from martlab.constructions import Cover
from martlab.errors import CapExceeded, UniquenessViolation
from martlab.kolmogorov import kolmogorov_witness_relation
from martlab.machine import BudgetPoly, table_mask
from martlab.oracle import (
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
# explicit member sets: members of several lengths, the empty member alone,
# and no member
EXPLICIT_SETS = [("", "1", "01", "10", "11", "010", "111"), ("",), ()]


def _witnesses(rel, n):
    """Each witness of the level's cube: its int, and its ``BitString`` for
    the twin's verifiers."""
    k = rel.witness_length(n)
    return [(y, BitString.from_int(y, k)) for y in range(1 << k)]


def _accepted(rel, n, y) -> list[int]:
    """The inputs ``y`` accepts, checked to be distinct indices of the level."""
    accepted = list(rel.accepts(n, y))
    assert len(set(accepted)) == len(accepted)
    assert all(0 <= i < 1 << n for i in accepted)
    return accepted


@pytest.mark.parametrize("n, s", MCSP_SIZES)
def test_mcsp_image_matches_the_verify_it_replaced(n, s):
    rel = mcsp_witness_relation(n, s)
    verify_v1 = relations_v1.mcsp_verify(n, s)
    tables = list(all_strings(1 << n))
    for y, y_bits in _witnesses(rel, 1 << n):
        accepted = _accepted(rel, 1 << n, y)
        assert len(accepted) <= 1
        for x in tables:
            assert verify_v1(x, y_bits) == (x.to_int() in accepted), (x, y_bits)


@pytest.mark.parametrize("max_len, budget", SHORT_PROGRAMS, ids=str)
def test_short_program_image_matches_the_verify_it_replaced(max_len, budget):
    rel = kolmogorov_witness_relation(max_len, budget)
    verify_v1 = relations_v1.short_program_verify(max_len, budget)
    for n in range(7):
        strings = list(all_strings(n))
        for y, y_bits in _witnesses(rel, n):
            accepted = _accepted(rel, n, y)
            assert len(accepted) <= 1
            for x in strings:
                assert verify_v1(x, y_bits) == (x.to_int() in accepted), (x, y_bits)


@pytest.mark.parametrize("n, s", MCSP_SIZES)
def test_mcsp_counts_are_the_programs_computing_each_table(n, s):
    # every op sequence of 1..2s+1 ops with at most s gates, whatever its
    # witness layout; a sequence the stack rejects computes no table
    rows = 1 << n
    pushes = [("VAR", i) for i in range(n)] + [("CONST", 0), ("CONST", 1)]
    gates = [("NOT",), ("AND",), ("OR",)]
    programs = [0] * (1 << rows)
    for k in range(1, 2 * s + 2):
        for ops in product(pushes + gates, repeat=k):
            mask = table_mask(n, ops)
            if mask is not None and sum(op in gates for op in ops) <= s:
                programs[int(format(mask, f"0{rows}b")[::-1], 2)] += 1  # row 0 first
    rel = mcsp_witness_relation(n, s)
    assert level_counts(rel, rows) == programs
    assert len(list(rel.witnesses(rows))) == sum(programs)


def test_mcsp_image_rejects_a_wrong_length():
    rel = mcsp_witness_relation(1, 0)
    with pytest.raises(ValueError, match="input must be a 2-bit table"):
        rel.accepts(3, 0)
    with pytest.raises(ValueError, match="input must be a 2-bit table"):
        count(rel, BitString("010"))


@functools.cache
def _relation(kind: str, *params) -> WitnessRelation:
    if kind == "sat":
        return sat_relation(*params)
    if kind == "explicit":
        return explicit_set_relation("explicit", params)
    if kind == "mcsp":
        return mcsp_witness_relation(*params)
    return kolmogorov_witness_relation(*params)


_VERIFY = {
    "sat": relations_v1.sat_verify,
    "explicit": lambda *members: relations_v1.explicit_verify(members),
    "mcsp": relations_v1.mcsp_verify,
    "short": relations_v1.short_program_verify,
}


@functools.cache
def _per_input_counts(key: tuple, n: int) -> list[int]:
    """The twin's accepting-path count of every length-``n`` input."""
    twin = relations_v1.twin(_relation(*key), _VERIFY[key[0]](*key[1:]))
    return [relations_v1.count(twin, relations_v1.CountMode.WITNESS_COUNT, x)
            for x in all_strings(n)]


SAT_LEVELS = [(("sat", v), 1 << v) for v in range(4)]
EXPLICIT_LEVELS = [(("explicit", *members), n) for members in EXPLICIT_SETS
                   for n in range(4)]
MCSP_LEVELS = [(("mcsp", n, s), 1 << n) for n, s in MCSP_SIZES]
SHORT_LEVELS = [
    (("short", max_len, budget), n)
    for max_len, budget in SHORT_PROGRAMS
    for n in range(max_len + 1)
]


def test_sat_and_explicit_accepts_match_the_verify_they_replaced():
    for key, n in SAT_LEVELS + EXPLICIT_LEVELS:
        rel = _relation(*key)
        verify_v1 = _VERIFY[key[0]](*key[1:])
        for y, y_bits in _witnesses(rel, n):
            accepted = _accepted(rel, n, y)
            for x in all_strings(n):
                assert verify_v1(x, y_bits) == (x.to_int() in accepted), (key, x, y_bits)


def test_level_counts_match_per_input_counts():
    for key, n in SAT_LEVELS + EXPLICIT_LEVELS + MCSP_LEVELS + SHORT_LEVELS:
        assert level_counts(_relation(*key), n) == _per_input_counts(key, n), (key, n)
    # in closed form: a truth table has one satisfying assignment per 1 row,
    # and an explicit member one empty witness
    for key, n in SAT_LEVELS:
        expected = [x.bits().count("1") for x in all_strings(n)]
        assert level_counts(_relation(*key), n) == expected
    for key, n in EXPLICIT_LEVELS:
        expected = [int(x.bits() in key[1:]) for x in all_strings(n)]
        assert level_counts(_relation(*key), n) == expected


def test_level_counts_check_the_cube_before_any_image():
    seen = []

    def image(n, y):
        seen.append(y)
        return None

    started = []

    def well_formed(n):  # records its call, not only its first witness
        started.append(n)
        return iter(range(4))

    for sweep in (None, well_formed):
        wide = WitnessRelation.from_image("wide", lambda n: 23, image, sweep)
        with pytest.raises(CapExceeded, match="witness length 23 exceeds cap 22"):
            level_counts(wide, 2)
        negative = WitnessRelation.from_image("negative", lambda n: -1, image, sweep)
        with pytest.raises(ValueError, match="negative witness length -1"):
            level_counts(negative, 2)
    assert seen == []
    assert started == []


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, UniquenessViolation) as exc:
        return type(exc), str(exc)


def _per_input_twin(key: tuple, level: int, decide: str) -> Cover:
    """The cover decided leaf by leaf from per-input counts."""
    rel = _relation(*key)

    def member(x: BitString) -> bool:
        accepts = _per_input_counts(key, level)[x.to_int()]
        if decide == "unique" and accepts > 1:
            raise UniquenessViolation(f"{rel.name}: {accepts} witnesses on {x!r}")
        return accepts > 0

    return Cover.from_predicate(member, level)


# every built-in relation at its levels; sat and mcsp also one below and one
# above, each the wrong table length
SWEEP_CASES = SAT_LEVELS + EXPLICIT_LEVELS + MCSP_LEVELS
SWEEP_CASES += [(key, n + d) for key, n in SAT_LEVELS + MCSP_LEVELS for d in (-1, 1)]
SWEEP_CASES += [(key, n) for key, n in SHORT_LEVELS if n in (0, 2, key[1])]


@pytest.mark.parametrize("decide", ["exists", "unique"])
def test_image_cover_matches_per_input_twin(decide):
    raised = set()
    for key, level in SWEEP_CASES:
        cover = Cover.from_relation(_relation(*key), level, decide)
        twin = _per_input_twin(key, level, decide)
        for k in range(level + 1):
            for w in all_strings(k):
                got = _outcome(cover.count, w)
                assert got == _outcome(twin.count, w), (cover.name, level, w)
                if isinstance(got, tuple):
                    raised.add(got[0])
        for x in all_strings(level):
            assert _outcome(cover.contains, x) == _outcome(twin.contains, x)
    # both modes meet the wrong-level error, and unique its own
    expected = {ValueError} | ({UniquenessViolation} if decide == "unique" else set())
    assert raised == expected


def test_image_cover_sweeps_the_cube_once_at_its_first_query():
    calls = []

    def image(n, y):  # witness y accepts the input y mod 2**n
        calls.append(y)
        return y % (1 << n)

    rel = WitnessRelation.from_image("mod", lambda n: n + 1, image)
    cover = Cover.from_relation(rel, 3)
    assert calls == []
    assert cover.count(BitString("")) == 8
    assert cover.contains(BitString("101"))
    assert [cover.count(w) for w in all_strings(2)] == [2, 2, 2, 2]
    # every length-3 string is a member, and no string of another length
    assert not cover.contains(BitString("01"))
    assert not cover.contains(BitString("0101"))
    assert len(calls) == 16


def test_level_counts_ask_each_witness_once():
    # one pass over the relation's sweep for every built-in, with no per-input
    # pass: the whole cube for sat and explicit, the well-formed witnesses of
    # a cube of 4,096 and of 16 for mcsp and short-program
    for key, n, swept in [(("sat", 3), 8, 8), (("explicit", "01", "10"), 2, 1),
                          (("mcsp", 1, 1), 2, 24), (("short", 2, BUDGETS[1]), 2, 6)]:
        rel = _relation(*key)
        asked = []

        def accepts(n, y, rel=rel):
            asked.append(y)
            return rel.accepts(n, y)

        counted = replace(rel, accepts=accepts)  # keeps the relation's sweep
        assert level_counts(counted, n) == level_counts(rel, n)
        assert asked == list(rel.witnesses(n)), key
        assert len(asked) == swept, key


def test_sweeps_skip_only_witnesses_that_accept_nothing():
    # each built-in at every length the cover tests read, MCSP_LEVELS among them
    for key, n in SWEEP_CASES:
        rel = _relation(*key)
        cube = range(1 << rel.witness_length(n))
        swept = list(rel.witnesses(n))
        assert all(a < b for a, b in zip(swept, swept[1:])), (key, n)
        assert set(swept) <= set(cube), (key, n)
        for y in sorted(set(cube) - set(swept)):
            # a skipped witness accepts nothing, or meets the same refusal of
            # a wrong table length as the swept ones
            got = _outcome(_accepted, rel, n, y)
            assert got == [] or isinstance(got, tuple) and got == _outcome(
                _accepted, rel, n, swept[0]), (key, n, y)
        # the same counts, or the same error, as a sweep of the whole cube
        assert _outcome(level_counts, rel, n) == _outcome(
            level_counts, replace(rel, well_formed=None), n), (key, n)
    # the image relations sweep a small part of their cubes
    for key, n, swept, cube in [(("mcsp", 2, 1), 4, 40, 4096),
                                (("short", 6, BUDGETS[2]), 3, 126, 512)]:
        rel = _relation(*key)
        assert (len(list(rel.witnesses(n))), 1 << rel.witness_length(n)) == (
            swept, cube), key


def test_level_counts_build_no_bitstring(monkeypatch):
    # every BitString, from text or from its code, gets its code set once
    relations = [_relation(*key) for key in (("sat", 3), ("explicit", "01", "10"),
                                             ("mcsp", 2, 1), ("short", 6, BUDGETS[2]))]
    built = []
    set_code = cantor._set_code

    def counting(s, code):
        built.append(code)
        set_code(s, code)

    monkeypatch.setattr(cantor, "_set_code", counting)
    assert [BitString("01"), cantor.string_index(4), BitString.from_int(1, 2)] == [
        BitString.from_int(1, 2)] * 3
    assert len(built) == 4
    built.clear()
    for rel, n in zip(relations, (8, 2, 4, 1)):
        assert sum(level_counts(rel, n)) > 0, rel.name
    assert built == []


def test_explicit_relation_counts_a_repeated_member_once():
    rel = explicit_set_relation("repeated", ["01", BitString("01"), "01", "1"])
    assert level_counts(rel, 2) == [0, 1, 0, 0]
    assert level_counts(rel, 1) == [0, 1]
    assert count(rel, BitString("01")) == 1
