"""Each counting martingale's numerator is a count in the class its
construction claims, checked prefix by prefix against a brute force.

A counting martingale is ``f(w) / 2**g(w)``, and the construction's docstring
names the class of ``f``: #P (accepting paths), SpanP (distinct outputs of
the accepting paths, Köbler–Schöning–Torán 1989) or GapP (accepting minus
rejecting paths, Fenner–Fortnow–Kurtz 1994).  For each claim this module
writes down a witness relation on the prefix ``w`` and compares the
numerators of the construction's ``row(k)`` with ``relations_v1.count`` of
that relation in the claimed mode, at every prefix up to a small depth:

- a relation cover counts the pairs ``(y, z)``, where ``y`` extends ``w`` to
  the level, ``z`` is a witness of the relation on ``wy`` and an accepting
  pair emits ``y``: distinct outputs for ``exists`` (SpanP), accepting pairs
  for ``unique`` (#P);
- the subset cover and ``mcsp_cover`` count distinct extensions ``y``
  (SpanP): those with ``wy`` inside ``B``, or those whose trailing truth
  table has a ``relations_v1.mcsp_verify`` witness;
- the kt cover counts (extension, program) pairs (#P), at its members and a
  sample of its other leaves;
- acceptance and bi-immunity count tuples of paths, one per enumerated
  string (#P);
- gap acceptance is the product over the enumerated strings of
  ``2**t + gap`` or ``2**t - gap``, as the string's bit is 1 or 0, where
  ``gap`` is accept minus reject of a relation with ``g(i)`` accepting
  witnesses out of ``2**t`` (GapP).

Explicit and predicate covers, general conditional expectations, constants,
sums, family sums, Borel–Cantelli aggregates and the approximate-counting
transform claim no class.
"""

import random
from dataclasses import replace
from math import prod

import pytest

from martlab.cantor import BitString, LanguageView, all_strings, index_of, string_index
from martlab.circuits import build_census, mcsp_cover, mcsp_witness_relation
from martlab.constructions import (
    AcceptanceSpec,
    Cover,
    acceptance_martingale,
    biimmunity_martingale,
    cover_martingale,
    subset_martingale,
)
from martlab.kolmogorov import kolmogorov_witness_relation, kt_cover_martingale
from martlab.oracle import WitnessRelation, explicit_set_relation, sat_relation

import relations_v1
from relations_v1 import CountMode, VerifyRelation

WITNESS, SPAN, GAP = (
    CountMode.WITNESS_COUNT,
    CountMode.DISTINCT_OUTPUT_COUNT,
    CountMode.ACCEPT_MINUS_REJECT,
)


def prefixes(depth: int) -> list[BitString]:
    """Every string of length at most ``depth``, level by level."""
    return [w for k in range(depth + 1) for w in all_strings(k)]


def mismatches(m, ws, expected) -> list[tuple[str, int, int]]:
    """``(w, numerator, expected(w))`` for each ``w`` in ``ws`` whose
    numerator in ``m``'s row ``|w|`` is not ``expected(w)``."""
    found = []
    for w in ws:
        got, want = m.ratio.row(len(w))[0][w.to_int()], expected(w)
        if got != want:
            found.append((w.bits(), got, want))
    return found


def counted(mode: CountMode, relation):
    """``w`` to the count in ``mode`` of the relation ``relation(|w|)`` on ``w``."""
    return lambda w: relations_v1.count(relation(len(w)), mode, w)


def extensions(level: int, width: int, accepts):
    """For a prefix length ``k``, the relation whose witnesses on a
    length-``k`` ``w`` are the pairs ``(y, z)``, ``y`` of ``level - k`` bits
    and ``z`` of ``width``; a pair accepts when ``accepts(wy, z)`` and emits
    ``y``."""

    def relation(k: int) -> VerifyRelation:
        free = level - k
        return VerifyRelation(
            f"extensions to {level}",
            lambda _: free + width,
            lambda w, yz: accepts(w + yz.prefix(free), BitString(yz.bits()[free:])),
            emit=lambda w, yz: yz.prefix(free),
        )

    return relation


def path_tuples(width, answers) -> VerifyRelation:
    """The relation whose witnesses on ``w`` are tuples of paths, one of
    ``width(i)`` bits for each enumerated string ``s_i``, ``i < |w|``, most
    significant first; a tuple accepts when every path ``p`` answers its
    string's bit: ``answers(i, p) == w[i]``."""

    def witness_length(n: int) -> int:
        return sum(map(width, range(n)))

    def verify(w: BitString, paths: BitString) -> bool:
        rest, left = paths.to_int(), len(paths)
        for i, bit in enumerate(w):
            left -= width(i)
            if answers(i, rest >> left & ((1 << width(i)) - 1)) != bit:
                return False
        return True

    return VerifyRelation("path tuples", witness_length, verify)


EVERYTHING = WitnessRelation("all", lambda n: 0, lambda n, y: range(1 << n))
SAT2 = sat_relation(2)
PAIR = ["01", "10"]


def _explicit(seed: int, level: int) -> list[str]:
    rnd = random.Random(seed)
    return [x.bits() for x in all_strings(level) if rnd.random() < 0.4]


# (relation, its relations_v1 verifier, level, decide mode, count mode)
RELATION_COVERS = {
    "sat-2 exists": (SAT2, relations_v1.sat_verify(2), 4, "exists", SPAN),
    "everything exists": (EVERYTHING, lambda x, z: True, 2, "exists", SPAN),
    "everything unique": (EVERYTHING, lambda x, z: True, 2, "unique", WITNESS),
    "explicit unique": (explicit_set_relation("pair", PAIR),
                        relations_v1.explicit_verify(PAIR), 2, "unique", WITNESS),
    "mcsp-witness exists": (mcsp_witness_relation(1, 0),
                            relations_v1.mcsp_verify(1, 0), 2, "exists", SPAN),
    **{
        f"explicit {decide} seed {seed}": (
            explicit_set_relation("random", _explicit(seed, 5)),
            relations_v1.explicit_verify(_explicit(seed, 5)), 5, decide, mode,
        )
        for seed in (3, 4)
        for decide, mode in (("exists", SPAN), ("unique", WITNESS))
    },
}


@pytest.mark.parametrize("case", RELATION_COVERS)
def test_relation_cover_counts_in_its_decide_mode(case):
    rel, verify, level, decide, mode = RELATION_COVERS[case]
    m = cover_martingale(Cover.from_relation(rel, level, decide))
    relation = extensions(level, rel.witness_length(level), verify)
    assert mismatches(m, prefixes(level), counted(mode, relation)) == []


@pytest.mark.parametrize("seed", range(3))
def test_subset_cover_counts_distinct_extensions_inside_b(seed):
    n, rnd = 6, random.Random(seed)
    B = LanguageView.from_indices([i for i in range(n) if rnd.random() < 0.6], n)

    def inside(x: BitString, z: BitString) -> bool:
        return all(B.contains_index(i) for i, bit in enumerate(x) if bit)

    m = subset_martingale(B, n)
    assert mismatches(m, prefixes(n), counted(SPAN, extensions(n, 0, inside))) == []


def test_mcsp_cover_counts_distinct_extensions_with_a_small_circuit():
    # level 2**2 - 1 = 3: the empty string's bit, then the 2-row table of the
    # strings 0 and 1; at s = 0 the table 10 (not x) has no circuit
    level, census = 3, build_census(1, 2)
    verify = relations_v1.mcsp_verify(1, 0)
    relation = extensions(
        level, mcsp_witness_relation(1, 0).witness_length(2),
        lambda x, z: verify(BitString(x.bits()[1:]), z),
    )
    m = cover_martingale(mcsp_cover(1, 0, census))
    assert m.ratio.row(0)[0] == [6]
    assert mismatches(m, prefixes(level), counted(SPAN, relation)) == []


def test_kt_cover_counts_extension_program_pairs(budget):
    # level 9 at gap 0 is the first with members: programs of at most 8 bits
    n = 9
    m = kt_cover_martingale(n, 0, budget)
    leaves = m.ratio.row(n)[0]
    members = [i for i, v in enumerate(leaves) if v]
    assert len(members) == 2
    others = [i for i in range(1 << n) if not leaves[i]]
    sample = members + random.Random(9).sample(others, 6)
    relation = extensions(
        n, kolmogorov_witness_relation(n - 1, budget).witness_length(n),
        relations_v1.short_program_verify(n - 1, budget),
    )
    ws = [BitString.from_int(i, n) for i in sample]
    assert relation(n).witness_length(n) == 12
    assert mismatches(m, ws, counted(WITNESS, relation)) == []


@pytest.mark.parametrize("seed", range(3))
def test_acceptance_counts_tuples_of_paths(seed):
    # each string's machine has 2**q paths and one coin: path p answers 1
    # on the first f(i, 1) paths, whichever the coin
    rnd = random.Random(seed)

    def q(n: int) -> int:
        return 1 + n % 2

    ones = [rnd.randrange((1 << q(len(string_index(i)))) + 1) for i in range(4)]
    spec = AcceptanceSpec(
        counts=lambda i: ((1 << q(len(string_index(i)))) - ones[i], ones[i]),
        q=q,
    )
    rel = path_tuples(
        lambda i: 1 + q(len(string_index(i))),
        lambda i, p: int(p >> 1 < spec.counts(i)[1]),
    )
    m = acceptance_martingale(spec)
    assert mismatches(m, prefixes(4), counted(WITNESS, lambda k: rel)) == []


@pytest.mark.parametrize("seed", range(3))
def test_biimmunity_counts_tuples_of_paths(seed):
    # on a member of A both paths answer 1; elsewhere path p answers p
    rnd = random.Random(seed)
    A = LanguageView.from_indices([i for i in range(6) if rnd.random() < 0.5], 6)
    rel = path_tuples(lambda i: 1, lambda i, p: 1 if A.contains_index(i) else p)
    m = biimmunity_martingale(A)
    assert mismatches(m, prefixes(6), counted(WITNESS, lambda k: rel)) == []


@pytest.mark.parametrize("seed", [None, *range(3)], ids=["error-free", 0, 1, 2])
def test_gap_acceptance_is_a_product_of_gaps(seed):
    rnd = random.Random(seed)

    def t(n: int) -> int:
        return 1 + n % 3

    def cube(i: int) -> int:
        return 1 << t(len(string_index(i)))

    if seed is None:  # every answer right or every answer wrong
        g = [cube(i) * (i % 2) for i in range(6)]
    else:
        g = [rnd.randrange(cube(i) + 1) for i in range(6)]
    # the relation on s_i whose first g(i) witnesses accept
    rel = VerifyRelation(
        "first g", t, lambda x, y: y.to_int() < g[index_of(x)]
    )
    gaps = [relations_v1.count(rel, GAP, string_index(i)) for i in range(6)]

    def expected(w: BitString) -> int:
        return prod(cube(i) + gaps[i] if bit else cube(i) - gaps[i]
                    for i, bit in enumerate(w))

    m = acceptance_martingale(AcceptanceSpec.from_gap(g.__getitem__, t))
    assert mismatches(m, prefixes(6), expected) == []


def test_check_fails_on_a_row_off_by_one():
    level = 4
    m = cover_martingale(Cover.from_relation(SAT2, level))
    relation = extensions(level, 2, relations_v1.sat_verify(2))
    ws, spans = prefixes(level), counted(SPAN, relation)
    assert mismatches(m, ws, spans) == []
    row = m.ratio.row

    def bumped(k: int) -> tuple[list[int], int]:
        nums, log_den = row(k)
        return (nums[:1] + [nums[1] + 1] + nums[2:] if k == 2 else nums), log_den

    off = replace(m, ratio=replace(m.ratio, row=bumped))
    assert mismatches(off, ws, spans) == [("01", 5, 4)]
    # a table with several models is one output but several witnesses
    assert mismatches(m, ws, counted(WITNESS, relation)) != []
