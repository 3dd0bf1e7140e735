import math
import random
from fractions import Fraction

import pytest

import node_walk
from martlab.cantor import BitString, EMPTY, all_strings
from martlab.circuits import mcsp_cover, mcsp_witness_relation
from martlab.cli import main
from martlab.combinators import borel_cantelli_measure, unit_certificate
from martlab.constructions import Cover
from martlab.dyadic import Dyadic, grid_floor_log2_ratio
from martlab.entropy import (
    LevelFamily,
    certificate_family,
    entropy_rate,
    level_count,
    mc_certificate,
)
from martlab.errors import CapExceeded
from martlab.oracle import explicit_set_relation, sat_relation


def constant_family(predicate, name):
    return LevelFamily.from_predicate(predicate, name)


def test_rate_of_everything_is_one():
    fam = constant_family(lambda x: True, "all")
    report = entropy_rate(fam, 8)
    assert all(r == Dyadic(1) for r in report.ratios)
    assert report.max_ratio == Dyadic(1)


def test_rate_of_singletons_is_zero():
    fam = constant_family(lambda x: x.to_int().bit_count() == 0, "zeros")
    report = entropy_rate(fam, 8)
    assert all(c == 1 for c in report.counts)
    assert report.max_ratio == Dyadic(0)


def test_rate_trend_toward_quarter_entropy():
    fam = constant_family(
        lambda x: 4 * x.to_int().bit_count() <= len(x), "light-strings"
    )
    report = entropy_rate(fam, 16)
    # exact binomial counts are the oracle
    for n in (4, 8, 12, 16):
        expected = sum(math.comb(n, k) for k in range(n // 4 + 1))
        assert report.counts[n - 1] == expected
    ratios = [report.ratios[n - 1] for n in (4, 8, 12, 16)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    # approaching the binary entropy of 1/4 (~0.8113) from below
    assert Dyadic(11, 4) < ratios[-1] < Dyadic(832, 10)


def test_empty_levels_skipped():
    fam = LevelFamily(lambda n: None if n % 2 else Cover.from_predicate(
        lambda x: True, n
    ), "evens")
    report = entropy_rate(fam, 6)
    assert report.ratios[0] is None
    assert report.ratios[1] == Dyadic(1)


def test_union_rate_law():
    left = constant_family(lambda x: x.to_int().bit_count() == 0, "zeros")
    right = constant_family(
        lambda x: x.to_int().bit_count() == len(x), "ones"
    )
    union = constant_family(
        lambda x: x.to_int().bit_count() in (0, len(x)), "either"
    )
    horizon = 10
    rl = entropy_rate(left, horizon)
    rr = entropy_rate(right, horizon)
    ru = entropy_rate(union, horizon)
    for n in range(1, horizon + 1):
        cu = ru.counts[n - 1]
        cmax = max(rl.counts[n - 1], rr.counts[n - 1])
        assert cu <= 2 * cmax
        # grid consequence: union ratio <= max ratio + 1/n, floored
        if cu:
            allowed = grid_floor_log2_ratio(2 * cmax, n)
            assert ru.ratios[n - 1] <= allowed


def test_level_count_uses_analytic_counter():
    cover = Cover(level=30, count=lambda w: 7 if len(w) == 0 else 0)
    fam = LevelFamily(lambda n: cover if n == 30 else None, "wide")
    assert level_count(fam, 30) == 7


def enumerated_count(cover, w=EMPTY):
    """The leaf scan ``level_count`` once ran: every length-``level``
    extension of ``w``, read by ``contains``."""
    free = cover.level - len(w)
    return sum(
        1
        for v in range(1 << free)
        if cover.contains(BitString.from_int(w.to_int() << free | v, cover.level))
    )


def _covers_to_level_8(census2):
    """Predicate, explicit-relation (exists and unique), sat, mcsp-witness
    and mcsp covers at levels 0..8."""
    rnd = random.Random(41)
    for n in range(9):
        marks = {v for v in range(1 << n) if rnd.random() < 0.3}
        yield Cover.from_predicate(lambda x, marks=marks: x.to_int() in marks, n)
        members = [BitString.from_int(v, n) for v in sorted(marks)]
        explicit = explicit_set_relation(f"explicit{n}", members)
        yield Cover.from_relation(explicit, n)
        yield Cover.from_relation(explicit, n, "unique")
    for v in range(4):
        yield Cover.from_relation(sat_relation(v), 1 << v)
    for s in (0, 1):
        yield Cover.from_relation(mcsp_witness_relation(2, s), 4)
        yield mcsp_cover(2, s, census2)


def test_cover_counts_match_leaf_enumeration(census2):
    names = []
    for cover in _covers_to_level_8(census2):
        n = cover.level
        fam = LevelFamily(lambda k: cover if k == n else None, cover.name)
        assert level_count(fam, n) == enumerated_count(cover)
        for k in range(n + 1):
            for w in all_strings(k):
                assert cover.count(w) == enumerated_count(cover, w), (cover.name, w)
        names.append(cover.name)
    assert len(names) == 35
    assert {"sat-3", "mcsp-witness(n=2,s=1)", "mcsp(n=2,s=1)"} <= set(names)


def test_enumeration_cap_still_refuses_level_23():
    with pytest.raises(CapExceeded):
        Cover.from_predicate(lambda x: True, 23)
    with pytest.raises(CapExceeded):
        Cover.from_relation(sat_relation(2), 23)
    fam = constant_family(lambda x: True, "all")
    with pytest.raises(CapExceeded):
        fam.cover_at(23)
    with pytest.raises(CapExceeded):
        level_count(fam, 23)


def test_level_23_relation_cover_config_exits_3(tmp_path, capsys):
    config = tmp_path / "wide.json"
    config.write_text(
        '{"version": 1, "construction": {"type": "cover", "level": 23,'
        ' "relation": {"builtin": "explicit", "members": []}}}'
    )
    assert main(["verify", "--config", str(config), "--depth", "2"]) == 3
    assert "exceeds enumeration cap" in capsys.readouterr().err


def test_certificate_fails_on_full_family():
    fam = constant_family(lambda x: True, "all")
    cert = mc_certificate(fam, gap=lambda n: 0, modulus=lambda i: i, horizon=6)
    assert not cert.valid
    assert cert.failing_level == 1
    assert "INVALID" in cert.to_text()


def test_certificate_trivial_above_empty_levels():
    fam = LevelFamily(
        lambda n: Cover.from_members(
            [BitString.from_int(0, n)], n
        ) if n <= 3 else None,
        "low-levels",
    )
    cert = mc_certificate(
        fam,
        gap=lambda n: n // 2,
        modulus=lambda i: 2 * i + 4,
        horizon=8,
        witnesses=[BitString("00000000")],
    )
    assert cert.valid
    assert cert.witnesses[0].covered_at == 1


def test_certificate_witness_not_covered():
    fam = LevelFamily(
        lambda n: Cover.from_members([BitString.from_int(0, n)], n),
        "zeros",
    )
    cert = mc_certificate(
        fam,
        gap=lambda n: n,
        modulus=lambda i: i + 1,
        horizon=4,
        witnesses=[BitString("1111")],
    )
    assert not cert.valid
    assert cert.witnesses[0].covered_at is None


def test_certificate_reads_each_level_cover_once():
    calls = []

    def no_ones(x):
        calls.append(x)
        return x.to_int().bit_count() == 0

    cert = mc_certificate(
        LevelFamily.from_predicate(no_ones, "no-ones"),
        gap=lambda n: n - 1,
        modulus=lambda i: i + 17,
        horizon=16,
        witnesses=[BitString("1" * 16), BitString("01" * 8)],
    )
    assert [wv.covered_at for wv in cert.witnesses] == [None, 1]
    assert [lv.count for lv in cert.levels] == [1] * 16
    # one scan of each level's 2**n leaves, for its count and its witnesses
    assert len(calls) == sum(1 << n for n in range(1, 17))


def test_certificate_modulus_audit_fails():
    fam = LevelFamily(
        lambda n: Cover.from_members([BitString.from_int(0, n)], n),
        "zeros",
    )
    cert = mc_certificate(
        fam,
        gap=lambda n: 0,  # series of ones cannot converge
        modulus=lambda i: 0,
        horizon=6,
    )
    assert not cert.valid


def test_modulus_tails_start_at_level_one():
    """Levels run 1..horizon, so a modulus start of 0 sums the same tail as
    a start of 1, 15/16 here, and the audit still prints the start it was
    given; that tail meets 2**-0 and not 2**-1."""
    cert = mc_certificate(
        LevelFamily(lambda n: None, name="empty"),
        gap=lambda n: n,
        modulus=lambda i: i,
        horizon=4,
        audit_is=(0, 1),
    )
    zero, one = cert.modulus_audits
    assert (zero.start, zero.tail, zero.ok) == (0, Dyadic(15, 4), True)
    assert (one.start, one.tail, one.ok) == (1, Dyadic(15, 4), False)
    assert "  i=0: tail from 0 sums to 15/16 <= 2^-0\n" in cert.to_text()


def _dyadic_tail(gap, start: int, horizon: int) -> Dyadic:
    """A modulus tail summed one ``Fraction`` power at a time, as a
    ``Dyadic``."""
    tail = sum(
        (Fraction(2) ** -gap(n) for n in range(max(start, 1), horizon + 1)),
        Fraction(0),
    )
    return node_walk.as_dyadic(tail)


@pytest.mark.parametrize("horizon", [0, 1, 5, 12])
def test_modulus_tails_match_dyadic_sums(horizon):
    """The integer tails over ``2**G`` print and compare as the ``Dyadic``
    sums do: negative gaps (a tail above 1), gaps past every ``i``, starts
    past the horizon (an empty tail, 0) and starts below level 1."""
    rng = random.Random(horizon)
    for _ in range(40):
        gaps = {n: rng.randint(-3, 20) for n in range(1, horizon + 1)}
        starts = {i: rng.randint(-1, horizon + 2) for i in range(12)}
        cert = mc_certificate(
            LevelFamily(lambda n: None, name="empty"),
            gap=gaps.__getitem__,
            modulus=starts.__getitem__,
            horizon=horizon,
            audit_is=tuple(range(12)),
        )
        for audit in cert.modulus_audits:
            expected = _dyadic_tail(gaps.__getitem__, starts[audit.i], horizon)
            assert audit.tail == expected
            assert str(audit.tail) == str(expected)
            assert audit.ok == (expected <= Dyadic.pow2(-audit.i))
    empty = mc_certificate(
        LevelFamily(lambda n: None, name="empty"), gap=lambda n: -2,
        modulus=lambda i: horizon + 1, horizon=horizon, audit_is=(0, 3),
    )
    assert [(a.tail, a.ok) for a in empty.modulus_audits] == [(Dyadic(0), True)] * 2
    assert "sums to 0 <= 2^-3" in empty.to_text()


def test_certificate_bridge_to_covering_martingale():
    fam = LevelFamily(
        lambda n: Cover.from_members(
            [BitString.from_int(0, n), BitString.from_int((1 << n) - 1, n)]
            if n >= 2
            else [],
            n,
        ),
        "edges",
    )
    def gap(n):
        return max(0, n - 2)  # counts are 2 = 2^1 < 2^2 at every level

    def modulus(i):
        return i + 4
    cert = mc_certificate(
        fam, gap, modulus, horizon=8, witnesses=[BitString("0" * 8)]
    )
    assert cert.valid
    family, lifted = certificate_family(fam, cert, gap, modulus)
    # capitals certified below the gap bound
    for n in range(2, 9):
        member = family.member(n)
        assert member.initial_capital == Dyadic(2, n)
        assert member.initial_capital <= Dyadic.pow2(-gap(n))
    aggregate = borel_cantelli_measure(family, lifted, audit_levels=9)
    for n in range(2, 9):
        for x in (BitString("0" * n), BitString("1" * n)):
            cert_x = unit_certificate(family, lifted, n, x)
            assert cert_x.covered
            assert aggregate.value(x) >= Dyadic(1)
