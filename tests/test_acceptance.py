"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every check is exact (dyadic, integer, or rational
arithmetic); the only tolerances are the stated wall-clock budgets.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import census_dag
import census_v2
import node_walk
from language_twin import census
from martlab.cantor import (
    BitString,
    EMPTY,
    LanguageView,
    all_strings,
    char_prefix,
    string_index,
)
from martlab.combinators import (
    ConvergenceModulus,
    MartingaleFamily,
    approx_supermartingale,
    borel_cantelli_dimension,
    borel_cantelli_measure,
    dimension_certificate,
    geometric_modulus,
    ratio_power,
    sum_family,
    unit_certificate,
    worst_case_gamma,
)
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
from martlab.golden import GOLDEN_TREES, build_figure, figure_ids
from martlab.martingale import Martingale, diagonalize, verify_averaging


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {title}", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:2d}: PASS - {title} ({elapsed:.2f}s)")


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.num, 1 << d.log_den)


# -- 1: golden figure reproduction ------------------------------------------


def test_criterion_01_figures():
    with criterion(1, "figures 1-5 node-for-node, roots 5/16 7/8 1/4 1 1"):
        started = time.perf_counter()
        expected_roots = ["5/16", "7/8", "1/4", "1", "1"]
        for fid, root in zip(figure_ids(), expected_roots):
            m = build_figure(fid)
            golden = GOLDEN_TREES[fid]
            assert str(m.value(EMPTY)) == root
            for node, value in golden.items():
                assert str(m.value(node)) == value
        assert time.perf_counter() - started < 1.0


# -- 2: the averaging law over randomized instances -------------------------


def _random_language(rnd, horizon):
    taken = [i for i in range(horizon) if rnd.random() < 0.5]
    return LanguageView.from_indices(taken, horizon=horizon)


def _random_members(rnd, n):
    population = range(1 << n)
    members = rnd.sample(population, rnd.randrange((1 << n) + 1))
    return {BitString.from_int(v, n) for v in members}


def _random_cover(rnd, n):
    return Cover.from_members(_random_members(rnd, n), n)


def _random_acceptance(rnd):
    q = rnd.randrange(1, 4)
    rows = {}

    def f(i, b):
        if i not in rows:
            ones = rnd.randrange(0, (1 << q) + 1)
            rows[i] = ((1 << q) - ones, ones)
        return rows[i][b]

    return AcceptanceSpec(counts=lambda i: (f(i, 0), f(i, 1)), q=lambda n: q)


def test_criterion_02_averaging_10000():
    with criterion(2, "averaging law on 10,000 randomized instances"):
        started = time.perf_counter()
        rnd = random.Random(0xC0FFEE)
        per_kind = 10_000 // 6
        remainder = 10_000 - per_kind * 6

        for _ in range(per_kind):
            n = rnd.randrange(1, 6)
            m = cover_martingale(_random_cover(rnd, n))
            assert verify_averaging(m, n + 2).passed

        for _ in range(per_kind):
            n = rnd.randrange(1, 5)
            values = [rnd.randrange(8) for _ in range(1 << n)]
            m = condexp_martingale(dict(enumerate(values)), n)
            assert verify_averaging(m, n + 2).passed

        for _ in range(per_kind):
            n = rnd.randrange(1, 6)
            m = subset_martingale(_random_language(rnd, n or 1), n)
            assert verify_averaging(m, n + 2).passed

        for _ in range(per_kind):
            m = acceptance_martingale(_random_acceptance(rnd))
            assert verify_averaging(m, 4).passed

        for _ in range(per_kind):
            m = biimmunity_martingale(_random_language(rnd, 8))
            assert verify_averaging(m, 5).passed

        for _ in range(per_kind + remainder):
            n = rnd.randrange(2, 5)
            base = cover_martingale(subset_cover(_random_language(rnd, n), n))
            f = base.ratio.numerator

            def h(x, f=f, n=n, rnd=rnd):
                fx = f(x)
                lo = -((-(n - 1) * fx) // n)  # ceil((1-1/n) f)
                hi = ((n + 1) * fx) // n
                return rnd.randint(lo, hi)

            transformed = approx_supermartingale(base.ratio, h, n)
            assert transformed.verify_averaging_exact(n + 1) == []

        assert time.perf_counter() - started < 30.0


# -- 3: construction laws, exhaustive to n = 6 -------------------------------


def test_criterion_03_construction_laws():
    with criterion(3, "construction laws exhaustive for n <= 6"):
        rnd = random.Random(0xBEEF)
        for n in range(1, 7):
            for _ in range(3):
                members = _random_members(rnd, n)
                m = cover_martingale(Cover.from_members(members, n))
                assert m.value(EMPTY) == Dyadic(len(members), n)
                for x in all_strings(n):
                    assert m.value(x) == (ONE if x in members else ZERO)

                values = [rnd.randrange(6) for _ in range(1 << n)]
                ce = condexp_martingale(dict(enumerate(values)), n)
                for x in all_strings(n):
                    assert ce.value(x) == Dyadic(values[x.to_int()])

                B = _random_language(rnd, n)
                sub = subset_martingale(B, n)
                c = census(B, n)
                assert sub.value(EMPTY) == Dyadic.pow2(c - n)
                unit_leaves = sum(
                    1 for x in all_strings(n) if sub.value(x) == ONE
                )
                assert unit_leaves == 1 << c

                A = _random_language(rnd, n)
                bi = biimmunity_martingale(A)
                prefix = char_prefix(A, n)
                for w in all_strings(n):
                    dominated = all(
                        a == "1" for a, b in zip(w.bits(), prefix.bits()) if b == "1"
                    )
                    expected = (
                        Dyadic.pow2(prefix.to_int().bit_count()) if dominated else ZERO
                    )
                    assert bi.value(w) == expected

                spec = _random_acceptance(rnd)
                acc = acceptance_martingale(spec)
                for w in all_strings(n):
                    product = Fraction(1)
                    for i in range(n):
                        x = string_index(i)
                        product *= Fraction(
                            spec.counts(i)[int(w.bits()[i])], 1 << spec.q(len(x))
                        )
                    assert as_fraction(acc.value(w)) == 2**n * product


# -- 4: the summation lemma ---------------------------------------------------


def test_criterion_04_summation_lemma():
    with criterion(4, "truncated sums within 2^-r of true sums"):
        rnd = random.Random(0xFACE)
        samples = []
        for _ in range(100):
            k = rnd.randrange(9)
            samples.append(BitString.from_int(rnd.randrange(1 << k), k))

        # geometric family: true sum is 2 at every node
        geometric = MartingaleFamily(
            generator=lambda n: Martingale.constant(Dyadic.pow2(-n)),
            capital_bound=lambda n: Dyadic.pow2(-n),
            name="geometric",
        )
        mod1 = geometric_modulus(ONE)
        for w in samples:
            for r in range(21):
                value = sum_family(geometric, mod1, w, r)
                assert 0 <= 2 - as_fraction(value) <= Fraction(1, 2**r)

        # 2^-f(n) family with f(n) = 2n: true sum is 4/3 at every node
        squares = MartingaleFamily(
            generator=lambda n: Martingale.constant(Dyadic.pow2(-2 * n)),
            capital_bound=lambda n: Dyadic.pow2(-2 * n),
            name="4^-n",
        )
        mod2 = geometric_modulus(Dyadic(2))
        for w in samples:
            for r in (0, 5, 10, 20):
                value = sum_family(squares, mod2, w, r)
                error = Fraction(4, 3) - as_fraction(value)
                assert 0 <= error <= Fraction(1, 2**r)

        # cover family without closed form: reference at r + 16 precision
        covers = MartingaleFamily(
            generator=lambda n: cover_martingale(
                Cover.from_members([BitString("0" * n)], n)
            ),
            capital_bound=lambda n: Dyadic.pow2(-n),
            name="zero-covers",
        )
        for w in samples:
            for r in (0, 5, 10, 20):
                value = sum_family(covers, mod1, w, r)
                reference = sum_family(covers, mod1, w, r + 16)
                error = as_fraction(reference) - as_fraction(value)
                assert 0 <= error <= Fraction(1, 2**r)


# -- 5: covering aggregates ---------------------------------------------------


def _half_density_family(rnd, top):
    covers = {}
    for n in range(1, top + 1):
        members = rnd.sample(range(1 << n), 1 << (n // 2))
        covers[n] = Cover.from_members(
            [BitString.from_int(v, n) for v in members], n
        )
    fam = MartingaleFamily(
        generator=lambda n: cover_martingale(covers[n]),
        capital_bound=lambda n: Dyadic(1 << (n // 2), n),
        name="half-density",
        support=tuple(covers),
    )
    return covers, fam


def test_criterion_05_borel_cantelli():
    with criterion(5, "covered leaves get >= 1 (measure), >= 2^((1-t)n) (dim)"):
        rnd = random.Random(0xD1CE)
        covers, fam = _half_density_family(rnd, 12)
        mod = ConvergenceModulus(
            lambda w, i: min(13, 2 * (i + len(w)) + 6), "sqrt-shifted"
        )
        aggregate = borel_cantelli_measure(fam, mod, audit_levels=13)
        s, t = Dyadic(1, 1), Dyadic(3, 2)
        scaled, dim_mod = borel_cantelli_dimension(fam, s, t, audit_levels=13)
        one_minus_t = 1 - as_fraction(t)
        for n, cover in covers.items():
            for x in all_strings(n):
                if not cover.contains(x):
                    continue
                cert = unit_certificate(fam, mod, n, x)
                assert cert.covered and cert.partial_sum >= ONE
                assert aggregate.value(x) >= ONE
                dim_cert = dimension_certificate(
                    scaled, fam, dim_mod, t, n, x
                )
                assert dim_cert.covered
                assert node_walk.cmp_pow2(dim_cert.partial_sum, one_minus_t * n) >= 0


# -- 6: diagonalization -------------------------------------------------------


def test_criterion_06_diagonalization():
    with criterion(6, "100 diagonal traces non-increasing, <= initial capital"):
        rnd = random.Random(0xABBA)
        for index in range(100):
            kind = index % 5
            if kind == 0:
                n = rnd.randrange(1, 6)
                m = cover_martingale(_random_cover(rnd, n))
            elif kind == 1:
                n = rnd.randrange(1, 5)
                values = [rnd.randrange(6) for _ in range(1 << n)]
                m = condexp_martingale(dict(enumerate(values)), n)
            elif kind == 2:
                n = rnd.randrange(1, 6)
                m = subset_martingale(_random_language(rnd, n), n)
            elif kind == 3:
                m = acceptance_martingale(_random_acceptance(rnd))
            else:
                m = biimmunity_martingale(_random_language(rnd, 16))
            N = rnd.randrange(4, 9)
            w = diagonalize(m, N)
            trace = [m.value(w.prefix(k)) for k in range(N + 1)]
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            assert all(v <= m.initial_capital for v in trace)


# -- 7: the approximation transform -------------------------------------------


def test_criterion_07_supermartingale_transform():
    with criterion(7, "transform: >=-averaging, gamma bound, gamma_32 > 1/9"):
        rnd = random.Random(0xFEED)
        for n in range(2, 33):
            B = _random_language(rnd, n)
            base = cover_martingale(subset_cover(B, n))
            f = base.ratio.numerator

            def h(x, f=f, n=n, rnd=rnd):
                fx = f(x)
                return fx + rnd.randint(0, fx // n)  # upper half of the band

            result = approx_supermartingale(base.ratio, h, n)
            assert result.verify_averaging_exact(min(n, 5)) == []
            for _ in range(40):
                depth = rnd.randrange(0, n)
                v = BitString.from_int(rnd.randrange(1 << depth), depth)
                two_dv = 2 * result.exact_value(v)
                children = result.exact_value(v.append(0)) + result.exact_value(
                    v.append(1)
                )
                assert two_dv >= children
            gamma = ratio_power(n)
            for _ in range(40):
                v = BitString.from_int(rnd.randrange(1 << n), n)
                assert result.exact_value(v) >= gamma * as_fraction(base.value(v))
            # arbitrary in-band approximators keep the worst-case constant
            def h_low(x, f=f, n=n):
                return -((-(n - 1) * f(x)) // n)

            low = approx_supermartingale(base.ratio, h_low, n)
            floor_gamma = worst_case_gamma(n)
            for _ in range(10):
                v = BitString.from_int(rnd.randrange(1 << n), n)
                assert low.exact_value(v) >= floor_gamma * as_fraction(
                    base.value(v)
                )
        gammas = [ratio_power(n) for n in range(2, 65)]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))
        assert gammas[0] == Fraction(1, 9)
        assert ratio_power(32) > ratio_power(2) == Fraction(1, 9)
        assert gammas[-1] < Fraction(135336, 10**6)  # still under e^-2


# -- 8: the circuit census ----------------------------------------------------


def test_criterion_08_circuit_census(census2, census3, census4):
    from martlab.circuits import (
        TruthTable,
        build_census,
        mnp_cover_check,
    )

    def sizes_of(census):
        return {m: census.min_size(TruthTable(census.n, m)) for m in census_v2.reached(census)}

    with criterion(8, "census == DAG oracle at n=2; deterministic; reports"):
        dag = census_dag.minimum_sizes(2, 6)
        assert census_v2.reached(census2) == sorted(dag)
        for mask in range(16):
            assert census2.min_size(TruthTable(2, mask)) == dag[mask]

        for census in (census3, census4):
            rebuilt = build_census(census.n, census.max_size)
            assert sizes_of(rebuilt) == sizes_of(census)
        small = build_census(3, 4)
        assert sizes_of(small) == {
            m: s for m, s in sizes_of(census3).items() if s <= 4
        }

        censuses = {2: census2, 3: census3, 4: census4}
        expected_counts = {
            (2, "0"): 14,
            (2, "1/2"): 14,
            (3, "0"): 40,
            (3, "1/2"): 84,
            (4, "0"): 886,
            (4, "1/2"): 2254,
        }
        for (n, alpha_text), count in expected_counts.items():
            report = mnp_cover_check(n, Dyadic.parse(alpha_text), censuses[n])
            assert report.census_count == count
            N = (1 << (n + 1)) - 1
            assert report.cover_count == (1 << (N - (1 << n))) * count
            # the asymptotic count inequality is out of reach at desk sizes;
            # the report states that rather than pretending otherwise
            assert not report.log2_count_below_gap
            assert report.analytic_bound_holds


# -- 9: description complexity -------------------------------------------------


def test_criterion_09_kolmogorov(budget, kt_table_10, kt_table_pairing_10):
    import math

    from martlab.kolmogorov import NO_PROGRAM, build_kt_table, kt_cover_martingale
    from martlab.machine import BudgetPoly, C_LIT, C_PAIR

    with criterion(9, "kt laws at L=10; cover capital and leaf laws to n=10"):
        started = time.perf_counter()

        # both tables are indexed by string_index, so index i is one string
        for i, value in enumerate(kt_table_10.kts):
            assert value <= len(string_index(i)) + C_LIT

        tighter = build_kt_table(BudgetPoly(3, 1, 8), 7)
        for i, value in enumerate(tighter.kts):
            if value != NO_PROGRAM:
                assert value >= kt_table_10.kts[i]

        for total in range(11):
            for split in range(total + 1):
                for left in range(1 << split):
                    x = BitString.from_int(left, split)
                    kx = kt_table_10.lookup(x)
                    bound_head = kx + 2 * math.floor(math.log2(kx + C_LIT)) + C_PAIR
                    for right in range(1 << (total - split)):
                        y = BitString.from_int(right, total - split)
                        ky = kt_table_10.lookup(y)
                        kxy = kt_table_pairing_10.lookup(x + y)
                        assert kxy <= bound_head + ky

        for n in range(1, 11):
            for gap in (0, 1, 2, n):
                m = kt_cover_martingale(n, gap, budget)
                assert m.initial_capital <= Dyadic.pow2(-gap)
                bound = n - gap
                for x in all_strings(n):
                    compressible = kt_table_10.lookup(x) < bound
                    assert (m.value(x) >= ONE) == compressible

        assert time.perf_counter() - started < 300.0


# -- 10: the entropy bridge -----------------------------------------------------


def test_criterion_10_entropy_bridge(census2, census3, census4, cache_dir):
    from martlab.circuits import TruthTable, mcsp_cover
    from martlab.entropy import LevelFamily, certificate_family, mc_certificate

    with criterion(10, "valid mcsp certificate covers every element with >= 1"):
        started = time.perf_counter()
        covers = {
            7: mcsp_cover(2, 2, census2),
            15: mcsp_cover(3, 3, census3),
            31: mcsp_cover(4, 5, census4),
        }
        family_levels = LevelFamily(lambda n: covers.get(n), "mcsp-bridge")
        gap_table = {7: 0, 15: 1, 31: 4}

        def gap(n):
            return gap_table.get(n, n)

        def modulus(i):
            return i + 32

        cert = mc_certificate(
            family_levels,
            gap,
            modulus,
            horizon=31,
            witnesses=[BitString("0" * 31)],
        )
        assert cert.valid

        family, lifted = certificate_family(family_levels, cert, gap, modulus)
        assert family.support == (7, 15, 31)
        aggregate = borel_cantelli_measure(
            family, lifted, audit_levels=32
        )

        # levels 7 and 15: every certified element, by full enumeration
        certified7 = [x for x in all_strings(7) if covers[7].contains(x)]
        assert len(certified7) == 112
        certified15 = []
        for prefix in range(1 << 7):
            for mask in census_v2.reached(census3):
                if census3.min_size(TruthTable(3, mask)) <= 3:
                    bits = format(prefix, "07b") + "".join(
                        "1" if (mask >> j) & 1 else "0" for j in range(8)
                    )
                    certified15.append(BitString(bits))
        assert len(certified15) == 10752
        for x in certified7:
            assert aggregate.value(x) >= ONE
        for x in certified15:
            assert aggregate.value(x) >= ONE

        # level 31 has 2^15 * 2254 certified elements; its aggregate value
        # factorizes as (level-7 term) + (level-15 term) + (own leaf), so
        # checking every free prefix and every qualifying table covers all of
        # them exactly, and samples pin the factorization to the direct path
        member7, member15, member31 = (
            family.member(7),
            family.member(15),
            family.member(31),
        )
        for p_val in range(1 << 15):
            p = BitString.from_int(p_val, 15)
            assert member7.value(p.prefix(7)) in (ZERO, ONE)
            assert member15.value(p) in (ZERO, ONE)

        qualifying4 = [
            mask for mask in census_v2.reached(census4)
            if census4.min_size(TruthTable(4, mask)) <= 5
        ]
        assert len(qualifying4) == 2254
        fixed_prefix = BitString("0" * 15)
        for mask in qualifying4:
            tt_bits = "".join(
                "1" if (mask >> j) & 1 else "0" for j in range(16)
            )
            x = fixed_prefix + BitString(tt_bits)
            assert covers[31].contains(x)
            assert member31.value(x) == ONE

        rnd = random.Random(0x5EED)
        for _ in range(300):
            p = BitString.from_int(rnd.randrange(1 << 15), 15)
            mask = rnd.choice(qualifying4)
            tt_bits = "".join(
                "1" if (mask >> j) & 1 else "0" for j in range(16)
            )
            x = p + BitString(tt_bits)
            value = aggregate.value(x)
            assert value >= ONE
            factored = (
                as_fraction(member7.value(p.prefix(7)))
                + as_fraction(member15.value(p))
                + 1
            )
            assert as_fraction(value) == factored

        assert time.perf_counter() - started < 120.0
