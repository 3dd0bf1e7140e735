"""The covering report's integer brackets against the ``Fraction`` twin in
``bounds_v1``: the same size-bound floors, the same condition (ii) and
analytic verdicts, the same ``f(N)`` text and the same refusal messages,
from either grid start."""

import math

import pytest

from martlab import circuits
from martlab.circuits import cached_census, mnp_cover_check
from martlab.dyadic import Dyadic
from martlab.errors import IndeterminateComparison

import bounds_v1 as v1
from test_circuits import GAP_COUNTS

ALPHAS = [Dyadic(k, 4) for k in range(-128, 65)]  # alpha = k/16, -8 <= alpha <= 4


def _below(count: int, n: int, alpha: Dyadic) -> bool:
    """Condition (ii) through the integer helper, from the twin's split."""
    _, Q, target = v1.gap_terms(n, alpha)
    d = math.lcm(Q.denominator, target.denominator)
    return circuits._log2_below(count, n, int(Q * d), int(target * d), d)


@pytest.mark.parametrize("start_bits", [16, 1])  # 1: the first rounds are too coarse
@pytest.mark.parametrize("n", [2, 3, 4])
def test_floors_and_verdicts_match_fraction_twin(monkeypatch, start_bits, n):
    monkeypatch.setattr(circuits, "_BRACKET_BITS", start_bits)
    compared = 0
    for alpha in ALPHAS:
        s_floor = circuits.lutz_size_bound_floor(n, alpha)
        assert s_floor == v1.lutz_size_bound_floor(n, alpha), alpha
        _, Q, target = v1.gap_terms(n, alpha)
        for count in GAP_COUNTS:
            if count > 1 << (1 << n):
                continue
            assert _below(count, n, alpha) == v1.log2_below(count, n, Q, target)
            if s_floor >= 0:  # s >= 0, where the analytic bound is read
                expected = v1.analytic_bound(count, n, alpha)
                assert circuits._analytic_bound(count, n, alpha) == expected, (alpha, count)
            compared += 1
    assert compared >= 5 * len(ALPHAS)  # n = 2 has five counts within 2**4


@pytest.mark.parametrize("start_bits", [16, 1])
def test_reports_match_fraction_twin(monkeypatch, cache_dir, start_bits):
    monkeypatch.setattr(circuits, "_BRACKET_BITS", start_bits)
    reported = 0
    for n in (2, 3, 4):
        census = cached_census(n, 8, cache_dir)
        for alpha in ALPHAS:
            if v1.lutz_size_bound_floor(n, alpha) > census.max_size:
                continue
            report = mnp_cover_check(n, alpha, census)
            f_text, Q, target = v1.gap_terms(n, alpha)
            count = report.census_count
            assert report.f_value == f_text
            assert report.log2_count_below_gap == (
                count == 0 or v1.log2_below(count, n, Q, target))
            assert report.analytic_bound_holds == (
                count == 0 or v1.analytic_bound(count, n, alpha))
            reported += 1
    assert reported > 500


def _outcome(decide):
    """A verdict, or the message it was refused with."""
    try:
        return decide()
    except IndeterminateComparison as refusal:
        return str(refusal)


def test_refusals_match_fraction_twin(monkeypatch):
    # one round on the coarsest grid leaves some cases undecided; both
    # sides refuse those alike, with one message
    monkeypatch.setattr(circuits, "_BRACKET_BITS", 1)
    monkeypatch.setattr(circuits, "_BRACKET_CAP", 1)
    refused = 0
    for n in (2, 3, 4):
        for alpha in map(Dyadic.parse, ("-1", "-3/16", "0", "1/2", "4")):
            _, Q, target = v1.gap_terms(n, alpha)
            for count in (3, 5, 14):
                for new, old in (
                    (lambda: _below(count, n, alpha), lambda: v1.log2_below(count, n, Q, target)),
                    (lambda: circuits._analytic_bound(count, n, alpha),
                     lambda: v1.analytic_bound(count, n, alpha)),
                ):
                    got = _outcome(new)
                    assert got == _outcome(old), (n, alpha, count)
                    refused += isinstance(got, str)
    assert refused >= 5
