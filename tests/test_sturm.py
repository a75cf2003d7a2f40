from __future__ import annotations

from fractions import Fraction

import pytest

from kcert import univar
from kcert.poly import MultiPoly
from kcert.sampling import SplitMix64
from kcert.sturm import (
    count_roots,
    recheck_sturm_data,
    sturm_chain,
    sturm_isolate,
)


def poly_from_coeffs(coeffs):
    return MultiPoly(("x",), {(i,): Fraction(c) for i, c in enumerate(coeffs)})


def test_isolate_sqrt_two():
    p = poly_from_coeffs([-2, 0, 1])
    intervals, data = sturm_isolate(p, (Fraction(0), Fraction(10)), Fraction(1, 1024))
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert hi - lo <= Fraction(1, 1024)
    assert lo ** 2 < 2 < hi ** 2
    assert recheck_sturm_data(data)


def test_count_distinct_roots():
    # (x-1)(x-2)(x-3)
    p = [Fraction(c) for c in (-6, 11, -6, 1)]
    chain = sturm_chain(tuple(p))
    assert count_roots(chain, Fraction(0), Fraction(4)) == 3
    assert count_roots(chain, Fraction(0), Fraction(5, 2)) == 2
    assert count_roots(chain, Fraction(3), Fraction(4)) == 0  # half-open: 3 excluded... root at 3 counted at lo
    assert count_roots(chain, Fraction(5, 2), Fraction(3)) == 1


def test_isolation_handles_root_at_endpoint():
    # roots exactly at interval endpoints: the interval is half-open (lo, hi]
    p = poly_from_coeffs([0, 1])  # x
    intervals, _ = sturm_isolate(p, (Fraction(0), Fraction(1)), Fraction(1, 16))
    assert intervals == []  # the root at lo = 0 is outside (0, 1]
    p2 = poly_from_coeffs([-1, 0, 1])  # x^2 - 1, roots at +-1
    intervals, _ = sturm_isolate(p2, (Fraction(-1), Fraction(2)), Fraction(1, 16))
    assert len(intervals) == 1


def test_isolation_keeps_roots_next_to_an_endpoint():
    # each root lies within width/1024 of a root at an endpoint
    width = Fraction(1, 2 ** 20)
    p = poly_from_coeffs([1025, -2049, 1024])  # (x - 1)(1024x - 1025)
    intervals, data = sturm_isolate(p, (Fraction(1), Fraction(2)), width)
    assert len(intervals) == 1 and recheck_sturm_data(data)
    lo, hi = intervals[0]
    assert lo < Fraction(1025, 1024) <= hi and hi - lo <= width
    p = poly_from_coeffs([0, -1, 2048])  # x (2048x - 1)
    intervals, data = sturm_isolate(p, (Fraction(0), Fraction(2)), width)
    assert len(intervals) == 1 and recheck_sturm_data(data)
    lo, hi = intervals[0]
    assert lo < Fraction(1, 2048) <= hi and hi - lo <= width
    # a root at hi is reported
    intervals, _ = sturm_isolate(p, (Fraction(-1), Fraction(1, 2048)), width)
    assert len(intervals) == 2 and intervals[-1][1] == Fraction(1, 2048)


def test_counts_at_a_multiple_root():
    # (x - 1)^2 (x - 3): every chain member vanishes at the double root 1
    coeffs = tuple(map(Fraction, (-3, 7, -5, 1)))
    chain = sturm_chain(coeffs)
    assert count_roots(chain, Fraction(0), Fraction(1)) == 1
    assert count_roots(chain, Fraction(1), Fraction(4)) == 1
    assert count_roots(chain, Fraction(1), Fraction(2)) == 0
    # bisecting (0, 4] reaches the double root 1 as a midpoint
    intervals, _ = sturm_isolate(poly_from_coeffs(coeffs), (Fraction(0), Fraction(4)), Fraction(1, 64))
    assert len(intervals) == 2
    assert intervals[0][0] < 1 <= intervals[0][1] and intervals[1][0] < 3 <= intervals[1][1]


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        sturm_isolate(MultiPoly.zero(("x",)), (Fraction(0), Fraction(1)), Fraction(1, 2))


def test_nested_refinement_stability():
    p = poly_from_coeffs([-2, 0, 1])
    coarse, _ = sturm_isolate(p, (Fraction(0), Fraction(10)), Fraction(1, 64))
    fine, _ = sturm_isolate(p, (Fraction(0), Fraction(10)), Fraction(1, 1024))
    (a, b), (c, d) = coarse[0], fine[0]
    assert a <= c and d <= b


def _bisection_sign_change_count(coeffs, lo, hi):
    """Naive oracle: subdivide until the sign-change count stabilises."""
    previous = None
    pieces = 64
    for _ in range(8):
        values = []
        for i in range(pieces + 1):
            x = lo + (hi - lo) * Fraction(i, pieces)
            values.append(univar.evaluate(coeffs, x))
        changes = 0
        last_sign = 0
        for v in values:
            sign = (v > 0) - (v < 0)
            if sign == 0:
                continue
            if last_sign and sign != last_sign:
                changes += 1
            last_sign = sign
        if changes == previous:
            return changes
        previous = changes
        pieces *= 2
    return previous


def test_sturm_against_bisection_oracle():
    rng = SplitMix64(0xC0FFEE)
    checked = 0
    while checked < 20:
        degree = 2 + rng.below(9)
        coeffs = tuple(
            Fraction(rng.below(21) - 10) for _ in range(degree + 1)
        )
        coeffs = univar.strip(coeffs)
        if univar.degree(coeffs) < 1:
            continue
        # restrict to squarefree draws so both methods count the same thing
        if univar.degree(univar.poly_gcd(coeffs, univar.derivative(coeffs))) > 0:
            continue
        lo, hi = Fraction(-8), Fraction(8)
        if univar.evaluate(coeffs, lo) == 0 or univar.evaluate(coeffs, hi) == 0:
            continue
        chain = sturm_chain(coeffs)
        assert count_roots(chain, lo, hi) == _bisection_sign_change_count(
            coeffs, lo, hi
        )
        checked += 1


def test_recheck_rejects_tampered_chain():
    p = poly_from_coeffs([-2, 0, 1])
    _, data = sturm_isolate(p, (Fraction(0), Fraction(10)), Fraction(1, 64))
    tampered_chain = list(data.chain)
    tampered_chain[1] = tuple(-c for c in tampered_chain[1])
    from kcert.sturm import SturmData

    bad = SturmData(polynomial=data.polynomial, chain=tampered_chain, queries=data.queries)
    assert not recheck_sturm_data(bad)


def test_serialisation_payload():
    p = poly_from_coeffs([-2, 0, 1])
    _, data = sturm_isolate(p, (Fraction(0), Fraction(2)), Fraction(1, 64))
    payload = data.as_dict()
    assert payload["polynomial"] == "x^2 - 2"
    assert payload["queries"]
