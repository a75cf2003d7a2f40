from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest

from kcert import univar
from kcert.poly import MultiPoly
from kcert.sampling import SplitMix64
from kcert.sturm import count_roots, sturm_chain, sturm_isolate


def poly_from_coeffs(coeffs):
    return MultiPoly(("x",), {(i,): Fraction(c) for i, c in enumerate(coeffs)})


def test_isolate_sqrt_two():
    p = poly_from_coeffs([-2, 0, 1])
    intervals, chain = sturm_isolate(p, (Fraction(0), Fraction(10)), Fraction(1, 1024))
    assert len(intervals) == 1
    lo, hi = intervals[0]
    assert hi - lo <= Fraction(1, 1024)
    assert lo ** 2 < 2 < hi ** 2
    assert count_roots(chain, lo, hi) == 1


def test_count_distinct_roots():
    # (x-1)(x-2)(x-3)
    chain = sturm_chain((-6, 11, -6, 1))
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
    intervals, chain = sturm_isolate(p, (Fraction(1), Fraction(2)), width)
    assert len(intervals) == 1 and count_roots(chain, *intervals[0]) == 1
    lo, hi = intervals[0]
    assert lo < Fraction(1025, 1024) <= hi and hi - lo <= width
    p = poly_from_coeffs([0, -1, 2048])  # x (2048x - 1)
    intervals, chain = sturm_isolate(p, (Fraction(0), Fraction(2)), width)
    assert len(intervals) == 1 and count_roots(chain, *intervals[0]) == 1
    lo, hi = intervals[0]
    assert lo < Fraction(1, 2048) <= hi and hi - lo <= width
    # a root at hi is reported
    intervals, _ = sturm_isolate(p, (Fraction(-1), Fraction(1, 2048)), width)
    assert len(intervals) == 2 and intervals[-1][1] == Fraction(1, 2048)


def test_counts_at_a_multiple_root():
    # (x - 1)^2 (x - 3): every chain member vanishes at the double root 1
    coeffs = (-3, 7, -5, 1)
    chain = sturm_chain(coeffs)
    assert count_roots(chain, Fraction(0), Fraction(1)) == 1
    assert count_roots(chain, Fraction(1), Fraction(4)) == 1
    assert count_roots(chain, Fraction(1), Fraction(2)) == 0
    # bisecting (0, 4] reaches the double root 1 as a midpoint
    intervals, _ = sturm_isolate(poly_from_coeffs(coeffs), (Fraction(0), Fraction(4)), Fraction(1, 64))
    assert len(intervals) == 2
    assert intervals[0][0] < 1 <= intervals[0][1] and intervals[1][0] < 3 <= intervals[1][1]


@pytest.mark.parametrize(
    "interval, width, name",
    [((0, 0.3), Fraction(1, 8), "interval"), ((0.0, 1), Fraction(1, 8), "interval"),
     ((0, Fraction(3, 10)), 0.125, "target_width")],
)
def test_isolation_refuses_inexact_numbers(interval, width, name):
    # the float 0.3 lies just below 3/10, so the root of 10x - 3 would be missed
    with pytest.raises(TypeError, match=f"^{name} is "):
        sturm_isolate(poly_from_coeffs([-3, 10]), interval, width)


def test_isolation_takes_int_ends_and_width():
    p = poly_from_coeffs([-2, 0, 1])
    assert sturm_isolate(p, (0, 10), 1) == sturm_isolate(p, (Fraction(0), Fraction(10)), Fraction(1))
    intervals, _ = sturm_isolate(poly_from_coeffs([-3, 10]), (0, Fraction(3, 10)), Fraction(1, 8))
    assert intervals == [(Fraction(9, 40), Fraction(3, 10))]


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        sturm_isolate(MultiPoly.zero(("x",)), (Fraction(0), Fraction(1)), Fraction(1, 2))


def test_nested_refinement_stability():
    p = poly_from_coeffs([-2, 0, 1])
    coarse, _ = sturm_isolate(p, (Fraction(0), Fraction(10)), Fraction(1, 64))
    fine, _ = sturm_isolate(p, (Fraction(0), Fraction(10)), Fraction(1, 1024))
    (a, b), (c, d) = coarse[0], fine[0]
    assert a <= c and d <= b


def horner(coeffs, x):
    """Reference value of ascending rational coefficients at x."""
    total = Fraction(0)
    for coeff in reversed(coeffs):
        total = total * x + coeff
    return total


def _strip(coeffs):
    values = list(coeffs)
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def _integer(coeffs):
    """Rational coefficients times the lcm of their denominators, as ints."""
    common = lcm(*(Fraction(c).denominator for c in coeffs))
    return tuple(int(c * common) for c in coeffs)


def _times(a, b):
    product = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    return tuple(product)


def _fraction_remainder(a, b):
    """rem(a, b) by long division in Fraction arithmetic."""
    r = [Fraction(c) for c in a]
    while len(r) >= len(b):
        factor, shift = r[-1] / b[-1], len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r = list(_strip(r))
    return tuple(r)


def _scale_primitive(coeffs):
    """Scaled by a positive rational to integer and content-free (sign kept)."""
    ints = _integer(coeffs)
    content = gcd(*ints)
    return tuple(Fraction(c, content) for c in ints)


def _fraction_chain(coeffs):
    """The classical chain in Fraction arithmetic, each member scaled primitive."""
    chain = [_scale_primitive(coeffs)]
    d = tuple(c * i for i, c in enumerate(chain[0]) if i)
    if d:
        chain.append(_scale_primitive(d))
        while True:
            remainder = _fraction_remainder(chain[-2], chain[-1])
            if not remainder:
                break
            chain.append(_scale_primitive(tuple(-c for c in remainder)))
    return chain


def _fraction_gcd(a, b):
    """Euclid in Fraction arithmetic, scaled primitive with positive lead."""
    while b:
        a, b = b, _fraction_remainder(a, b)
    if not a:
        return ()
    a = _scale_primitive(a)
    return a if a[-1] > 0 else tuple(-c for c in a)


def _bisection_sign_change_count(coeffs, lo, hi):
    """Naive oracle: subdivide until the sign-change count stabilises."""
    previous = None
    pieces = 64
    for _ in range(8):
        values = []
        for i in range(pieces + 1):
            x = lo + (hi - lo) * Fraction(i, pieces)
            values.append(horner(coeffs, x))
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
        coeffs = _strip(rng.below(21) - 10 for _ in range(degree + 1))
        if len(coeffs) < 2:
            continue
        # restrict to squarefree draws so both methods count the same thing
        common = univar.poly_gcd(coeffs, univar.derivative(coeffs))
        assert common == _fraction_gcd(coeffs, univar.derivative(coeffs))
        if len(common) > 1:
            continue
        lo, hi = Fraction(-8), Fraction(8)
        if horner(coeffs, lo) == 0 or horner(coeffs, hi) == 0:
            continue
        chain = sturm_chain(coeffs)
        assert count_roots(chain, lo, hi) == _bisection_sign_change_count(
            coeffs, lo, hi
        )
        checked += 1


def test_isolate_returns_the_sturm_chain():
    p = poly_from_coeffs([-2, 0, 1])
    intervals, chain = sturm_isolate(p, (Fraction(0), Fraction(2)), Fraction(1, 64))
    assert chain == sturm_chain(univar.from_multipoly(p))
    # each emitted interval recounts to one root with the returned chain
    assert [count_roots(chain, lo, hi) for lo, hi in intervals] == [1]


def test_chain_is_integer_and_matches_fraction_arithmetic(diagonal):
    rng = SplitMix64(0x57C4)
    cases = [univar.from_multipoly(diagonal.p), univar.from_multipoly(diagonal.q)]
    # a double root, (x-1)^2 (x+2), and random draws, some with a negative lead
    cases.append(tuple(Fraction(c) for c in (2, -3, 0, 1)))
    for _ in range(10):
        draw = [Fraction(rng.below(21) - 10, 1 + rng.below(4)) for _ in range(7)]
        cases.append(_strip(draw))
    cases = [coeffs for coeffs in cases if coeffs]
    for coeffs in cases:
        chain = sturm_chain(_integer(coeffs))
        assert all(type(c) is int for member in chain for c in member)
        assert chain == _fraction_chain(coeffs)
    # gcds of neighbouring cases, and of the same pairs times a third case
    for a, b, factor in zip(cases, cases[1:], cases[2:]):
        for x, y in ((a, b), (_times(a, factor), _times(b, factor))):
            common = univar.poly_gcd(_integer(x), _integer(y))
            assert all(type(c) is int for c in common)
            assert common == _fraction_gcd(x, y)
    # a divisor with content, a zero argument, and a negative lead
    for x, y in (((-1, 0, 1), (2, 2)), ((0, 6), ()), ((), (0, -4)), ((), ())):
        assert univar.poly_gcd(x, y) == _fraction_gcd(x, y)


def test_isolation_counts_each_point_once(diagonal, monkeypatch):
    """Bisection reuses the counts at an interval's ends: every distinct point
    has its sign variations counted exactly once."""
    from kcert import sturm

    counted = []
    real = sturm.sign_variations

    def counting(chain, x):
        counted.append(x)
        return real(chain, x)

    monkeypatch.setattr(sturm, "sign_variations", counting)
    intervals, chain = sturm_isolate(diagonal.p, (Fraction(0), Fraction(2)), Fraction(1, 1 << 20))
    assert len(intervals) == 1
    assert len(counted) == len(set(counted)) > 20
    monkeypatch.setattr(sturm, "sign_variations", real)
    lo, hi = intervals[0]
    assert count_roots(chain, lo, hi) == 1 and hi - lo <= Fraction(1, 1 << 20)

