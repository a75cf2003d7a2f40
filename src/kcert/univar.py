"""Dense univariate polynomial helpers over exact rationals.

Coefficient tuples are ascending (index = power) with no trailing zeros; the
zero polynomial is the empty tuple.  These routines back the one-variable
reductions and feed the Sturm chains, which hold their members as ints
(``sturm``); multivariate values never pass through here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .poly import MultiPoly

Coeffs = tuple[Fraction, ...]


def strip(coeffs: Sequence[Fraction]) -> Coeffs:
    values = list(coeffs)
    while values and values[-1] == 0:
        values.pop()
    return tuple(values)


def derivative(p: Coeffs) -> Coeffs:
    return strip(tuple(coeff * i for i, coeff in enumerate(p) if i))


def poly_divmod(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    remainder = list(a)
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    lead = b[-1]
    while len(remainder) >= len(b) and strip(remainder):
        shift = len(remainder) - len(b)
        factor = remainder[-1] / lead
        quotient[shift] = factor
        for i, coeff in enumerate(b):
            remainder[shift + i] -= factor * coeff
        while remainder and remainder[-1] == 0:
            remainder.pop()
    return strip(quotient), strip(remainder)


def exact_div(a: Coeffs, b: Coeffs) -> Coeffs:
    q, r = poly_divmod(a, b)
    if r:
        raise ValueError("polynomial division left a remainder")
    return q


def scale_primitive(p: Coeffs) -> Coeffs:
    """Scale by a positive rational to integer and content-free (sign kept)."""
    if not p:
        return p
    denominator_lcm = 1
    for c in p:
        denominator_lcm = lcm(denominator_lcm, c.denominator)
    scaled = [c * denominator_lcm for c in p]
    content = 0
    for c in scaled:
        content = gcd(content, abs(c.numerator))
    return tuple(c / content for c in scaled)


def make_primitive(p: Coeffs) -> Coeffs:
    """Scale to integer, content-free, positive-leading (sign may flip)."""
    result = scale_primitive(p)
    if result and result[-1] < 0:
        result = tuple(-c for c in result)
    return result


def poly_gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Euclidean gcd, returned primitive with positive leading coefficient."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
        if b:
            b = make_primitive(b)
    if not a:
        return ()
    return make_primitive(a)


def from_multipoly(p: MultiPoly) -> Coeffs:
    if len(p.variables) != 1:
        raise ValueError(f"expected one variable, got {p.variables}")
    if p.is_zero:
        return ()
    coeffs = [Fraction(0)] * (p.total_degree() + 1)
    for (power,), n in p.numerators.items():
        coeffs[power] = Fraction(n, p.den)
    return strip(coeffs)


def to_multipoly(p: Coeffs, name: str) -> MultiPoly:
    return MultiPoly((name,), {(i,): c for i, c in enumerate(p)})
