"""Dense one-variable polynomials with integer coefficients.

A polynomial is an ascending tuple of ints (index = power) whose last entry
is nonzero; the zero polynomial is the empty tuple.  ``from_multipoly``
reads a one-variable ``MultiPoly`` as its int numerators, a positive
rescaling, which changes neither roots nor signs.  Division is integer
pseudo-division, and gcds are taken by Euclid on primitive pseudo-remainders
(Knuth, TAOCP Vol. 2, 4.6.1), so no Fraction is formed.  These routines back
the diagonal's reduction to lowest terms and the Sturm chains (``sturm``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .poly import MultiPoly

IntCoeffs = tuple[int, ...]


def derivative(p: IntCoeffs) -> IntCoeffs:
    return tuple(c * i for i, c in enumerate(p) if i)


def primitive(p: IntCoeffs) -> IntCoeffs:
    """p divided by the gcd of its coefficients (sign kept)."""
    content = gcd(*p)
    return tuple(c // content for c in p)


def negated_remainder(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    """-rem(a, b) times a positive integer, by integer pseudo-division."""
    r = list(a)
    lead = b[-1]
    negate = True
    while len(r) >= len(b):
        shift = len(r) - len(b)
        common = gcd(lead, r[-1])
        scale, factor = lead // common, r[-1] // common
        r = [c * scale for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        if scale < 0:  # the remainder was scaled by a negative number
            negate = not negate
        while r and r[-1] == 0:
            r.pop()
    return tuple(-c for c in r) if negate else tuple(r)


def exact_quotient(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    """a / b for a primitive b that divides a: by Gauss's lemma it is integral."""
    r = list(a)
    quotient = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quotient) - 1, -1, -1):
        factor, rest = divmod(r[shift + len(b) - 1], b[-1])
        if rest:
            raise ValueError("polynomial division left a remainder")
        quotient[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
    if any(r):
        raise ValueError("polynomial division left a remainder")
    return tuple(quotient)


def poly_gcd(a: IntCoeffs, b: IntCoeffs) -> IntCoeffs:
    """Euclidean gcd, returned primitive with positive leading coefficient."""
    while b:
        a, b = b, primitive(negated_remainder(a, b))
    if a and a[-1] < 0:
        a = tuple(-c for c in a)
    return primitive(a)


def cauchy_root_bound(p: IntCoeffs) -> Fraction:
    """1 + max|p_i| / |lead|: every real root of p lies strictly inside it."""
    biggest = max(map(abs, p[:-1]), default=0)
    return 1 + Fraction(biggest, abs(p[-1]))


def from_multipoly(p: MultiPoly) -> IntCoeffs:
    """The int numerators of a one-variable p: p times its positive ``den``."""
    if len(p.variables) != 1:
        raise ValueError(f"expected one variable, got {p.variables}")
    if p.is_zero:
        return ()
    coeffs = [0] * (p.total_degree() + 1)
    for (power,), n in p.numerators.items():
        coeffs[power] = n
    return tuple(coeffs)


def to_multipoly(p: IntCoeffs, name: str, den: int = 1) -> MultiPoly:
    """The polynomial p / den in the variable ``name``."""
    return MultiPoly._build((name,), {(i,): c for i, c in enumerate(p) if c}, den)
