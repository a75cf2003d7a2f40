"""Sturm sequences: certified real-root counting and isolation.

The chain is the classical one, p0 = p, p1 = p', p_{i+1} = -rem(p_{i-1}, p_i),
each member rescaled to a primitive integer polynomial (a positive rescaling
never changes sign variations) and held as a tuple of ints; the remainders
come from ``univar``'s integer pseudo-division.  This module only builds
chains, evaluates them, and counts and isolates roots: the sign of a member
at a/b is that of the integer b^m * p(a/b), m its degree, formed by a
homogeneous Horner scheme, and the number of distinct real roots in a
half-open interval (a, b] is Var(a) - Var(b).  Everything is exact.

``sturm_isolate`` returns its intervals together with the chain, so that a
caller can recount an interval it emits with one more query.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly, exact_scalar
from .univar import IntCoeffs, derivative, exact_quotient, from_multipoly, negated_remainder, primitive


def sturm_chain(p: IntCoeffs) -> list[IntCoeffs]:
    if not p:
        raise ValueError("zero polynomial has no Sturm chain")
    # only positive rescaling preserves the sign-variation count
    chain = [primitive(p)]
    d = derivative(chain[0])
    if d:
        chain.append(primitive(d))
        while True:
            remainder = negated_remainder(chain[-2], chain[-1])
            if not remainder:
                break
            chain.append(primitive(remainder))
    return chain


def _values(chain: list[IntCoeffs], a: int, b: int) -> list[int]:
    """b^m * member(a/b) for each member of degree m: the member's sign at a/b."""
    powers = [1]
    for _ in range(max(map(len, chain)) - 1):
        powers.append(powers[-1] * b)
    values = []
    for member in chain:
        total = member[-1]
        for k, c in enumerate(reversed(member[:-1]), 1):
            total = total * a + c * powers[k]
        values.append(total)
    return values


def sign_variations(chain: list[IntCoeffs], x: Fraction) -> int:
    a, b = x.numerator, x.denominator
    values = _values(chain, a, b)
    if values[-1] == 0:
        # x is a multiple root of p, where every member vanishes: count on the
        # chain divided by its last member, gcd(p, p') up to a constant
        values = _values([exact_quotient(member, chain[-1]) for member in chain], a, b)
    signs = [value > 0 for value in values if value]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_roots(chain: list[IntCoeffs], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in the half-open interval (lo, hi]."""
    if lo >= hi:
        raise ValueError("empty interval")
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def sturm_isolate(
    p: MultiPoly,
    interval: tuple[Fraction, Fraction],
    target_width: Fraction,
) -> tuple[list[tuple[Fraction, Fraction]], list[IntCoeffs]]:
    """Isolate every real root of a one-variable polynomial in (lo, hi].

    Returns disjoint half-open rational intervals (a, b], each certified by
    the Sturm chain to contain exactly one root and each of width <=
    target_width, together with the chain that certifies them.  Counts stay
    valid at roots of p, so a root at hi or at a bisection midpoint is
    reported, and one at lo is not.  Each point's sign variations are counted
    once: an interval carries the counts at both its ends.
    """
    lo, hi = exact_scalar("interval", interval[0]), exact_scalar("interval", interval[1])
    target_width = exact_scalar("target_width", target_width)
    if target_width <= 0:
        raise ValueError("target width must be positive")
    coeffs = from_multipoly(p)
    if not coeffs:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if lo >= hi:
        raise ValueError("empty interval")
    chain = sturm_chain(coeffs)
    isolated: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, sign_variations(chain, lo), sign_variations(chain, hi))]
    while stack:
        a, b, var_a, var_b = stack.pop()
        n = var_a - var_b
        if n == 0:
            continue
        if n == 1 and b - a <= target_width:
            isolated.append((a, b))
            continue
        mid = (a + b) / 2
        var_mid = sign_variations(chain, mid)
        stack.append((mid, b, var_mid, var_b))
        stack.append((a, mid, var_a, var_mid))
    isolated.sort()
    return isolated, chain
