"""Sturm sequences: certified real-root counting and isolation.

The chain is the classical one, p0 = p, p1 = p', p_{i+1} = -rem(p_{i-1}, p_i),
each member rescaled to a primitive integer polynomial (a positive rescaling
never changes sign variations).  The number of distinct real roots in a
half-open interval (a, b] is Var(a) - Var(b).  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import univar
from .poly import MultiPoly
from .univar import Coeffs


def sturm_chain(p: Coeffs) -> list[Coeffs]:
    if not p:
        raise ValueError("zero polynomial has no Sturm chain")
    # only positive rescaling preserves the sign-variation count
    chain = [univar.scale_primitive(p)]
    d = univar.derivative(p)
    if d:
        chain.append(univar.scale_primitive(d))
        while True:
            remainder = univar.poly_divmod(chain[-2], chain[-1])[1]
            if not remainder:
                break
            chain.append(univar.scale_primitive(tuple(-c for c in remainder)))
    return chain


def sign_variations(chain: list[Coeffs], x: Fraction) -> int:
    if univar.evaluate(chain[-1], x) == 0:
        # x is a multiple root of p, where every member vanishes: count on the
        # chain divided by its last member, gcd(p, p') up to a constant
        chain = [univar.exact_div(member, chain[-1]) for member in chain]
    signs = []
    for member in chain:
        value = univar.evaluate(member, x)
        if value != 0:
            signs.append(1 if value > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[Coeffs], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in the half-open interval (lo, hi]."""
    if lo >= hi:
        raise ValueError("empty interval")
    return sign_variations(chain, lo) - sign_variations(chain, hi)


@dataclass(frozen=True)
class SturmData:
    """A chain plus the interval queries answered with it (all serialisable)."""

    polynomial: MultiPoly
    chain: list[Coeffs]
    queries: list[tuple[Fraction, Fraction, int]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "polynomial": self.polynomial.render(),
            "chain_degrees": [univar.degree(c) for c in self.chain],
            "chain": [[str(c) for c in member] for member in self.chain],
            "queries": [
                {"interval": [str(lo), str(hi)], "roots": n}
                for lo, hi, n in self.queries
            ],
        }


def sturm_isolate(
    p: MultiPoly,
    interval: tuple[Fraction, Fraction],
    target_width: Fraction,
) -> tuple[list[tuple[Fraction, Fraction]], SturmData]:
    """Isolate every real root of a one-variable polynomial in (lo, hi].

    Returns disjoint half-open rational intervals (a, b], each certified by
    the Sturm chain to contain exactly one root and each of width <=
    target_width, together with the chain and the query log.  Counts stay
    valid at roots of p, so a root at hi or at a bisection midpoint is
    reported, and one at lo is not.
    """
    if target_width <= 0:
        raise ValueError("target width must be positive")
    coeffs = univar.from_multipoly(p)
    if not coeffs:
        raise ValueError("cannot isolate roots of the zero polynomial")
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if lo >= hi:
        raise ValueError("empty interval")
    chain = sturm_chain(coeffs)
    queries: list[tuple[Fraction, Fraction, int]] = []

    def counted(a: Fraction, b: Fraction) -> int:
        n = count_roots(chain, a, b)
        queries.append((a, b, n))
        return n

    isolated: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, counted(lo, hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1 and b - a <= target_width:
            isolated.append((a, b))
            continue
        mid = (a + b) / 2
        left = counted(a, mid)
        stack.append((mid, b, n - left))
        stack.append((a, mid, left))
    isolated.sort()
    data = SturmData(polynomial=p, chain=chain, queries=queries)
    return isolated, data


def recheck_sturm_data(data: SturmData) -> bool:
    """Re-validate a serialized Sturm certificate from its own payload.

    Confirms the stored chain really is the Sturm chain of the stored
    polynomial (up to positive rescaling) and that every logged root count
    matches the sign-variation difference it claims.
    """
    coeffs = univar.from_multipoly(data.polynomial)
    expected = sturm_chain(coeffs)
    if expected != [univar.scale_primitive(c) for c in data.chain]:
        return False
    for lo, hi, n in data.queries:
        if count_roots(data.chain, lo, hi) != n:
            return False
    return True
