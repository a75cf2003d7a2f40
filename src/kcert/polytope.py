"""Parametric convex lattice polygons and their exact moment integrals.

The only fan supported is the six-edge del Pezzo fan.  A polygon is built from
the six curve areas, which coincide with the lattice lengths of the edges; the
boundary is traversed counter-clockwise starting from the vertex (a_E3, 0):

    slot   direction   lattice length
    L13    ( 1,  0)    a_L13      (bottom)
    E1     ( 0,  1)    a_E1       (right chop)
    L12    (-1,  1)    a_L12      (hypotenuse)
    E2     (-1,  0)    a_E2       (top)
    L23    ( 0, -1)    a_L23      (left)
    E3     ( 1, -1)    a_E3       (origin chop)

Vertex coordinates are degree <= 1 polynomials in the cone parameters; zero
lattice lengths degenerate the hexagon to a pentagon, trapezoid, or triangle.
Coordinates are u = 2*pi*x, v = 2*pi*y, chosen so that every vertex datum and
every integral below is a parameter polynomial with rational coefficients; pi
factors are restored downstream, in one place.

Integrals are edge sums over the counter-clockwise edges (u_i, v_i) ->
(u_j, v_j), written out for every monomial of degree <= 2 and formed in one
walk over the edges (``_moment_sums``).  Each edge has one kernel k(u^a v^b):

    k(1) = 1,    k(u) = u_i + u_j,    k(v) = v_i + v_j,
    k(u^2) = u_i (u_i + u_j) + u_j^2,    k(v^2) = v_i (v_i + v_j) + v_j^2,
    k(uv)  = u_i (2 v_i + v_j) + u_j (v_i + 2 v_j).

  * interior: with the shoelace term c_i = u_i v_j - u_j v_i,
        int u^a v^b = sum_i c_i k / D,    D = 2, 6, 6, 12, 24, 12;
  * boundary, in the lattice measure (a primitive segment has length 1),
    with l_i the lattice length of the edge,
        int u^a v^b = sum_i l_i k / K,    K = 1, 2, 2,
for 1, u, v, u^2, uv, v^2 (``MONOMIALS``), on the boundary 1, u, v only:
D = (a+b+2)!/(a! b!) and K = (a+b+1)!/(a! b!).  Higher degrees are refused.
A polygon is its vertices and lattice lengths over one integer scale: for a
chart polygon, MultiPolys over scale 1; for a numeric polygon (no variables),
Python ints over L, the lcm of the six areas' denominators, made once from
the areas.  The sums use operators only, so they run unchanged on either
type, and an integral divides its sum once, by D L^(a+b+2) or K L^(a+b+1),
so a numeric polygon returns Fractions and stores none.  ``dilated_moments``
integrates a numeric polygon dilated by 6L instead: L clears the scale and 6
the divisor, so every integral is an int, 18, 36, 36, 108, 54, 108 times its
interior sum and 6, 18, 18 times its boundary sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence, Union

from .poly import MultiPoly, Scalar, exact_scalar

AREA_SLOTS = ("E3", "L13", "E1", "L12", "E2", "L23")
EDGE_SLOTS = ("L13", "E1", "L12", "E2", "L23", "E3")
EDGE_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


class PolygonError(ValueError):
    """Closure violation or invalid edge data."""


Entry = Union[MultiPoly, int]
Coordinate = Union[MultiPoly, Fraction]


class ParamPolygon(NamedTuple):
    """The CCW vertices (us[i], vs[i]) from (a_E3, 0) and the lattice lengths
    of the edges in EDGE_SLOTS order, all divided by ``scale``.

    A chart polygon holds degree <= 1 MultiPolys over ``variables`` with
    scale 1; a numeric polygon (no variables) holds ints over scale L, the lcm
    of its areas' denominators.
    """

    variables: tuple[str, ...]
    us: tuple[Entry, ...]
    vs: tuple[Entry, ...]
    lengths: tuple[Entry, ...]
    scale: int


def _as_area(slot: str, value: MultiPoly | Scalar, variables: tuple[str, ...]) -> Entry:
    """The area as a degree <= 1 MultiPoly over the variables, or with no
    variables as the int or Fraction it is; any other number is refused."""
    if isinstance(value, MultiPoly):
        if not variables or value.variables != variables:
            raise ValueError(
                f"area is over {value.variables}, expected {variables or 'a number'}"
            )
        if value.total_degree() > 1:
            raise ValueError(f"area {slot} has degree > 1: {value.render()}")
        return value
    value = exact_scalar(f"area {slot}", value)
    return MultiPoly.const(variables, value) if variables else value


def _text(x: Entry, scale: int) -> str:
    return x.render() if isinstance(x, MultiPoly) else str(Fraction(x, scale))


def _at(x: Coordinate, point: Sequence[Scalar]) -> Coordinate:
    return x.evaluate(point) if isinstance(x, MultiPoly) else x


def build_polygon(
    areas: Sequence[MultiPoly | Scalar],
    variables: Sequence[str] = (),
    sample_point: Sequence[Scalar] | None = None,
) -> ParamPolygon:
    """Build the moment polygon from the six curve areas.

    ``areas`` is ordered (a_E3, a_L13, a_E1, a_L12, a_E2, a_L23): degree <= 1
    polynomials over ``variables`` (or constants), or with no variables ints
    and Fractions, which are put over their common denominator L once, here.
    The two closure relations a_L13 + a_E3 = a_L12 + a_E2 and a_L23 + a_E3 =
    a_L12 + a_E1 are checked as polynomial identities; lattice lengths must be
    nonnegative (and the area positive) at a strictly positive sample point,
    by default all-ones.
    """
    varlist = tuple(variables)
    if len(areas) != 6:
        raise PolygonError(f"expected 6 areas, got {len(areas)}")
    entries = [_as_area(slot, a, varlist) for slot, a in zip(AREA_SLOTS, areas)]
    scale = 1
    if not varlist:
        scale = lcm(*(q.denominator for q in entries))
        entries = [q.numerator * (scale // q.denominator) for q in entries]
    e3, l13, e1, l12, e2, l23 = entries
    closure_a = l13 + e3 - l12 - e2
    closure_b = l23 + e3 - l12 - e1
    if closure_a or closure_b:
        raise PolygonError(
            "closure relations violated: "
            f"L13+E3-L12-E2 = {_text(closure_a, scale)}, "
            f"L23+E3-L12-E1 = {_text(closure_b, scale)}"
        )
    lengths = (l13, e1, l12, e2, l23, e3)
    if sample_point is None:
        sample_point = (Fraction(1),) * len(varlist)
    for slot, length in zip(EDGE_SLOTS, lengths):
        value = _at(length, sample_point)
        if value < 0:
            raise PolygonError(
                f"edge {slot} has negative lattice length {Fraction(value, scale)} "
                "at the sample point"
            )
    us, vs = [e3], [e3 * 0]  # of the areas' type
    for (dx, dy), length in zip(EDGE_DIRECTIONS[:-1], lengths[:-1]):
        us.append(us[-1] + length * dx)
        vs.append(vs[-1] + length * dy)
    sampled = [[_at(x, sample_point) for x in xs] for xs in (us, vs)]
    if sum(cross for *_, cross in _edges(*sampled)) <= 0:  # twice the area
        raise PolygonError("polygon has nonpositive area at the sample point")
    return ParamPolygon(varlist, tuple(us), tuple(vs), lengths, scale)


MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_DIVISORS = ((2, 6, 6, 12, 24, 12), (1, 2, 2))  # D (interior), K (boundary)
# 6^(a+b+2) / D and 6^(a+b+1) / K: the sums' multipliers over the polygon dilated by 6L
_DILATIONS = ((18, 36, 36, 108, 54, 108), (6, 18, 18))


def _edges(us: Sequence, vs: Sequence):
    """(u_i, v_i, u_j, v_j, c_i) for each CCW edge, with the shoelace term
    c_i = u_i v_j - u_j v_i: twice the area is the sum of the c_i."""
    for ui, vi, uj, vj in zip(us, vs, us[1:] + us[:1], vs[1:] + vs[:1]):
        yield ui, vi, uj, vj, ui * vj - uj * vi


def _moment_sums(polygon: ParamPolygon) -> tuple[list[Entry], list[Entry]]:
    """(interior, boundary): the edge sums of ``MONOMIALS`` and of 1, u, v, in
    the entries' type, from one walk over the edges (module docstring)."""
    zero = MultiPoly.zero(polygon.variables) if polygon.variables else 0
    i00 = i10 = i01 = i20 = i11 = i02 = b00 = b10 = b01 = zero
    for (ui, vi, uj, vj, c), ell in zip(_edges(polygon.us, polygon.vs), polygon.lengths):
        su, sv = ui + uj, vi + vj
        kuu, kuv, kvv = ui * su + uj * uj, ui * (vi + sv) + uj * (vj + sv), vi * sv + vj * vj
        i00, i10, i01 = i00 + c, i10 + c * su, i01 + c * sv
        i20, i11, i02 = i20 + c * kuu, i11 + c * kuv, i02 + c * kvv
        b00, b10, b01 = b00 + ell, b10 + ell * su, b01 + ell * sv
    return [i00, i10, i01, i20, i11, i02], [b00, b10, b01]


def _slot(a: int, b: int) -> int:
    """The index of u^a v^b in ``MONOMIALS``; any other exponents are refused."""
    if a < 0 or b < 0 or a + b > 2:
        raise ValueError(f"polygon integrals run up to degree 2 in exponents >= 0, not u^{a} v^{b}")
    return MONOMIALS.index((a, b))


def moments(polygon: ParamPolygon) -> tuple[tuple[Coordinate, ...], tuple[Coordinate, ...]]:
    """(interior, boundary): every integral of ``MONOMIALS`` over the polygon
    and of 1, u, v over its boundary, exactly, from one pass."""
    return tuple(
        tuple(s * Fraction(1, d * polygon.scale ** (a + b + n))
              for s, d, (a, b) in zip(sums, divisors, MONOMIALS))
        for sums, divisors, n in zip(_moment_sums(polygon), _DIVISORS, (2, 1))
    )


def dilated_moments(polygon: ParamPolygon) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``moments`` over the numeric polygon dilated by 6L, as ints, from one pass."""
    return tuple(
        tuple(s * m for s, m in zip(sums, dilation))
        for sums, dilation in zip(_moment_sums(polygon), _DILATIONS)
    )


def integrate_monomial(polygon: ParamPolygon, a: int, b: int) -> Coordinate:
    """Exact interior integral of u^a v^b over the polygon, a + b <= 2."""
    i = _slot(a, b)
    return moments(polygon)[0][i]


def boundary_integral(polygon: ParamPolygon, a: int, b: int) -> Coordinate:
    """Exact boundary integral of u^a v^b in the lattice measure, a + b <= 1."""
    i = _slot(a, b)
    if i >= 3:
        raise ValueError(f"boundary integrals run up to degree 1, not u^{a} v^{b}")
    return moments(polygon)[1][i]


def central_moment_numerators(area, m10, m01, m20, m11, m02) -> tuple:
    """(puu, pvv, puv): the central second moments times the area, e.g.
    puu = area int u^2 - (int u)^2, numerators over the common denominator
    area.  Operators only: runs on MultiPolys, Fractions and ints alike."""
    return m20 * area - m10 * m10, m02 * area - m01 * m01, m11 * area - m10 * m01
