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

Integrals are edge sums over the counter-clockwise vertices (u_i, v_i), with
integer weights and no triangulation:
  * interior moments: with c_i = u_i v_{i+1} - u_{i+1} v_i,
        int u^a v^b = a! b! / (a+b+2)! sum_i c_i sum_{k<=a, l<=b}
            C(k+l, l) C(a+b-k-l, b-l) u_i^k u_{i+1}^(a-k) v_i^l v_{i+1}^(b-l);
  * boundary integrals in the lattice measure (a primitive segment has
    length 1), edge by edge with p(t) = start + t*direction, t in [0, length].
A polygon is its vertices and lattice lengths over one integer scale: for a
chart polygon, MultiPolys over scale 1; for a numeric polygon (no variables),
Python ints over L, the lcm of the six areas' denominators, made once from
the areas.  The sums run unchanged on either type and are divided once, by
L^(a+b+2) (a+b+2)! / (a! b!) (interior) or by L^(a+b+1) times the weight
denominator (boundary), so a numeric polygon returns Fractions and stores none.
``dilated_integral`` integrates over a numeric polygon dilated by 6L instead:
L clears the scale and 6 the divisor, so every integral of degree <= 2 is an int.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
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
    polygon = ParamPolygon(varlist, tuple(us), tuple(vs), lengths, scale)
    if _at(_interior_sum(polygon, 0, 0)[0], sample_point) <= 0:
        raise PolygonError("polygon has nonpositive area at the sample point")
    return polygon


def _zero(polygon: ParamPolygon) -> Entry:
    return MultiPoly.zero(polygon.variables) if polygon.variables else 0


def _powers(x, n: int) -> list:
    """[1, x, ..., x^n]; the int 1 multiplies either entry type."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def _interior_sum(polygon: ParamPolygon, a: int, b: int) -> tuple[Entry, int, int]:
    """(sum, divisor, n): the interior integral of u^a v^b is the edge sum
    above, in the entries' type, over divisor * scale^n."""
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be nonnegative")
    us, vs, zero, d = polygon.us, polygon.vs, _zero(polygon), a + b
    weights = [[comb(k + l, l) * comb(d - k - l, b - l) for l in range(b + 1)]
               for k in range(a + 1)]
    # one power table per vertex, shared by the vertex's two edges
    u_powers = [_powers(u, a) for u in us]
    v_powers = [_powers(v, b) for v in vs]
    total = zero
    for i in range(len(us)):
        j = (i + 1) % len(us)
        cross = us[i] * vs[j] - us[j] * vs[i]
        if cross == zero:
            continue
        v_terms = [v_powers[i][l] * v_powers[j][b - l] for l in range(b + 1)]
        inner = zero
        for k in range(a + 1):
            u_term = u_powers[i][k] * u_powers[j][a - k]
            for l in range(b + 1):
                inner = inner + u_term * v_terms[l] * weights[k][l]
        total = total + cross * inner
    return total, comb(d, a) * (d + 1) * (d + 2), d + 2


def _boundary_sum(polygon: ParamPolygon, a: int, b: int) -> tuple[Entry, int, int]:
    """(sum, K, n) for the boundary integral of u^a v^b, as ``_interior_sum``.

    An edge from (u, v) along (dx, dy) adds sum_{p<=a, q<=b} C(a,p) C(b,q)
    dx^p dy^q / (p+q+1) u^(a-p) v^(b-q) length^(p+q+1), in integer weights
    over K = lcm(1..a+b+1); n = a+b+1.
    """
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be nonnegative")
    zero = _zero(polygon)
    common = lcm(*range(1, a + b + 2))
    weights = [[comb(a, p) * comb(b, q) * (common // (p + q + 1)) for q in range(b + 1)]
               for p in range(a + 1)]
    total = zero
    edges = zip(polygon.us, polygon.vs, EDGE_DIRECTIONS, polygon.lengths)
    for u, v, (dx, dy), length in edges:
        if length == zero:
            continue
        u_powers, v_powers = _powers(u, a), _powers(v, b)
        l_powers = _powers(length, a + b + 1)
        for p in range(a + 1 if dx else 1):  # dx = 0 leaves p = 0 only, dy = 0 q = 0
            for q in range(b + 1 if dy else 1):
                weight = weights[p][q] * dx ** p * dy ** q
                total = total + u_powers[a - p] * v_powers[b - q] * l_powers[p + q + 1] * weight
    return total, common, a + b + 1


def integrate_monomial(polygon: ParamPolygon, a: int, b: int) -> Coordinate:
    """Exact interior integral of u^a v^b over the polygon (edge sum above)."""
    total, divisor, n = _interior_sum(polygon, a, b)
    return total * Fraction(1, divisor * polygon.scale ** n)


def boundary_integral(polygon: ParamPolygon, a: int, b: int) -> Coordinate:
    """Exact boundary integral of u^a v^b in the lattice measure."""
    total, divisor, n = _boundary_sum(polygon, a, b)
    return total * Fraction(1, divisor * polygon.scale ** n)


def dilated_integral(polygon: ParamPolygon, a: int, b: int, boundary: bool = False) -> int:
    """The integral of u^a v^b over the numeric polygon dilated by 6L, or over
    its boundary in the lattice measure, as an int; a + b <= 2."""
    if a + b > 2:  # the interior divisor at degree 3, 20 or 60, does not divide 6^5
        raise ValueError(f"the dilation by 6L gives ints up to degree 2, not degree {a + b}")
    total, divisor, n = (_boundary_sum if boundary else _interior_sum)(polygon, a, b)
    return total * (6 ** n // divisor)


def lattice_perimeter(polygon: ParamPolygon) -> Coordinate:
    total = sum(polygon.lengths)
    return total if polygon.variables else Fraction(total, polygon.scale)


def central_moment_numerators(area, m10, m01, m20, m11, m02) -> tuple:
    """(puu, pvv, puv): the central second moments times the area, e.g.
    puu = area int u^2 - (int u)^2, numerators over the common denominator
    area.  Operators only: runs on MultiPolys, Fractions and ints alike."""
    return m20 * area - m10 * m10, m02 * area - m01 * m01, m11 * area - m10 * m01


def central_second_moments(polygon: ParamPolygon) -> tuple:
    """(area, puu, pvv, puv): the area and ``central_moment_numerators``."""
    area = integrate_monomial(polygon, 0, 0)  # nonzero: build_polygon checks its sign
    moments = (integrate_monomial(polygon, a, b) for a, b in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
    return (area, *central_moment_numerators(area, *moments))
