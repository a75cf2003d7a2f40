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
A numeric polygon (no variables) holds Fractions: its lattice lengths and
vertex coordinates, and the integrals it returns.  It runs the same sums on
Python ints: coordinates and lattice lengths are scaled by L, the lcm of their
denominators, once when the polygon is made, and the sum is divided once, by
L^(a+b+2) (a+b+2)! / (a! b!) (interior) or by L^(a+b+1) times the weight
denominator (boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from typing import Sequence, Union

from .poly import MultiPoly, Scalar

AREA_SLOTS = ("E3", "L13", "E1", "L12", "E2", "L23")
EDGE_SLOTS = ("L13", "E1", "L12", "E2", "L23", "E3")
EDGE_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


class PolygonError(ValueError):
    """Closure violation or invalid edge data."""


Coordinate = Union[MultiPoly, Fraction]


def _text(x: Coordinate) -> str:
    return x.render() if isinstance(x, MultiPoly) else str(x)


@dataclass(frozen=True)
class AffinePoint:
    """A vertex: Fractions, or degree <= 1 parameter polynomials."""

    u: Coordinate
    v: Coordinate

    def __post_init__(self) -> None:
        for coord in (self.u, self.v):
            if isinstance(coord, MultiPoly) and coord.total_degree() > 1:
                raise ValueError(f"vertex coordinate has degree > 1: {coord.render()}")


@dataclass(frozen=True)
class ParamPolygon:
    """Cyclically ordered CCW vertex list with the fixed del Pezzo fan.

    A numeric polygon (no variables) also holds ``scaled``: its u's, v's and
    lattice lengths as ints scaled by L, the lcm of their denominators, and
    L itself, made once here for every integral over it; None otherwise.
    """

    variables: tuple[str, ...]
    vertices: tuple[AffinePoint, ...]
    edge_directions: tuple[tuple[int, int], ...]
    edge_lattice_lengths: tuple[Coordinate, ...]
    scaled: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        scaled = None
        if not self.variables:
            groups = (
                [p.u for p in self.vertices],
                [p.v for p in self.vertices],
                self.edge_lattice_lengths,
            )
            scale = lcm(*(q.denominator for group in groups for q in group))
            ints = (tuple(q.numerator * (scale // q.denominator) for q in g) for g in groups)
            scaled = (*ints, scale)
        object.__setattr__(self, "scaled", scaled)


def _as_area(value: MultiPoly | Scalar, variables: tuple[str, ...]) -> Coordinate:
    """A Fraction when there are no variables, else a MultiPoly over them."""
    if isinstance(value, MultiPoly):
        if not variables or value.variables != variables:
            raise ValueError(
                f"area is over {value.variables}, expected {variables or 'a number'}"
            )
        return value
    return MultiPoly.const(variables, value) if variables else Fraction(value)


def _at(x: Coordinate, point: Sequence[Scalar]) -> Fraction:
    return x.evaluate(point) if isinstance(x, MultiPoly) else x


def build_polygon(
    areas: Sequence[MultiPoly | Scalar],
    variables: Sequence[str] = (),
    sample_point: Sequence[Scalar] | None = None,
) -> ParamPolygon:
    """Build the moment polygon from the six curve areas.

    ``areas`` is ordered (a_E3, a_L13, a_E1, a_L12, a_E2, a_L23).  The two
    closure relations a_L13 + a_E3 = a_L12 + a_E2 and a_L23 + a_E3 =
    a_L12 + a_E1 are checked as polynomial identities; lattice lengths must be
    nonnegative (and the area positive) at a strictly positive sample point,
    by default all-ones.  With no variables the areas are numbers and the
    polygon holds Fractions.
    """
    varlist = tuple(variables)
    if len(areas) != 6:
        raise PolygonError(f"expected 6 areas, got {len(areas)}")
    by_slot = dict(zip(AREA_SLOTS, (_as_area(a, varlist) for a in areas)))
    closure_a = by_slot["L13"] + by_slot["E3"] - by_slot["L12"] - by_slot["E2"]
    closure_b = by_slot["L23"] + by_slot["E3"] - by_slot["L12"] - by_slot["E1"]
    if closure_a or closure_b:
        raise PolygonError(
            "closure relations violated: "
            f"L13+E3-L12-E2 = {_text(closure_a)}, "
            f"L23+E3-L12-E1 = {_text(closure_b)}"
        )
    lengths = tuple(by_slot[slot] for slot in EDGE_SLOTS)
    if sample_point is None:
        sample_point = (Fraction(1),) * len(varlist)
    for slot, length in zip(EDGE_SLOTS, lengths):
        value = _at(length, sample_point)
        if value < 0:
            raise PolygonError(
                f"edge {slot} has negative lattice length {value} at the sample point"
            )
    zero = by_slot["E3"] * 0  # of the areas' type
    vertices = [AffinePoint(by_slot["E3"], zero)]
    for (dx, dy), length in zip(EDGE_DIRECTIONS[:-1], lengths[:-1]):
        prev = vertices[-1]
        vertices.append(AffinePoint(prev.u + length * dx, prev.v + length * dy))
    polygon = ParamPolygon(varlist, tuple(vertices), EDGE_DIRECTIONS, lengths)
    if _at(integrate_monomial(polygon, 0, 0), sample_point) <= 0:
        raise PolygonError("polygon has nonpositive area at the sample point")
    return polygon


def _edge_data(polygon: ParamPolygon) -> tuple[Sequence, Sequence, Sequence, object, int]:
    """(u's, v's, lattice lengths, zero, L) in the type the edge sums run on:
    MultiPolys with L = 1, or for a numeric polygon its ints scaled by L."""
    if polygon.scaled is not None:
        us, vs, lengths, scale = polygon.scaled
        return us, vs, lengths, 0, scale
    us, vs = [p.u for p in polygon.vertices], [p.v for p in polygon.vertices]
    return us, vs, polygon.edge_lattice_lengths, MultiPoly.zero(polygon.variables), 1


def _powers(x, n: int) -> list:
    """[1, x, ..., x^n]; the int 1 multiplies either coordinate type."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def integrate_monomial(polygon: ParamPolygon, a: int, b: int) -> Coordinate:
    """Exact interior integral of u^a v^b over the polygon (edge sum above)."""
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be nonnegative")
    us, vs, _, zero, scale = _edge_data(polygon)
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
                weight = comb(k + l, l) * comb(a + b - k - l, b - l)
                inner = inner + u_term * v_terms[l] * weight
        total = total + cross * inner
    divisor = comb(a + b, a) * (a + b + 1) * (a + b + 2) * scale ** (a + b + 2)
    return total * Fraction(1, divisor)


def boundary_integral(polygon: ParamPolygon, a: int, b: int) -> Coordinate:
    """Exact boundary integral of u^a v^b in the lattice measure.

    An edge from (u, v) along (dx, dy) adds sum_{p<=a, q<=b} C(a,p) C(b,q)
    dx^p dy^q / (p+q+1) u^(a-p) v^(b-q) length^(p+q+1), in integer weights
    over K = lcm(1..a+b+1); the divisor is K L^(a+b+1).
    """
    if a < 0 or b < 0:
        raise ValueError("monomial exponents must be nonnegative")
    us, vs, lengths, zero, scale = _edge_data(polygon)
    common = lcm(*range(1, a + b + 2))
    total = zero
    for i, ((dx, dy), length) in enumerate(zip(polygon.edge_directions, lengths)):
        if length == zero:
            continue
        u_powers, v_powers = _powers(us[i], a), _powers(vs[i], b)
        l_powers = _powers(length, a + b + 1)
        for p in range(a + 1 if dx else 1):  # dx = 0 leaves p = 0 only, dy = 0 q = 0
            for q in range(b + 1 if dy else 1):
                weight = comb(a, p) * comb(b, q) * dx ** p * dy ** q * (common // (p + q + 1))
                total = total + u_powers[a - p] * v_powers[b - q] * l_powers[p + q + 1] * weight
    return total * Fraction(1, common * scale ** (a + b + 1))


def lattice_perimeter(polygon: ParamPolygon) -> Coordinate:
    return sum(polygon.edge_lattice_lengths)


@dataclass(frozen=True)
class CentralMoments:
    """Area and central second moments of a polygon.

    puu/pvv/puv are the central second moments times the area, e.g.
    puu = area int u^2 - (int u)^2: numerators over the common denominator
    ``area``, for assembling larger expressions without denominator growth.
    """

    area: Coordinate
    puu: Coordinate
    pvv: Coordinate
    puv: Coordinate


def central_moment_numerators(area, m10, m01, m20, m11, m02) -> tuple:
    """(puu, pvv, puv): the central second moments times the area.
    Operators only: runs on MultiPolys and Fractions alike."""
    return m20 * area - m10 * m10, m02 * area - m01 * m01, m11 * area - m10 * m01


def central_second_moments(polygon: ParamPolygon) -> CentralMoments:
    area = integrate_monomial(polygon, 0, 0)
    if not area:
        raise PolygonError("polygon area is identically zero")
    moments = (integrate_monomial(polygon, a, b) for a, b in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
    return CentralMoments(area, *central_moment_numerators(area, *moments))
