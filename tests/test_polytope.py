from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from kcert.delpezzo import K2_CHART, K3_CHART, AreaVector, cremona, pair
from kcert.poly import MultiPoly
from kcert.polytope import (
    PolygonError,
    boundary_integral,
    build_polygon,
    central_second_moments,
    integrate_monomial,
    lattice_perimeter,
)
from kcert.sampling import SplitMix64

BG = ("beta", "gamma")
ABG = ("alpha", "beta", "gamma")


def k2_polygon():
    return build_polygon(K2_CHART.area_vector().as_tuple(), BG)


def k3_polygon():
    return build_polygon(K3_CHART.area_vector().as_tuple(), ABG)


def test_k2_pentagon_vertices():
    beta, gamma = MultiPoly.gens(BG)
    polygon = k2_polygon()
    zero = MultiPoly.zero(BG)
    one = MultiPoly.const(BG, 1)
    expected = [
        (zero, zero),
        (beta + 1, zero),
        (beta + 1, gamma),
        (beta, gamma + 1),
        (zero, gamma + 1),
        (zero, zero),
    ]
    for vertex, (u, v) in zip(polygon.vertices, expected):
        assert vertex.u == u and vertex.v == v


def test_k3_hexagon_vertices():
    alpha, beta, gamma = MultiPoly.gens(ABG)
    polygon = k3_polygon()
    one = MultiPoly.const(ABG, 1)
    zero = MultiPoly.zero(ABG)
    expected = [
        (alpha, zero),
        (one + alpha + beta, zero),
        (one + alpha + beta, gamma),
        (beta, one + alpha + gamma),
        (zero, one + alpha + gamma),
        (zero, alpha),
    ]
    for vertex, (u, v) in zip(polygon.vertices, expected):
        assert vertex.u == u and vertex.v == v


def test_anticanonical_hexagon():
    polygon = build_polygon([Fraction(1)] * 6)
    coords = [(v.u, v.v) for v in polygon.vertices]
    assert coords == [(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)]
    assert all(type(x) is Fraction for coord in coords for x in coord)
    perimeter = boundary_integral(polygon, 0, 0)
    assert type(perimeter) is Fraction and perimeter == 6


def test_closure_violation_rejected():
    with pytest.raises(PolygonError):
        build_polygon([1, 1, 1, 1, 1, 2])


def test_negative_length_rejected():
    beta, gamma = MultiPoly.gens(BG)
    areas = list(K2_CHART.area_vector().as_tuple())
    with pytest.raises(PolygonError):
        build_polygon(areas, BG, sample_point=(Fraction(-2), Fraction(1)))


def test_closure_identity_symbolic():
    for polygon in (k2_polygon(), k3_polygon()):
        total_u = MultiPoly.zero(polygon.variables)
        total_v = MultiPoly.zero(polygon.variables)
        for (dx, dy), length in zip(
            polygon.edge_directions, polygon.edge_lattice_lengths
        ):
            total_u = total_u + length.scale(dx)
            total_v = total_v + length.scale(dy)
        assert total_u.is_zero and total_v.is_zero


def test_k2_interior_moment_values():
    polygon = k2_polygon()
    point = (Fraction(1), Fraction(1))
    assert integrate_monomial(polygon, 0, 0).evaluate(point) == Fraction(7, 2)
    assert integrate_monomial(polygon, 1, 0).evaluate(point) == Fraction(19, 6)
    assert integrate_monomial(polygon, 2, 0).evaluate(point) == Fraction(47, 12)


def test_k2_boundary_values():
    polygon = k2_polygon()
    point = (Fraction(1), Fraction(1))
    assert boundary_integral(polygon, 0, 0).evaluate(point) == 7
    assert boundary_integral(polygon, 1, 0).evaluate(point) == 6


def test_k2_central_moments():
    polygon = k2_polygon()
    moments = central_second_moments(polygon)
    point = (Fraction(1), Fraction(1))
    area = moments.area.evaluate(point)
    assert integrate_monomial(polygon, 1, 0).evaluate(point) / area == Fraction(19, 21)
    assert moments.puu.evaluate(point) / area == Fraction(265, 252)


def test_unit_square_moments():
    # areas (E3, L13, E1, L12, E2, L23) = (0,1,1,0,1,1) build the unit square
    polygon = build_polygon([0, 1, 1, 0, 1, 1])
    moments = central_second_moments(polygon)
    assert moments.puu / moments.area == Fraction(1, 12)
    assert moments.puv / moments.area == 0


def test_area_equals_half_selfintersection():
    for chart, polygon in ((K2_CHART, k2_polygon()), (K3_CHART, k3_polygon())):
        omega = chart.omega()
        area = integrate_monomial(polygon, 0, 0)
        assert pair(omega, omega) == area.scale(2)


def test_perimeter_equals_anticanonical_pairing():
    for chart, polygon in ((K2_CHART, k2_polygon()), (K3_CHART, k3_polygon())):
        omega = chart.omega()
        assert lattice_perimeter(polygon) == pair(chart.c1(), omega)


def _greens_theorem_moment(vertices, a, b):
    """Interior integral of u^a v^b via the boundary of the numeric polygon.

    Uses int_P u^a v^b = oint u^(a+1)/(a+1) v^b dv counter-clockwise; exact in
    rational arithmetic and independent of the edge-sum formula under test.
    """
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        (u0, v0), (u1, v1) = vertices[i], vertices[(i + 1) % n]
        du, dv = u1 - u0, v1 - v0
        if dv == 0:
            continue
        # parametrize t in [0,1]: u = u0 + t du, v = v0 + t dv
        # integrand: u^(a+1)/(a+1) * v^b * dv
        for p in range(a + 2):
            for q in range(b + 1):
                coeff = (
                    Fraction(comb(a + 1, p) * comb(b, q), a + 1)
                    * u0 ** (a + 1 - p) * du ** p * v0 ** (b - q) * dv ** q
                )
                total += coeff * dv * Fraction(1, p + q + 1)
    return total


def test_moments_match_greens_oracle():
    rng = SplitMix64(0xC0FFEE)
    for chart, polygon in ((K2_CHART, k2_polygon()), (K3_CHART, k3_polygon())):
        dim = len(chart.variables)
        for _ in range(10):
            point = rng.point(dim)
            vertices = [
                (v.u.evaluate(point), v.v.evaluate(point)) for v in polygon.vertices
            ]
            for (a, b) in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                expected = _greens_theorem_moment(vertices, a, b)
                assert integrate_monomial(polygon, a, b).evaluate(point) == expected


def test_k3_degenerates_to_k2():
    polygon3 = k3_polygon()
    polygon2 = k2_polygon()
    beta, gamma = MultiPoly.gens(BG)
    images = {"alpha": MultiPoly.zero(BG), "beta": beta, "gamma": gamma}
    for (a, b) in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        collapsed = integrate_monomial(polygon3, a, b).substitute(images, BG)
        assert collapsed == integrate_monomial(polygon2, a, b)
        collapsed_boundary = boundary_integral(polygon3, a, b).substitute(images, BG)
        assert collapsed_boundary == boundary_integral(polygon2, a, b)


def test_degenerate_edges_allowed():
    # E3 = 0 across the k2 chart: pentagon, one degenerate edge contributes 0
    polygon = k2_polygon()
    assert polygon.edge_lattice_lengths[-1].is_zero


MOMENTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _simpson_boundary(vertices, a, b):
    """Lattice-measure boundary integral of u^a v^b (a + b <= 3), by Simpson's
    rule on each edge; the lattice length of an edge of the del Pezzo fan is
    max(|du|, |dv|)."""
    total = Fraction(0)
    for (u0, v0), (u1, v1) in zip(vertices, vertices[1:] + vertices[:1]):
        ends = u0 ** a * v0 ** b + u1 ** a * v1 ** b
        mid = ((u0 + u1) / 2) ** a * ((v0 + v1) / 2) ** b
        total += max(abs(u1 - u0), abs(v1 - v0)) * (ends + 4 * mid) / 6
    return total


def _numeric_classes():
    """(label, area vector, k3 chart point or None) for SplitMix64 draws of
    mixed height with delta = 1, delta > 0, delta = 0 and Cremona delta < 0,
    plus the degenerate pentagon (E3 = 0), unit square and anticanonical
    hexagon."""
    rng = SplitMix64(0x5EED)

    def draw(bits):
        return Fraction(1 + rng.below(1 << bits), 1 + rng.below(1 << bits))

    classes = []
    for bits in (4, 16, 48):
        alpha, beta, gamma, delta = (draw(bits) for _ in range(4))
        classes += [
            (f"delta=1/{bits}", AreaVector.from_abcd(alpha, beta, gamma, 1), (alpha, beta, gamma)),
            (f"pentagon/{bits}", AreaVector.from_abcd(0, beta, gamma, 1), (0, beta, gamma)),
            (f"delta>0/{bits}", AreaVector.from_abcd(alpha, beta, gamma, delta), None),
            (f"delta=0/{bits}", AreaVector.from_abcd(alpha, beta, gamma, 0), None),
            (f"cremona/{bits}", cremona(AreaVector.from_abcd(alpha, beta, gamma, delta)), None),
        ]
    classes += [
        ("unit square", AreaVector(*map(Fraction, (0, 1, 1, 0, 1, 1))), None),
        ("anticanonical", AreaVector.from_abcd(1, 1, 1, 0), None),
    ]
    return classes


def test_numeric_route_matches_independent_references(monkeypatch):
    symbolic = k3_polygon()
    cases = []
    for label, areas, point in _numeric_classes():
        polygon = build_polygon(areas.as_tuple())
        vertices = [(v.u, v.v) for v in polygon.vertices]
        expected = [_greens_theorem_moment(vertices, a, b) for a, b in MOMENTS]
        expected += [_simpson_boundary(vertices, a, b) for a, b in MOMENTS]
        if point is not None:
            chart = [integrate_monomial(symbolic, a, b).evaluate(point) for a, b in MOMENTS]
            chart += [boundary_integral(symbolic, a, b).evaluate(point) for a, b in MOMENTS]
            assert chart == expected, label
        cases.append((label, polygon, expected))

    def no_products(self, other):
        raise AssertionError("the numeric route formed a polynomial product")

    # the numeric route runs on ints: not one polynomial product
    monkeypatch.setattr(MultiPoly, "__mul__", no_products)
    monkeypatch.setattr(MultiPoly, "__rmul__", no_products)
    for label, polygon, expected in cases:
        got = [integrate_monomial(polygon, a, b) for a, b in MOMENTS]
        got += [boundary_integral(polygon, a, b) for a, b in MOMENTS]
        for value in got:
            assert type(value) is Fraction
        assert got == expected, label
