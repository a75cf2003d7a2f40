from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest

from kcert.delpezzo import K2_CHART, K3_CHART, AreaVector, c1_class, cremona, pair
from kcert.poly import MultiPoly
from kcert.polytope import (
    EDGE_DIRECTIONS,
    PolygonError,
    boundary_integral,
    build_polygon,
    central_moment_numerators,
    dilated_moments,
    integrate_monomial,
    moments,
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
    assert list(zip(polygon.us, polygon.vs)) == expected
    assert polygon.scale == 1


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
    assert list(zip(polygon.us, polygon.vs)) == expected
    assert polygon.scale == 1


def test_anticanonical_hexagon():
    polygon = build_polygon([Fraction(1)] * 6)
    coords = list(zip(polygon.us, polygon.vs))
    assert coords == [(1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)]
    assert polygon.scale == 1
    assert all(type(x) is int for coord in coords for x in coord)
    perimeter = boundary_integral(polygon, 0, 0)
    assert type(perimeter) is Fraction and perimeter == 6


def test_numeric_polygon_holds_its_scaled_ints():
    # areas (E3, L13, E1, L12, E2, L23) = (1/2, 5/3, 1, 3/2, 2/3, 2): vertices
    # (1/2, 0), (13/6, 0), (13/6, 1), (2/3, 5/2), (0, 5/2), (0, 1/2) over L = 6
    polygon = build_polygon(AreaVector.from_abcd(Fraction(1, 2), Fraction(2, 3), 1, 1).as_tuple())
    assert polygon.scale == 6
    assert polygon.us == (3, 13, 13, 4, 0, 0)
    assert polygon.vs == (0, 0, 6, 15, 15, 3)
    assert polygon.lengths == (10, 6, 9, 4, 12, 3)  # L13, E1, L12, E2, L23, E3
    groups = (polygon.us, polygon.vs, polygon.lengths)
    assert all(type(n) is int for group in groups for n in group)
    assert boundary_integral(polygon, 0, 0) == Fraction(44, 6)
    chart = k2_polygon()
    assert chart.scale == 1
    groups = (chart.us, chart.vs, chart.lengths)
    assert all(type(x) is MultiPoly for group in groups for x in group)


def test_closure_violation_rejected():
    with pytest.raises(PolygonError):
        build_polygon([1, 1, 1, 1, 1, 2])


@pytest.mark.parametrize("inexact", [0.1, Decimal("0.1"), "1/10"])
def test_inexact_area_refused(inexact):
    areas = [inexact, 1, 1, 1, 1, 1]
    for variables in ((), BG):
        with pytest.raises(TypeError, match="area E3"):
            build_polygon(areas, variables)


def test_int_and_fraction_areas_build_one_polygon():
    areas = (1, 2, 3, 2, 1, 4)  # AreaVector.from_abcd(1, 1, 3, 1)
    polygon = build_polygon(areas)
    assert polygon == build_polygon([Fraction(a) for a in areas])
    # the area is Omega^2 / 2 for Omega = 6H - 3E1 - E2 - E3
    assert polygon.scale == 1 and integrate_monomial(polygon, 0, 0) == Fraction(25, 2)


def test_area_degree_and_variables_guarded():
    beta, gamma = MultiPoly.gens(BG)
    areas = list(K2_CHART.area_vector().as_tuple())
    # beta*gamma added to L13, L12 and L23 keeps both closure relations
    quadratic = [a + beta * gamma if i in (1, 3, 5) else a for i, a in enumerate(areas)]
    with pytest.raises(ValueError, match="degree > 1"):
        build_polygon(quadratic, BG)
    (t,) = MultiPoly.gens(("t",))
    with pytest.raises(ValueError, match="area is over"):
        build_polygon(areas[:5] + [t], BG)
    with pytest.raises(ValueError, match="area is over"):
        build_polygon(areas, ("t",))


def test_negative_length_rejected():
    beta, gamma = MultiPoly.gens(BG)
    areas = list(K2_CHART.area_vector().as_tuple())
    with pytest.raises(PolygonError):
        build_polygon(areas, BG, sample_point=(Fraction(-2), Fraction(1)))


def test_closure_identity_symbolic():
    for polygon in (k2_polygon(), k3_polygon()):
        total_u = MultiPoly.zero(polygon.variables)
        total_v = MultiPoly.zero(polygon.variables)
        for (dx, dy), length in zip(EDGE_DIRECTIONS, polygon.lengths):
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
    interior = moments(polygon)[0]
    area, (puu, _, _) = interior[0], central_moment_numerators(*interior)
    point = (Fraction(1), Fraction(1))
    area = area.evaluate(point)
    assert integrate_monomial(polygon, 1, 0).evaluate(point) / area == Fraction(19, 21)
    assert puu.evaluate(point) / area == Fraction(265, 252)


def test_unit_square_moments():
    # areas (E3, L13, E1, L12, E2, L23) = (0,1,1,0,1,1) build the unit square
    interior = moments(build_polygon([0, 1, 1, 0, 1, 1]))[0]
    area, (puu, _, puv) = interior[0], central_moment_numerators(*interior)
    assert puu / area == Fraction(1, 12)
    assert puv / area == 0


def test_area_equals_half_selfintersection():
    for chart, polygon in ((K2_CHART, k2_polygon()), (K3_CHART, k3_polygon())):
        omega = chart.area_vector().to_coh(chart.k)
        area = integrate_monomial(polygon, 0, 0)
        assert pair(omega, omega) == area.scale(2)


def test_perimeter_equals_anticanonical_pairing():
    for chart, polygon in ((K2_CHART, k2_polygon()), (K3_CHART, k3_polygon())):
        omega = chart.area_vector().to_coh(chart.k)
        assert boundary_integral(polygon, 0, 0) == pair(c1_class(chart.k), omega)


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
                (u.evaluate(point), v.evaluate(point)) for u, v in zip(polygon.us, polygon.vs)
            ]
            for (a, b) in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                expected = _greens_theorem_moment(vertices, a, b)
                assert integrate_monomial(polygon, a, b).evaluate(point) == expected


def _direct_boundary_moment(starts, lengths, a, b):
    """Lattice-measure boundary integral of u^a v^b: the edge from (u, v) along
    (dx, dy) adds int_0^length (u + t dx)^a (v + t dy)^b dt, expanded by the
    binomial theorem in Fractions; independent of the edge kernels under test."""
    total = Fraction(0)
    for (u, v), (dx, dy), length in zip(starts, EDGE_DIRECTIONS, lengths):
        for p in range(a + 1):
            for q in range(b + 1):
                power = p + q + 1
                coeff = comb(a, p) * comb(b, q) * u ** (a - p) * v ** (b - q) * dx ** p * dy ** q
                total += coeff * Fraction(length) ** power / power
    return total


def test_boundary_moments_match_direct_oracle():
    """Every boundary moment of degree <= 1 against ``_direct_boundary_moment``:
    at SplitMix64 points of the k2 and k3 chart polygons, and on numeric
    polygons, the E3 = 0 pentagons among them."""
    rng = SplitMix64(0xB0DE)
    cases = []
    for polygon in (k2_polygon(), k3_polygon()):
        boundary = moments(polygon)[1]
        for _ in range(10):
            point = rng.point(len(polygon.variables))
            starts = [(u.evaluate(point), v.evaluate(point)) for u, v in zip(polygon.us, polygon.vs)]
            lengths = [length.evaluate(point) for length in polygon.lengths]
            cases.append((f"{polygon.variables} at {point}", starts, lengths,
                          [m.evaluate(point) for m in boundary]))
    pentagons = 0
    for label, areas, _ in _numeric_classes():
        polygon = build_polygon(areas.as_tuple())
        starts = [(Fraction(u, polygon.scale), Fraction(v, polygon.scale))
                  for u, v in zip(polygon.us, polygon.vs)]
        lengths = [Fraction(length, polygon.scale) for length in polygon.lengths]
        pentagons += lengths[-1] == 0
        cases.append((label, starts, lengths, list(moments(polygon)[1])))
    assert pentagons >= 3
    for label, starts, lengths, got in cases:
        expected = [_direct_boundary_moment(starts, lengths, a, b) for a, b in BOUNDARY_MOMENTS]
        assert got == expected, label


def test_k3_degenerates_to_k2():
    polygon3 = k3_polygon()
    polygon2 = k2_polygon()
    beta, gamma = MultiPoly.gens(BG)
    images = {"alpha": MultiPoly.zero(BG), "beta": beta, "gamma": gamma}
    for a, b in MOMENTS:
        collapsed = integrate_monomial(polygon3, a, b).substitute(images, BG)
        assert collapsed == integrate_monomial(polygon2, a, b)
    for a, b in BOUNDARY_MOMENTS:
        collapsed_boundary = boundary_integral(polygon3, a, b).substitute(images, BG)
        assert collapsed_boundary == boundary_integral(polygon2, a, b)


def test_degenerate_edges_allowed():
    # E3 = 0 across the k2 chart: pentagon, one degenerate edge contributes 0
    polygon = k2_polygon()
    assert polygon.lengths[-1].is_zero


MOMENTS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
BOUNDARY_MOMENTS = MOMENTS[:3]  # the boundary integrals stop at degree 1


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
        vertices = [
            (Fraction(u, polygon.scale), Fraction(v, polygon.scale))
            for u, v in zip(polygon.us, polygon.vs)
        ]
        expected = [_greens_theorem_moment(vertices, a, b) for a, b in MOMENTS]
        expected += [_simpson_boundary(vertices, a, b) for a, b in BOUNDARY_MOMENTS]
        if point is not None:
            chart = [integrate_monomial(symbolic, a, b).evaluate(point) for a, b in MOMENTS]
            chart += [boundary_integral(symbolic, a, b).evaluate(point) for a, b in BOUNDARY_MOMENTS]
            assert chart == expected, label
        cases.append((label, polygon, expected))

    def no_products(self, other):
        raise AssertionError("the numeric route formed a polynomial product")

    # the numeric route runs on ints: not one polynomial product
    monkeypatch.setattr(MultiPoly, "__mul__", no_products)
    monkeypatch.setattr(MultiPoly, "__rmul__", no_products)
    for label, polygon, expected in cases:
        got = [integrate_monomial(polygon, a, b) for a, b in MOMENTS]
        got += [boundary_integral(polygon, a, b) for a, b in BOUNDARY_MOMENTS]
        for value in got:
            assert type(value) is Fraction
        assert got == expected, label


def test_dilated_integral_is_the_integral_over_the_polygon_dilated_by_6L():
    for label, areas, _ in _numeric_classes():
        polygon = build_polygon(areas.as_tuple())
        dilation = 6 * polygon.scale
        interior, boundary = dilated_moments(polygon)
        assert len(interior) == len(MOMENTS) and len(boundary) == len(BOUNDARY_MOMENTS)
        for (a, b), value in zip(MOMENTS, interior):
            assert type(value) is int, label
            assert value == dilation ** (a + b + 2) * integrate_monomial(polygon, a, b), label
        for (a, b), value in zip(BOUNDARY_MOMENTS, boundary):
            assert type(value) is int, label
            assert value == dilation ** (a + b + 1) * boundary_integral(polygon, a, b), label


@pytest.mark.parametrize("boundary", [False, True], ids=["interior", "boundary"])
@pytest.mark.parametrize("a, b", [(3, 0), (2, 1), (-1, 1), (0, -1)])
def test_dilated_integral_refuses_degree_above_2(a, b, boundary):
    """Both integrals refuse degree > 2 and negative exponents alike."""
    integral = boundary_integral if boundary else integrate_monomial
    message = re.escape(f"up to degree 2 in exponents >= 0, not u^{a} v^{b}")
    for polygon in (build_polygon([1] * 6), k2_polygon()):
        with pytest.raises(ValueError, match=message):
            integral(polygon, a, b)


def test_boundary_integral_refuses_degree_2():
    """The boundary integrals stop at degree 1: each degree-2 monomial is
    refused by name on a numeric and on a chart polygon, and its interior
    integral is still served."""
    for polygon in (build_polygon([1] * 6), k2_polygon()):
        interior = moments(polygon)[0]
        for a, b in MOMENTS[3:]:
            message = re.escape(f"boundary integrals run up to degree 1, not u^{a} v^{b}")
            with pytest.raises(ValueError, match=message):
                boundary_integral(polygon, a, b)
            assert integrate_monomial(polygon, a, b) == interior[MOMENTS.index((a, b))]


def test_polygon_on_a_line_matches_the_numeric_polygon():
    # areas over one variable t, as when a chart is restricted to a line
    (t,) = MultiPoly.gens(("t",))
    line = build_polygon(
        AreaVector.from_abcd(1 + t, 2 - t, 3, 1).as_tuple(), ("t",), sample_point=(0,)
    )
    for t0 in (Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2)):
        numeric = build_polygon(AreaVector.from_abcd(1 + t0, 2 - t0, 3, 1).as_tuple())
        for a, b in MOMENTS:
            assert integrate_monomial(line, a, b).evaluate((t0,)) == integrate_monomial(numeric, a, b)
        for a, b in BOUNDARY_MOMENTS:
            assert boundary_integral(line, a, b).evaluate((t0,)) == boundary_integral(numeric, a, b)
