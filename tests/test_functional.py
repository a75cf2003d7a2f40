from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

from kcert import functional
from kcert.delpezzo import ABCD, AreaVector, ConeChart, K2_CHART, K3_CHART, c1_class, cremona
from kcert.exprparse import parse_expression
from kcert.functional import (
    _closed_form_brackets,
    _obstruction_numerators,
    _on_chart,
    build_bundle,
    bundle_summary,
    evaluate_calA_on_areas,
    evaluate_futaki_on_areas,
    first_variation_along_c1,
    futaki_boundary,
    futaki_closed_form,
    futaki_norm_sq,
    objective_parts,
)
from kcert.polytope import (
    boundary_integral,
    build_polygon,
    central_moment_numerators,
    central_second_moments,
    dilated_integral,
    integrate_monomial,
    lattice_perimeter,
)
from kcert.poly import (
    MultiPoly,
    PiPowerMismatchError,
    PiValue,
    RatFunc,
    directional_second_derivative,
)
from kcert.sampling import SplitMix64

BG = K2_CHART.variables
ABG = K3_CHART.variables


def _first_term(bundle) -> RatFunc:
    """(c1 . Omega)^2 / Omega^2, from the bundle's parts."""
    return RatFunc.make(bundle.c1_pairing * bundle.c1_pairing, bundle.volume.scale(2))


def _second_term(bundle) -> PiValue:
    """||F||^2 / (32 pi^2), by the generic PiValue operation."""
    norm = futaki_norm_sq(bundle.f1, bundle.f2, bundle.a, bundle.b, bundle.c)
    return norm / PiValue(Fraction(32), 2)


def test_k2_closed_forms_are_the_alpha_zero_face_of_k3():
    # the k = 2 brackets and volume as transcribed for that chart on its own
    beta, gamma = MultiPoly.gens(BG)
    third = Fraction(1, 3)
    b1 = (beta - 2 * gamma) * (gamma ** 2 + gamma + third) + gamma * (gamma - beta) * (
        beta + 2 * gamma + 2
    )
    b2 = (gamma - 2 * beta) * (beta ** 2 + beta + third) + beta * (beta - gamma) * (
        gamma + 2 * beta + 2
    )
    volume = beta * gamma + beta + gamma + Fraction(1, 2)
    assert _on_chart(K2_CHART, _closed_form_brackets()) == [b1, b2, volume]


def _abcd_polygon():
    return build_polygon(AreaVector.from_abcd(*MultiPoly.gens(ABCD)).as_tuple(), ABCD)


def test_obstruction_numerators_are_delta_times_the_brackets():
    area, _, _, _, q1, q2 = _obstruction_numerators(_abcd_polygon())
    b1, b2, volume = _closed_form_brackets()
    delta = MultiPoly.variable(ABCD, "delta")
    assert (q1, q2, area) == (delta * b1, delta * b2, volume)
    assert (q1.total_degree(), b1.total_degree(), volume.total_degree()) == (4, 3, 2)
    # on V (delta = 0) the obstruction vanishes identically
    on_v = dict(zip(ABCD, MultiPoly.gens(ABCD)), delta=0)
    assert q1.substitute(on_v, ABCD).is_zero and q2.substitute(on_v, ABCD).is_zero


def _chart_polygon_bundle(chart):
    """The bundle from the chart's own polygon over its variables, with the
    boundary route's q_i (= b_i at delta = 1) as obstruction numerators."""
    polygon = build_polygon(chart.area_vector().as_tuple(), chart.variables)
    volume, puu, pvv, puv = central_second_moments(polygon)
    _, perimeter, _, _, q1, q2 = _obstruction_numerators(polygon)
    quarter = Fraction(1, 4)
    _, _, numerator, denominator = objective_parts(perimeter, volume, puu, pvv, puv, q1, q2)
    return {
        "volume": volume,
        "c1_pairing": perimeter,
        "f1": RatFunc.make(q1, volume),
        "f2": RatFunc.make(q2, volume),
        "a": PiValue(RatFunc.make(puu.scale(quarter), volume), -2),
        "b": PiValue(RatFunc.make(pvv.scale(quarter), volume), -2),
        "c": PiValue(RatFunc.make(puv.scale(quarter), volume), -2),
        "calA": RatFunc.make(numerator, denominator),
    }


def _terms(value):
    """A field's exact representation: num and den (term by term under
    MultiPoly ==, unlike RatFunc ==), and the pi power."""
    if isinstance(value, PiValue):
        return _terms(value.value), value.pi_power
    if isinstance(value, RatFunc):
        return value.num, value.den
    return value


@pytest.mark.parametrize("chart", [K2_CHART, K3_CHART], ids=["k2", "k3"])
def test_bundle_is_term_identical_to_the_chart_polygon_route(chart):
    bundle = build_bundle(chart)
    for field, expected in _chart_polygon_bundle(chart).items():
        got = getattr(bundle, field)
        assert type(got) is type(expected), field
        assert _terms(got) == _terms(expected), field


def test_both_bundles_build_one_polygon(monkeypatch):
    calls = []

    def counting(areas, variables=(), *args):
        if variables:
            calls.append(tuple(variables))
        return build_polygon(areas, variables, *args)

    # a fresh ingredient cache stands for a fresh process
    fresh = lru_cache(maxsize=None)(functional._cone_ingredients.__wrapped__)
    monkeypatch.setattr(functional, "_cone_ingredients", fresh)
    monkeypatch.setattr(functional, "build_polygon", counting)
    for chart in (K2_CHART, K3_CHART):
        build_bundle.__wrapped__(chart)
    assert calls == [ABCD]


def test_calA_k3_at_alpha_zero_is_calA_k2(bundle_k2, bundle_k3):
    # a cross-chart identity: the two objectives are assembled separately
    beta, gamma = MultiPoly.gens(BG)
    images = {"alpha": MultiPoly.zero(BG), "beta": beta, "gamma": gamma}
    cal_a = bundle_k3.calA
    face = RatFunc.make(cal_a.num.substitute(images, BG), cal_a.den.substitute(images, BG))
    assert face == bundle_k2.calA


def test_closed_form_spot_values():
    f1, f2 = futaki_closed_form(K2_CHART)
    assert f1.evaluate((1, 1)) == Fraction(-2, 3)
    assert f2.evaluate((1, 1)) == Fraction(-2, 3)
    assert f1.evaluate((1, 2)) == Fraction(-10, 11)
    assert f2.evaluate((1, 2)) == Fraction(-12, 11)
    g1, g2 = futaki_closed_form(K3_CHART)
    assert g1.evaluate((1, 1, 1)) == 0
    assert g2.evaluate((1, 1, 1)) == 0


def test_boundary_route_matches_closed_form_symbolically(bundle_k2, bundle_k3):
    f1, f2 = futaki_boundary(K2_CHART.area_vector(), BG)
    assert f1.equals(bundle_k2.f1) and f2.equals(bundle_k2.f2)
    g1, g2 = futaki_boundary(K3_CHART.area_vector(), ABG)
    assert g1.equals(bundle_k3.f1) and g2.equals(bundle_k3.f2)


def test_boundary_spot_value():
    f1, _ = evaluate_futaki_on_areas([Fraction(0), 2, 1, 1, 1, 2])
    assert f1 == Fraction(-2, 3)


def test_futaki_boundary_rejects_numeric_areas():
    with pytest.raises(ValueError, match="evaluate_futaki_on_areas"):
        futaki_boundary([Fraction(0), 2, 1, 1, 1, 2])


def test_anticanonical_hexagon_obstruction_vanishes():
    assert evaluate_futaki_on_areas([Fraction(1)] * 6) == (0, 0)


def test_moment_matrix_entries_carry_pi(bundle_k2):
    value = bundle_k2.a.evaluate((1, 1))
    assert value == PiValue(Fraction(265, 1008), -2)
    assert bundle_k2.b.evaluate((1, 1)) == PiValue(Fraction(265, 1008), -2)
    assert bundle_k2.c.evaluate((1, 1)) == PiValue(Fraction(-121, 2016), -2)
    with pytest.raises(PiPowerMismatchError):
        bundle_k2.a + PiValue(bundle_k2.f1)


def test_k2_moment_brackets_match_transcribed_displays(bundle_k2):
    # pi-free parts: bracket/(288 V) for the diagonal entries, -bracket/(576 V)
    v2 = "(1 + 2 beta + 2 gamma + 2 beta gamma)"
    a_text = (
        "1 + 6 (1 + beta) (beta + beta^2 + beta^3"
        " + gamma (1 + 4 beta + 4 beta^2 + 2 beta^3)"
        " + gamma^2 (1 + beta)^3)"
    )
    b_text = (
        "1 + 6 (1 + gamma) (gamma + gamma^2 + gamma^3"
        " + beta (1 + 4 gamma + 4 gamma^2 + 2 gamma^3)"
        " + beta^2 (1 + gamma)^3)"
    )
    c_text = "-(1 + 6 (1 + beta) (1 + gamma) (beta + gamma + 3 beta gamma))"
    den = parse_expression(f"144 {v2}", BG)
    assert bundle_k2.a.value.equals(RatFunc.make(parse_expression(a_text, BG), den))
    assert bundle_k2.b.value.equals(RatFunc.make(parse_expression(b_text, BG), den))
    c_den = parse_expression(f"288 {v2}", BG)
    assert bundle_k2.c.value.equals(RatFunc.make(parse_expression(c_text, BG), c_den))


def test_norm_sq_generic_op_k2_spot(bundle_k2):
    norm = futaki_norm_sq(
        bundle_k2.f1, bundle_k2.f2, bundle_k2.a, bundle_k2.b, bundle_k2.c
    )
    assert norm.pi_power == 2
    second = norm / PiValue(Fraction(32), 2)
    assert second.pi_power == 0
    assert second.value.evaluate((1, 1)) == Fraction(56, 409)
    assert second.value.equals(bundle_k2.calA - _first_term(bundle_k2))


def test_norm_sq_generic_op_matches_structured_k3(bundle_k3):
    second = _second_term(bundle_k3)
    first = _first_term(bundle_k3)
    rng = SplitMix64(3)
    for _ in range(10):
        point = rng.point(3)
        assert second.value.evaluate(point) == (
            bundle_k3.calA.evaluate(point) - first.evaluate(point)
        )


def test_norm_sq_zero_obstruction(bundle_k2):
    zero = RatFunc.const(BG, 0)
    norm = futaki_norm_sq(zero, zero, bundle_k2.a, bundle_k2.b, bundle_k2.c)
    assert norm.value.is_zero


def test_norm_vanishes_identically_on_equal_areas_plane(bundle_k3):
    t = MultiPoly.variable(("t",), "t")
    images = {"alpha": t, "beta": t, "gamma": t}
    restricted = _second_term(bundle_k3).value.num.substitute(images, ("t",))
    assert restricted.is_zero


def test_assembled_objective_values(bundle_k2, bundle_k3):
    assert bundle_k2.calA.evaluate((1, 1)) == Fraction(2919, 409)
    assert bundle_k3.calA.evaluate((1, 1, 1)) == Fraction(81, 13)
    for bundle in (bundle_k2, bundle_k3):
        assert bundle.calA.equals(_first_term(bundle) + _second_term(bundle).value)


def test_scale_invariance_sampled():
    rng = SplitMix64(0xC0FFEE)
    for _ in range(20):
        areas = AreaVector.from_abcd(*(rng.rational() for _ in range(4)))
        lam = rng.rational()
        assert evaluate_calA_on_areas(areas.scale(lam)) == evaluate_calA_on_areas(areas)
        # the obstruction is homogeneous of degree 2
        f1, f2 = evaluate_futaki_on_areas(areas)
        assert evaluate_futaki_on_areas(areas.scale(lam)) == (lam * lam * f1, lam * lam * f2)


def test_cremona_invariance_sampled():
    rng = SplitMix64(0xC0FFEE)
    for _ in range(50):
        areas = AreaVector.from_abcd(*(rng.rational() for _ in range(4)))
        assert evaluate_calA_on_areas(cremona(areas)) == evaluate_calA_on_areas(areas)
        # the Cremona involution negates the obstruction
        f1, f2 = evaluate_futaki_on_areas(areas)
        assert evaluate_futaki_on_areas(cremona(areas)) == (-f1, -f2)


@pytest.mark.parametrize("chart_id", ["k2", "k3"])
def test_obstruction_on_areas_matches_the_chart(chart_id, bundle_k2, bundle_k3):
    # the area-vector route and the chart closed forms share no code path
    bundle = bundle_k2 if chart_id == "k2" else bundle_k3
    rng = SplitMix64(0x5EED)
    for _ in range(8):
        point = rng.point(len(bundle.chart.variables))
        areas = AreaVector(*(a.evaluate(point) for a in bundle.chart.area_vector().as_tuple()))
        expected = (bundle.f1.evaluate(point), bundle.f2.evaluate(point))
        assert evaluate_futaki_on_areas(areas) == expected
        assert evaluate_calA_on_areas(areas) == bundle.calA.evaluate(point)
        if chart_id == "k3":
            # delta = d: d times the chart class at point, obstruction times d^2
            d = rng.rational()
            scaled = AreaVector.from_abcd(*(x * d for x in point), d)
            assert evaluate_futaki_on_areas(scaled) == tuple(d * d * f for f in expected)


def test_numeric_route_builds_no_polynomial(monkeypatch):
    # SplitMix64 classes with delta > 0, the Cremona image (delta < 0) and the
    # E3 = 0 pentagon, plus the anticanonical hexagon
    rng = SplitMix64(0x5EED)
    classes = [AreaVector.from_abcd(1, 1, 1, 0)]
    for _ in range(4):
        alpha, beta, gamma, delta = (rng.rational() for _ in range(4))
        areas = AreaVector.from_abcd(alpha, beta, gamma, delta)
        classes += [areas, cremona(areas), AreaVector.from_abcd(0, beta, gamma, delta)]
    expected = [(evaluate_calA_on_areas(a), evaluate_futaki_on_areas(a)) for a in classes]

    def no_polynomial(*args, **kwargs):
        raise AssertionError("the numeric route built a polynomial")

    monkeypatch.setattr(MultiPoly, "__init__", no_polynomial)
    monkeypatch.setattr(MultiPoly, "_build", staticmethod(no_polynomial))
    for areas, (value, futaki) in zip(classes, expected):
        assert evaluate_calA_on_areas(areas) == value
        assert evaluate_futaki_on_areas(areas) == futaki


def _integer_route_classes() -> list:
    """SplitMix64 classes at 4-, 16- and 48-bit heights with delta > 0 and
    delta = 0, their Cremona images (delta < 0) and multiples, the E3 = 0
    pentagon and the alpha = beta = 0 face, plus the unit square, the
    anticanonical hexagon and the int input [1] * 6."""
    rng = SplitMix64(0x1D7E6E4)

    def draw(bits):
        return Fraction(1 + rng.below(1 << bits), 1 + rng.below(1 << bits))

    classes = []
    for bits in (4, 16, 48):
        for _ in range(3):
            alpha, beta, gamma, delta = (draw(bits) for _ in range(4))
            for d in (delta, 0):
                areas = AreaVector.from_abcd(alpha, beta, gamma, d)
                classes += [areas, cremona(areas), areas.scale(draw(bits))]
            classes += [
                AreaVector.from_abcd(0, beta, gamma, delta),
                AreaVector.from_abcd(0, 0, gamma, delta),
            ]
    return classes + [
        AreaVector(*map(Fraction, (0, 1, 1, 0, 1, 1))),
        AreaVector.from_abcd(1, 1, 1, 0),
        [1] * 6,
    ]


def _fraction_assembly(areas) -> tuple:
    """(calA, (F1, F2)) from the public integrals, which return Fractions on a
    numeric polygon, through ``objective_parts`` with F_i = q_i / area."""
    polygon = build_polygon(areas.as_tuple() if isinstance(areas, AreaVector) else areas)
    moments = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    area, m10, m01, m20, m11, m02 = (integrate_monomial(polygon, a, b) for a, b in moments)
    perimeter = lattice_perimeter(polygon)
    q1 = 2 * (boundary_integral(polygon, 1, 0) * area - perimeter * m10)
    q2 = 2 * (boundary_integral(polygon, 0, 1) * area - perimeter * m01)
    puu, pvv, puv = m20 * area - m10 * m10, m02 * area - m01 * m01, m11 * area - m10 * m01
    _, _, numerator, denominator = objective_parts(perimeter, area, puu, pvv, puv, q1, q2)
    for value in (area, perimeter, numerator, denominator):
        assert type(value) is Fraction
    return numerator / denominator, (q1 / area, q2 / area)


def test_integer_route_matches_the_fraction_assembly():
    for areas in _integer_route_classes():
        value, futaki = _fraction_assembly(areas)
        assert evaluate_calA_on_areas(areas) == value, areas
        assert evaluate_futaki_on_areas(areas) == futaki, areas


def test_integer_route_does_no_fraction_arithmetic(monkeypatch):
    """On a numeric polygon only the last division forms a Fraction: with
    Fraction's arithmetic refused, both evaluations still return their values."""
    classes = _integer_route_classes()
    expected = [(evaluate_calA_on_areas(a), evaluate_futaki_on_areas(a)) for a in classes]

    def no_arithmetic(*args):
        raise AssertionError("the numeric route did Fraction arithmetic")

    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
        monkeypatch.setattr(Fraction, f"__{name}__", no_arithmetic)
    for areas, (value, futaki) in zip(classes, expected):
        assert evaluate_calA_on_areas(areas) == value
        assert evaluate_futaki_on_areas(areas) == futaki


def test_minimality_deduction_holds_on_the_integer_route():
    """gaudete's minimality deduction, step by step, on 1,000 SplitMix64
    classes over delta > 0, their Cremona images (delta < 0) and delta = 0,
    and on multiples of c1: on the numeric route's integers det > 0,
    N_F >= 0 and perimeter^2 >= 12 area, so the objective is >= 6, and it
    is 6 exactly when all six areas are equal."""
    rng = SplitMix64(7)
    classes = [AreaVector(*[t] * 6) for t in map(Fraction, (1, 2, "1/3", "7/5"))]
    for i in range(1000):
        alpha, beta, gamma = rng.point(3)
        if i % 3 == 2:
            classes.append(AreaVector.from_abcd(alpha, beta, gamma, 0))
            continue
        areas = AreaVector.from_abcd(alpha, beta, gamma, rng.rational())
        classes.append(cremona(areas) if i % 3 else areas)
    for areas in classes:
        polygon = build_polygon(areas.as_tuple())
        area, perimeter, m10, m01, q1, q2 = _obstruction_numerators(polygon)
        m20, m11, m02 = (dilated_integral(polygon, a, b) for a, b in ((2, 0), (1, 1), (0, 2)))
        puu, pvv, puv = central_moment_numerators(area, m10, m01, m20, m11, m02)
        det, n_f, numerator, denominator = objective_parts(
            perimeter, area, puu, pvv, puv, q1, q2
        )
        proportional = len(set(areas.as_tuple())) == 1
        assert area > 0 and det > 0 and n_f >= 0, areas
        assert perimeter * perimeter >= 12 * area, areas
        assert (perimeter * perimeter == 12 * area) == proportional, areas
        value = evaluate_calA_on_areas(areas)
        assert value == Fraction(numerator, denominator) >= 6, areas
        assert (value == 6) == proportional, areas


def test_cone_ingredients_product_count(monkeypatch):
    """The chart integrals keep one u_term per k and one v_terms list per edge:
    a fresh ``_cone_ingredients`` forms 372 polynomial products, __rmul__
    included; an edge sum that multiplied per (k, l) would form more."""
    multiply, count = MultiPoly.__mul__, [0]

    def counting(self, other):
        count[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    monkeypatch.setattr(MultiPoly, "__rmul__", counting)
    functional._cone_ingredients.__wrapped__()
    assert count[0] == 372


def test_objective_at_anticanonical_class():
    assert evaluate_calA_on_areas([Fraction(1)] * 6) == 6
    assert evaluate_calA_on_areas([1] * 6) == 6


def test_objective_at_an_exact_tenth():
    # the float 0.1 is refused (test_delpezzo); the Fraction 1/10 is exact
    areas = AreaVector.from_abcd(Fraction(1, 10), 1, 1, 1)
    assert evaluate_calA_on_areas(areas) == Fraction(885006, 128215)
    assert evaluate_futaki_on_areas(areas) == (Fraction(-21, 38), Fraction(-21, 38))


def test_diagonal_restriction(diagonal):
    assert diagonal.f_at(Fraction(1)) == Fraction(2919, 409)
    assert diagonal.p.evaluate((Fraction(0),)) == -1
    assert diagonal.df_at(Fraction(0)) == -12
    assert diagonal.q.evaluate((Fraction(0),)) == 9
    # the quotient-rule numerator carries the printed factor 12 exactly
    n, d = diagonal.f.num, diagonal.f.den
    raw = n.diff("beta") * d - n * d.diff("beta")
    assert raw == diagonal.p.scale(12)
    # d f = 12 P / den^2: the quotient rule over the square of f's denominator
    for x in (Fraction(0), Fraction(6, 5), Fraction(1, 3)):
        assert diagonal.df_at(x) == RatFunc(raw, d * d).evaluate((x,))
    d2f = directional_second_derivative(diagonal.f, (1,))
    assert d2f.num == diagonal.q.scale(12) and d2f.den == d ** 3


def test_first_variation_values():
    c1 = c1_class(3)
    assert first_variation_along_c1(c1) == 0
    assert first_variation_along_c1(c1.scale(2)) == 0
    omega = AreaVector.from_abcd(2, 1, 1, 0).to_coh(3)
    assert first_variation_along_c1(omega) == Fraction(-16, 25)
    outside = AreaVector.from_abcd(2, 1, 1, 1).to_coh(3)
    with pytest.raises(ValueError):
        first_variation_along_c1(outside)


def test_average_scalar_curvature_identity(bundle_k2, bundle_k3):
    # s0^2 * V = 32 pi^2 (c1.Omega)^2 / Omega^2 with s0 = 4 pi (c1.Omega)/V
    for bundle in (bundle_k2, bundle_k3):
        s0 = PiValue(RatFunc.make(bundle.c1_pairing.scale(4), bundle.volume), 1)
        assert s0.pi_power == 1
        lhs = s0 * s0 * bundle.volume
        rhs = PiValue(
            RatFunc.make(
                (bundle.c1_pairing * bundle.c1_pairing).scale(32),
                bundle.volume.scale(2),
            ),
            2,
        )
        assert lhs == rhs


def test_exported_objective_is_pi_free(bundle_k2):
    norm = futaki_norm_sq(
        bundle_k2.f1, bundle_k2.f2, bundle_k2.a, bundle_k2.b, bundle_k2.c
    )
    assert norm.pi_power == 2
    exported = norm / PiValue(Fraction(32), 2)
    assert exported.pi_power == 0 and isinstance(exported.value, RatFunc)


def test_bundle_summary_points_come_from_the_chart_variables():
    assert list(bundle_summary(K2_CHART)["evaluations"]) == ["1,1", "1,2"]
    assert list(bundle_summary(K3_CHART)["evaluations"]) == ["1,1,1", "1,2,3"]
    # a one-variable face: the all-ones point and (1,) coincide
    summary = bundle_summary(ConeChart("k1", 1, ("gamma",)))
    assert summary["chart"] == "k1" and list(summary["evaluations"]) == ["1"]


def test_closed_form_on_k1_chart():
    # the transcribed brackets restrict to the k = 1 face as well: on
    # (gamma,) they agree with the boundary route and with the closed form
    chart = ConeChart("k1", 1, ("gamma",))
    (gamma,) = MultiPoly.gens(chart.variables)
    closed = futaki_closed_form(chart)
    assert closed == futaki_boundary(chart.area_vector(), chart.variables)
    denominator = gamma * 6 + 3
    assert closed == (RatFunc.make(gamma * -4, denominator), RatFunc.make(gamma * 2, denominator))
