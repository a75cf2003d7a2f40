from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from operator import add, mul, sub

import pytest

from kcert import certify, functional, polytope
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
    gram_parts,
    objective_parts,
    quantity_text,
)
from kcert.polytope import (
    boundary_integral,
    build_polygon,
    central_moment_numerators,
    dilated_moments,
    integrate_monomial,
    moments,
)
from kcert.poly import MultiPoly, RatFunc, directional_second_derivative
from kcert.sampling import SplitMix64

BG = K2_CHART.variables
ABG = K3_CHART.variables


def _times(*factors: RatFunc) -> RatFunc:
    """The product of the quotients: one ``RatFunc.make`` of the products of
    their numerators and of their denominators."""
    return RatFunc.make(reduce(mul, (f.num for f in factors)), reduce(mul, (f.den for f in factors)))


def _plus(x: RatFunc, y: RatFunc, combine=add) -> RatFunc:
    """x + y, or x - y with ``combine=sub``, as one ``RatFunc.make``: over
    the shared denominator, or cross-multiplied."""
    if x.den == y.den:
        return RatFunc.make(combine(x.num, y.num), x.den)
    return RatFunc.make(combine(x.num * y.den, y.num * x.den), x.den * y.den)


def futaki_norm_sq(f1: RatFunc, f2: RatFunc, a: RatFunc, b: RatFunc, c: RatFunc) -> RatFunc:
    """||F||^2 / pi^2 = (b F1^2 - 2 c F1 F2 + a F2^2) / (ab - c^2) for the
    pi-free parts a, b, c of A = a pi^-2, B and C: the objective's second
    term is this over 32.  The reference route: generic in its five
    quotients, over ``RatFunc.make`` and MultiPoly products alone, and
    independent of ``gram_parts`` and ``objective_parts``."""
    cross = _times(c, f1, f2)
    numerator = _plus(
        _plus(_times(b, f1, f1), _times(a, f2, f2)), RatFunc.make(cross.num.scale(2), cross.den), sub
    )
    determinant = _plus(_times(a, b), _times(c, c), sub)
    return RatFunc.make(numerator.num * determinant.den, numerator.den * determinant.num)


def _first_term(bundle) -> RatFunc:
    """(c1 . Omega)^2 / Omega^2, from the bundle's parts."""
    return RatFunc.make(bundle.c1_pairing * bundle.c1_pairing, bundle.volume.scale(2))


def _second_term(bundle) -> RatFunc:
    """||F||^2 / (32 pi^2), by ``futaki_norm_sq`` on the pi-free parts."""
    norm = futaki_norm_sq(bundle.f1, bundle.f2, bundle.a, bundle.b, bundle.c)
    return RatFunc.make(norm.num, norm.den.scale(32))


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
    interior, boundary = moments(_abcd_polygon())
    area, (q1, q2) = interior[0], _obstruction_numerators(interior, boundary)
    b1, b2, volume = _closed_form_brackets()
    delta = MultiPoly.variable(ABCD, "delta")
    assert (q1, q2, area) == (delta * b1, delta * b2, volume)
    assert (q1.total_degree(), b1.total_degree(), volume.total_degree()) == (4, 3, 2)
    # on V (delta = 0) the obstruction vanishes identically
    on_v = dict(zip(ABCD, MultiPoly.gens(ABCD)), delta=0)
    assert q1.substitute(on_v, ABCD).is_zero and q2.substitute(on_v, ABCD).is_zero
    # the cone ingredients keep this pass's numerators
    assert functional._cone_ingredients()[-2:] == (q1, q2)


def test_delta_zero_polygon_agrees_with_the_abcd_pass():
    # the one direct polygon on V: its numerators are the ABCD pass's at
    # delta = 0, and both vanish
    alpha, beta, gamma = MultiPoly.gens(ABG)
    polygon = build_polygon(AreaVector.from_abcd(alpha, beta, gamma, 0).as_tuple(), ABG)
    direct = _obstruction_numerators(*moments(polygon))
    on_v = dict(zip(ABCD, (alpha, beta, gamma, 0)))
    from_pass = tuple(q.substitute(on_v, ABG) for q in functional._cone_ingredients()[-2:])
    assert direct == from_pass
    assert all(q.is_zero for q in direct)


def _closed_form(chart):
    """(F1, F2) on a chart from the transcribed closed-form brackets."""
    b1, b2, volume = _on_chart(chart, _closed_form_brackets())
    return RatFunc.make(b1, volume), RatFunc.make(b2, volume)


def _boundary_route(chart):
    """(F1, F2) on a chart from its own polygon's boundary integrals."""
    interior, boundary = moments(build_polygon(chart.area_vector().as_tuple(), chart.variables))
    q1, q2 = _obstruction_numerators(interior, boundary)
    return RatFunc.make(q1, interior[0]), RatFunc.make(q2, interior[0])


def _chart_polygon_bundle(chart):
    """The bundle from the chart's own polygon over its variables, with the
    boundary route's q_i (= b_i at delta = 1) as obstruction numerators and
    the objective in the structured form of ``objective_parts``."""
    interior, boundary = moments(build_polygon(chart.area_vector().as_tuple(), chart.variables))
    volume, perimeter = interior[0], boundary[0]
    puu, pvv, puv = central_moment_numerators(*interior)
    q1, q2 = _obstruction_numerators(interior, boundary)
    quarter = Fraction(1, 4)
    _, _, numerator, denominator = objective_parts(perimeter, volume, puu, pvv, puv, q1, q2)
    return {
        "volume": volume,
        "c1_pairing": perimeter,
        "f1": RatFunc.make(q1, volume),
        "f2": RatFunc.make(q2, volume),
        "a": RatFunc.make(puu.scale(quarter), volume),
        "b": RatFunc.make(pvv.scale(quarter), volume),
        "c": RatFunc.make(puv.scale(quarter), volume),
        "calA": RatFunc.make(numerator, denominator),
    }


def _terms(value):
    """A field's exact representation: num and den (term by term under
    MultiPoly ==, unlike RatFunc ==)."""
    if isinstance(value, RatFunc):
        return value.num, value.den
    return value


@pytest.mark.parametrize("chart", [K2_CHART, K3_CHART], ids=["k2", "k3"])
def test_bundle_is_term_identical_to_the_chart_polygon_route(chart):
    """Every field is the chart polygon's, term for term; the objective, in
    the Gram form, is the structured form's through the 4*V^2 identity:
    4*V^2 times each of its parts gives the structured form's canonical
    tables."""
    bundle = build_bundle(chart)
    expected = _chart_polygon_bundle(chart)
    factor = bundle.volume * bundle.volume * 4
    structured = expected.pop("calA")
    gram = RatFunc.make(bundle.calA.num * factor, bundle.calA.den * factor)
    assert _terms(gram) == _terms(structured)
    for field, value in expected.items():
        got = getattr(bundle, field)
        assert type(got) is type(value), field
        assert _terms(got) == _terms(value), field


def test_structured_form_is_4v2_times_the_gram_form_over_abcd():
    """On the ABCD polygon's integrals the structured form, built from its
    q_i, is 4*V^2 times the Gram form, numerator and denominator.  The Gram
    form is homogeneous of degree 10 (226 and 181 terms), det M has no
    negative coefficient, and one changed coefficient of one Gram entry
    breaks the identity."""
    interior, boundary, central, _, _, q1, q2 = functional._cone_ingredients()
    volume = interior[0]
    factor = volume * volume * 4
    *_, numerator, denominator = objective_parts(boundary[0], volume, *central, q1, q2)
    gram = gram_parts(interior, boundary, *central)
    assert (numerator, denominator) == tuple(part * factor for part in gram)
    assert [len(part.terms) for part in gram] == [226, 181]
    assert all({sum(e) for e in part.terms} == {10} for part in gram)
    assert min(gram[1].terms.values()) > 0
    m11 = interior[4]
    exponents = next(iter(m11.terms))
    changed = list(interior)
    changed[4] = m11 + MultiPoly(ABCD, {exponents: 1})
    assert (m11 - changed[4]).terms == {exponents: -1}
    changed_num, changed_den = gram_parts(changed, boundary, *central)
    assert changed_num * factor != numerator and changed_den * factor != denominator


def test_both_bundles_build_one_polygon(monkeypatch):
    calls = []

    def counting(areas, variables=(), *args):
        if variables:
            calls.append(tuple(variables))
        return build_polygon(areas, variables, *args)

    # a fresh ingredient cache stands for a fresh process
    fresh = lru_cache(maxsize=None)(functional._cone_ingredients.__wrapped__)
    monkeypatch.setattr(functional, "_cone_ingredients", fresh)
    monkeypatch.setattr(certify, "_cone_ingredients", fresh)
    monkeypatch.setattr(functional, "build_polygon", counting)
    for chart in (K2_CHART, K3_CHART):
        build_bundle.__wrapped__(chart)
    # veritas reads the same pass
    assert certify.verify_veritas().status == "PASS"
    assert calls == [ABCD]


def test_calA_k3_at_alpha_zero_is_calA_k2(bundle_k2, bundle_k3):
    # a cross-chart identity: the two objectives are assembled separately
    beta, gamma = MultiPoly.gens(BG)
    images = {"alpha": MultiPoly.zero(BG), "beta": beta, "gamma": gamma}
    cal_a = bundle_k3.calA
    face = RatFunc.make(cal_a.num.substitute(images, BG), cal_a.den.substitute(images, BG))
    assert face == bundle_k2.calA


def test_closed_form_spot_values():
    f1, f2 = _closed_form(K2_CHART)
    assert f1.evaluate((1, 1)) == Fraction(-2, 3)
    assert f2.evaluate((1, 1)) == Fraction(-2, 3)
    assert f1.evaluate((1, 2)) == Fraction(-10, 11)
    assert f2.evaluate((1, 2)) == Fraction(-12, 11)
    g1, g2 = _closed_form(K3_CHART)
    assert g1.evaluate((1, 1, 1)) == 0
    assert g2.evaluate((1, 1, 1)) == 0


def test_boundary_route_matches_closed_form_symbolically(bundle_k2, bundle_k3):
    f1, f2 = _boundary_route(K2_CHART)
    assert f1.equals(bundle_k2.f1) and f2.equals(bundle_k2.f2)
    g1, g2 = _boundary_route(K3_CHART)
    assert g1.equals(bundle_k3.f1) and g2.equals(bundle_k3.f2)


def test_boundary_spot_value():
    f1, _ = evaluate_futaki_on_areas([Fraction(0), 2, 1, 1, 1, 2])
    assert f1 == Fraction(-2, 3)


def test_anticanonical_hexagon_obstruction_vanishes():
    assert evaluate_futaki_on_areas([Fraction(1)] * 6) == (0, 0)


def test_moment_matrix_entries_carry_pi(bundle_k2):
    # the bundle holds the pi-free parts; the printed text attaches pi^-2
    point = (1, 1)
    expected = {"A": Fraction(265, 1008), "B": Fraction(265, 1008), "C": Fraction(-121, 2016)}
    for name, value in expected.items():
        assert getattr(bundle_k2, name.lower()).evaluate(point) == value
        assert quantity_text(bundle_k2, name, point) == f"({value})*pi^-2"


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
    assert bundle_k2.a.equals(RatFunc.make(parse_expression(a_text, BG), den))
    assert bundle_k2.b.equals(RatFunc.make(parse_expression(b_text, BG), den))
    c_den = parse_expression(f"288 {v2}", BG)
    assert bundle_k2.c.equals(RatFunc.make(parse_expression(c_text, BG), c_den))


def test_norm_sq_generic_op_k2_spot(bundle_k2):
    second = _second_term(bundle_k2)
    assert second.evaluate((1, 1)) == Fraction(56, 409)
    assert second.equals(_plus(bundle_k2.calA, _first_term(bundle_k2), sub))


def test_norm_sq_generic_op_matches_structured_k3(bundle_k3):
    second = _second_term(bundle_k3)
    first = _first_term(bundle_k3)
    rng = SplitMix64(3)
    for _ in range(10):
        point = rng.point(3)
        assert second.evaluate(point) == (
            bundle_k3.calA.evaluate(point) - first.evaluate(point)
        )


def test_norm_sq_zero_obstruction(bundle_k2):
    zero = RatFunc.from_poly(MultiPoly.zero(BG))
    norm = futaki_norm_sq(zero, zero, bundle_k2.a, bundle_k2.b, bundle_k2.c)
    assert norm.num.is_zero


def test_norm_vanishes_identically_on_equal_areas_plane(bundle_k3):
    t = MultiPoly.variable(("t",), "t")
    images = {"alpha": t, "beta": t, "gamma": t}
    restricted = _second_term(bundle_k3).num.substitute(images, ("t",))
    assert restricted.is_zero


def test_assembled_objective_values(bundle_k2, bundle_k3):
    assert bundle_k2.calA.evaluate((1, 1)) == Fraction(2919, 409)
    assert bundle_k3.calA.evaluate((1, 1, 1)) == Fraction(81, 13)
    for bundle in (bundle_k2, bundle_k3):
        assert bundle.calA.equals(_plus(_first_term(bundle), _second_term(bundle)))


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
    perimeter = boundary_integral(polygon, 0, 0)
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
        interior, boundary = dilated_moments(build_polygon(areas.as_tuple()))
        area, perimeter = interior[0], boundary[0]
        q1, q2 = _obstruction_numerators(interior, boundary)
        puu, pvv, puv = central_moment_numerators(*interior)
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
    """The chart integrals come from one pass over the edges, 15 products per
    edge: a fresh ``_cone_ingredients`` forms 143 polynomial products,
    __rmul__ and scalings included, of which the obstruction numerators q1, q2
    take 6 (boundary * area, perimeter * interior and the doubling, each);
    a pass per monomial formed 372 without them."""
    multiply, count = MultiPoly.__mul__, [0]

    def counting(self, other):
        count[0] += 1
        return multiply(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    monkeypatch.setattr(MultiPoly, "__rmul__", counting)
    functional._cone_ingredients.__wrapped__()
    assert count[0] == 143


def test_each_route_makes_one_pass_over_the_edges(monkeypatch):
    """Each numeric evaluation and a fresh ``_cone_ingredients`` read every
    integral from one ``polytope._moment_sums``; ``build_polygon`` runs none."""
    passes, count = polytope._moment_sums, [0]

    def counting(polygon):
        count[0] += 1
        return passes(polygon)

    monkeypatch.setattr(polytope, "_moment_sums", counting)
    areas = AreaVector.from_abcd(Fraction(1, 2), Fraction(2, 3), 1, Fraction(-1, 5))
    build_polygon(areas.as_tuple())
    assert count[0] == 0
    for run in (
        partial(evaluate_calA_on_areas, areas),
        partial(evaluate_futaki_on_areas, areas),
        functional._cone_ingredients.__wrapped__,
    ):
        count[0] = 0
        run()
        assert count[0] == 1, run


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
    # s0^2 * V = 32 pi^2 (c1.Omega)^2 / Omega^2 with s0 = 4 pi (c1.Omega)/V,
    # over pi^2 on both sides: 32 times the objective's first term
    for bundle in (bundle_k2, bundle_k3):
        s0_over_pi = RatFunc.make(bundle.c1_pairing.scale(4), bundle.volume)
        first = _first_term(bundle)
        assert _times(s0_over_pi, s0_over_pi, RatFunc.from_poly(bundle.volume)) == RatFunc.make(
            first.num.scale(32), first.den
        )


def test_exported_objective_is_pi_free():
    # pi enters only through A, B and C, and only their text carries it
    for chart in (K2_CHART, K3_CHART):
        for values in bundle_summary(chart)["evaluations"].values():
            assert {name for name, text in values.items() if "pi" in text} == {"A", "B", "C"}


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
    closed = _closed_form(chart)
    assert closed == _boundary_route(chart)
    denominator = gamma * 6 + 3
    assert closed == (RatFunc.make(gamma * -4, denominator), RatFunc.make(gamma * 2, denominator))
