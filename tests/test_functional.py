from __future__ import annotations

from fractions import Fraction

import pytest

from kcert.delpezzo import AreaVector, K2_CHART, K3_CHART, c1_class, cremona
from kcert.exprparse import parse_expression
from kcert.functional import (
    average_scalar_curvature,
    evaluate_calA_on_areas,
    evaluate_futaki_on_areas,
    first_variation_along_c1,
    futaki_boundary,
    futaki_closed_form,
    futaki_norm_sq,
)
from kcert.poly import MultiPoly, PiPowerMismatchError, PiValue, RatFunc
from kcert.sampling import SplitMix64

BG = K2_CHART.variables
ABG = K3_CHART.variables


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
        bundle_k2.a.as_pi_free()


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
    assert second.value.equals(bundle_k2.futaki_norm_sq_over_32pi2)


def test_norm_sq_generic_op_matches_structured_k3(bundle_k3):
    norm = futaki_norm_sq(
        bundle_k3.f1, bundle_k3.f2, bundle_k3.a, bundle_k3.b, bundle_k3.c
    )
    second = norm / PiValue(Fraction(32), 2)
    rng = SplitMix64(3)
    for _ in range(10):
        point = rng.point(3)
        assert second.value.evaluate(point) == bundle_k3.futaki_norm_sq_over_32pi2.evaluate(point)


def test_norm_sq_zero_obstruction(bundle_k2):
    zero = RatFunc.const(BG, 0)
    norm = futaki_norm_sq(zero, zero, bundle_k2.a, bundle_k2.b, bundle_k2.c)
    assert norm.value.is_zero


def test_norm_vanishes_identically_on_equal_areas_plane(bundle_k3):
    t = MultiPoly.variable(("t",), "t")
    images = {"alpha": t, "beta": t, "gamma": t}
    restricted = bundle_k3.futaki_norm_sq_over_32pi2.num.substitute(images, ("t",))
    assert restricted.is_zero


def test_assembled_objective_values(bundle_k2, bundle_k3):
    assert bundle_k2.calA.evaluate((1, 1)) == Fraction(2919, 409)
    assert bundle_k3.calA.evaluate((1, 1, 1)) == Fraction(81, 13)
    assert bundle_k2.calA.equals(
        bundle_k2.first_term + bundle_k2.futaki_norm_sq_over_32pi2
    )
    assert bundle_k3.calA.equals(
        bundle_k3.first_term + bundle_k3.futaki_norm_sq_over_32pi2
    )


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
        areas = AreaVector.from_coh(bundle.chart.omega_at(point))
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


def test_objective_at_anticanonical_class():
    assert evaluate_calA_on_areas([Fraction(1)] * 6) == 6


def test_diagonal_restriction(diagonal):
    assert diagonal.f_at(Fraction(1)) == Fraction(2919, 409)
    assert diagonal.p.evaluate((Fraction(0),)) == -1
    assert diagonal.df_at(Fraction(0)) == -12
    assert diagonal.q.evaluate((Fraction(0),)) == 9
    # the quotient-rule numerator carries the printed factor 12 exactly
    n, d = diagonal.f.num, diagonal.f.den
    raw = n.diff("beta") * d - n * d.diff("beta")
    assert raw == diagonal.p.scale(12)
    assert diagonal.df.den == d * d
    assert diagonal.d2f.den == d ** 3


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
        s0 = average_scalar_curvature(bundle.chart)
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
    with pytest.raises(PiPowerMismatchError):
        norm.as_pi_free()
    assert (norm / PiValue(Fraction(32), 2)).as_pi_free() is not None


def test_unsupported_chart_rejected():
    from kcert.delpezzo import ConeChart

    with pytest.raises(ValueError):
        futaki_closed_form(ConeChart("k1", 1, ("beta",)))
