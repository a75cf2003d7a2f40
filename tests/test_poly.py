from __future__ import annotations

import decimal
import sys
from fractions import Fraction
from math import gcd, prod

import tracemalloc

import pytest

from kcert import functional, poly, univar
from kcert.delpezzo import K2_CHART, K3_CHART
from kcert.exprparse import parse_expression
from kcert.functional import build_bundle, restrict_diagonal
from kcert.poly import (
    MultiPoly,
    RatFunc,
    VariableMismatchError,
    coefficients_all_nonneg,
    directional_derivative,
    directional_second_derivative,
)
from kcert.sampling import SplitMix64

BG = ("beta", "gamma")


def gens():
    return MultiPoly.gens(BG)


def test_difference_of_squares():
    beta, _ = gens()
    assert (1 + beta) * (1 - beta) == 1 - beta * beta


def test_square_expansion():
    beta, gamma = gens()
    expanded = (1 + beta + gamma) ** 2
    expected = (
        1 + 2 * beta + 2 * gamma + beta ** 2 + 2 * beta * gamma + gamma ** 2
    )
    assert expanded == expected


def test_moment_numerator_expansion_value():
    beta, gamma = gens()
    inner = (
        beta + beta ** 2 + beta ** 3
        + gamma * (1 + 4 * beta + 4 * beta ** 2 + 2 * beta ** 3)
        + gamma ** 2 * (1 + beta) ** 3
    )
    poly = 6 * (1 + beta) * inner + 1
    assert poly.evaluate((1, 1)) == 265


def test_partial_derivative_basics():
    beta, gamma = gens()
    assert (beta ** 2 * gamma).diff("beta") == 2 * beta * gamma
    assert MultiPoly.const(BG, 5).diff("gamma").is_zero
    with pytest.raises(ValueError, match="unknown variable 'delta'"):
        beta.diff("delta")


def test_directional_second_derivative_quadratic():
    beta, gamma = gens()
    f = RatFunc.from_poly(beta ** 2 + gamma ** 2)
    d2 = directional_second_derivative(f, (1, -1))
    assert d2.equals(RatFunc.from_poly(MultiPoly.const(BG, 4)))


def test_directional_second_derivative_constant_on_line():
    beta, gamma = gens()
    f = RatFunc.make(MultiPoly.const(BG, 1), beta + gamma)
    d2 = directional_second_derivative(f, (1, -1))
    assert d2.num.is_zero


def test_directional_second_derivative_denominator_is_cube():
    beta, gamma = gens()
    den = 1 + beta * gamma
    f = RatFunc(beta ** 3, den)
    d2 = directional_second_derivative(f, (1, -1))
    assert d2.den == den ** 3


def _literal_second_derivative(f, direction):
    """The structural numerator N_vv*D^2 - 2*N_v*D_v*D - N*D_vv*D + 2*N*D_v^2."""
    n, d = f.num, f.den
    n_v = directional_derivative(n, direction)
    d_v = directional_derivative(d, direction)
    n_vv = directional_derivative(n_v, direction)
    d_vv = directional_derivative(d_v, direction)
    return n_vv * d * d - 2 * n_v * d_v * d - n * d_vv * d + 2 * n * d_v * d_v


@pytest.fixture
def cold_objectives(monkeypatch):
    """No objective has been asked for a direction yet, however the suite is run."""
    monkeypatch.setattr(poly, "_routes", {})


@pytest.mark.parametrize("chart, direction", [(K2_CHART, (1, -1)), (K3_CHART, (1, -1, 0))])
def test_second_derivative_numerator_is_the_literal_form(chart, direction):
    f = build_bundle(chart).calA
    d2 = directional_second_derivative(f, direction)
    assert d2.num == _literal_second_derivative(f, direction)
    assert d2.den == f.den * f.den * f.den


def test_second_derivative_k3_matches_uncached_reference():
    """Antidiagonals and a seeded direction: the structural form over a D^3
    formed here, with no cache, and one shared cube object across directions."""
    f = build_bundle(K3_CHART).calA
    n, d = f.num, f.den
    cube = d ** 3
    rng = SplitMix64(0xD2)
    seeded = tuple((-3, -2, -1, 1, 2, 3)[rng.below(6)] for _ in range(3))
    results = []
    for direction in ((1, -1, 0), (0, 1, -1), (1, 0, -1), seeded):
        n_v = directional_derivative(n, direction)
        d_v = directional_derivative(d, direction)
        n_vv = directional_derivative(n_v, direction)
        d_vv = directional_derivative(d_v, direction)
        numerator = (n_vv * d - 2 * n_v * d_v - n * d_vv) * d + 2 * n * (d_v * d_v)
        d2 = directional_second_derivative(f, direction)
        assert d2.num == numerator
        assert d2.den == cube
        results.append(d2)
    assert all(d2.den is results[0].den for d2 in results)


# per variable count: an objective, and its antidiagonals (the diagonal for one variable)
OBJECTIVES = {
    1: (lambda: restrict_diagonal().f, [(1,)]),
    2: (lambda: build_bundle(K2_CHART).calA, [(1, -1)]),
    3: (lambda: build_bundle(K3_CHART).calA, [(1, -1, 0), (0, 1, -1), (1, 0, -1)]),
}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hessian_route_is_the_literal_form(k, cold_objectives):
    """After the first direction every direction is a combination of the
    Hessian columns; each is the literal structural numerator over the shared
    D^3: antidiagonals, seeded directions, zero components, the zero direction
    and a rational direction."""
    objective, directions = OBJECTIVES[k]
    f = objective()
    rng = SplitMix64(0x4E55 + k)
    directions = directions + [tuple(rng.below(7) - 3 for _ in range(k)) for _ in range(3)]
    directions += [(2,) + (0,) * (k - 1), (0,) * k]
    directions.append(tuple(Fraction(rng.below(9) - 4, 1 + rng.below(6)) for _ in range(k)))
    for count, direction in enumerate(directions, 1):
        d2 = directional_second_derivative(f, direction)
        assert d2.num == _literal_second_derivative(f, direction), direction
        assert d2.den is poly._cube(f.den)
        distinct = len(set(directions[:count]))
        assert isinstance(poly._routes[f.num, f.den], poly._Hessian) == (distinct > 1)


def test_hessian_route_handles_parts_with_denominators(cold_objectives):
    """RatFunc parts need not have den 1: the Hessian of N/D is formed from
    their integer numerators and divided by N.den * D.den^2 again."""
    beta, gamma = gens()
    f = RatFunc(beta ** 3 / 2 - gamma / 3, Fraction(5, 7) + beta * gamma ** 2 / 4 + gamma ** 3)
    assert f.num.den == 6 and f.den.den == 28
    for direction in ((1, -1), (2, 1), (Fraction(-1, 3), 5), (0, 1)):
        d2 = directional_second_derivative(f, direction)
        assert d2.num == _literal_second_derivative(f, direction)
    assert isinstance(poly._routes[f.num, f.den], poly._Hessian)


def test_hessian_route_falls_back_when_a_slot_could_overflow(cold_objectives):
    """A direction whose coefficient bound exceeds the slot width takes the direct route."""
    f = build_bundle(K2_CHART).calA
    directional_second_derivative(f, (1, -1))
    directional_second_derivative(f, (1, 1))
    hessian = poly._routes[f.num, f.den]
    huge = (1 << (4 * hessian.size), -1)
    assert hessian.along(huge) is None
    assert directional_second_derivative(f, huge).num == _literal_second_derivative(f, huge)


def test_second_derivative_forms_each_cube_once(monkeypatch, cold_objectives):
    """A cold call makes 6 products, D^3 costing two of them.  The second
    distinct direction forms the Hessian (10 products for two variables) and
    no cube; a third direction makes no product at all."""
    beta, gamma = gens()
    f = RatFunc(beta ** 3 - gamma, 5 + 3 * beta * gamma ** 2 + 7 * gamma ** 3)
    products = 0
    mul = MultiPoly.__mul__

    def counting(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    poly._cube.cache_clear()  # the first call is cold however the suite is run
    counts = []
    for direction in ((1, -1), (2, 1), (1, 1)):
        products = 0
        directional_second_derivative(f, direction)
        counts.append(products)
    assert counts == [6, 10, 0]
    assert poly._cube.cache_info().misses == 1


def test_second_derivative_route_selection(monkeypatch, cold_objectives):
    """The first direction takes the direct route, four products, and so
    does that direction asked again; neither forms a Hessian.  The second
    distinct direction forms it once; later directions only combine its
    columns."""
    f = build_bundle(K3_CHART).calA
    poly._cube(f.den)  # warm, so that every count below is of the numerator alone
    formed = []
    init = poly._Hessian.__init__

    def counting(self, n, d):
        formed.append((n, d))
        init(self, n, d)

    monkeypatch.setattr(poly._Hessian, "__init__", counting)
    products = 0
    mul = MultiPoly.__mul__

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
    counts = []
    for direction in ((1, -1, 0), (1, -1, 0), (0, 1, -1), (1, 0, -1), (3, -2, 1)):
        products = 0
        directional_second_derivative(f, direction)
        counts.append((products, len(formed)))
    assert counts[:2] == [(4, 0), (4, 0)]
    assert counts[2] == (2 * 3 + 2 * 6, 1)  # G_i: two products each; H_ij: two each
    assert counts[3:] == [(0, 1), (0, 1)]


def test_repeated_first_direction_stays_direct(monkeypatch, cold_objectives):
    """The record keeps the first direction, not its numerator: asked again,
    that direction forms the same numerator with the direct route's four
    products, over the same cube, and forms no Hessian."""
    beta, gamma = gens()
    f = RatFunc(beta ** 3 - gamma, 5 + 3 * beta * gamma ** 2 + 7 * gamma ** 3)
    first = directional_second_derivative(f, (1, -1))
    products = []
    mul = MultiPoly.__mul__

    def counting(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    again = directional_second_derivative(f, [1, -1])
    assert len(products) == 4
    assert again.num == first.num and again.den is first.den
    assert poly._routes[f.num, f.den] == (1, -1)


def test_second_derivative_cube_per_denominator():
    beta, gamma = gens()
    f = RatFunc(beta, 1 + beta + gamma)
    g = RatFunc(beta, 2 + beta + gamma)
    f2 = directional_second_derivative(f, (1, -1))
    g2 = directional_second_derivative(g, (1, -1))
    assert f2.den == f.den ** 3
    assert g2.den == g.den ** 3
    assert f2.den != g2.den
    # an equal denominator built separately finds the same cube
    h = RatFunc(gamma, 1 + gamma + beta)
    assert h.den is not f.den
    assert directional_second_derivative(h, (1, 1)).den is f2.den


def _lagrange_second_derivative_at_zero(points):
    """g''(0) for the exact polynomial interpolating (t, value) pairs."""
    total = Fraction(0)
    n = len(points)
    for i, (ti, vi) in enumerate(points):
        others = [points[j][0] for j in range(n) if j != i]
        denom = Fraction(1)
        for tj in others:
            denom *= ti - tj
        # second derivative at 0 of prod (t - tj): sum over unordered pairs
        pair_sum = Fraction(0)
        for a in range(len(others)):
            for b in range(len(others)):
                if a == b:
                    continue
                prod = Fraction(1)
                for c in range(len(others)):
                    if c != a and c != b:
                        prod *= -others[c]
                pair_sum += prod
        total += vi * pair_sum / denom
    return total


def test_second_derivative_matches_interpolation_oracle():
    rng = SplitMix64(11)
    ts = [Fraction(k, 7) for k in (-2, -1, 0, 1, 2)]
    for _ in range(25):
        terms = {}
        for _ in range(6):
            e = (rng.below(3), rng.below(3))
            if sum(e) > 4:
                continue
            terms[e] = Fraction(rng.below(41) - 20)
        p = MultiPoly(BG, terms)
        if p.total_degree() > 4:
            continue
        point = rng.point(2)
        f = RatFunc.from_poly(p)
        d2 = directional_second_derivative(f, (1, -1)).evaluate(point)
        samples = [
            (t, p.evaluate((point[0] + t, point[1] - t))) for t in ts
        ]
        assert d2 == _lagrange_second_derivative_at_zero(samples)


def _termwise_evaluate(p, point):
    """Reference: every term as a Fraction product, summed term by term."""
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for x, e in zip(point, exps):
            term *= Fraction(x) ** e
        total += term
    return total


def _signed_rational(rng, bits):
    half = 1 << (bits - 1)
    return Fraction(rng.below(2 * half + 1) - half, 1 + rng.below(1 << bits))


def _seeded_terms(rng, nvars, bits):
    return {
        tuple(rng.below(7) for _ in range(nvars)): _signed_rational(rng, bits)
        for _ in range(rng.below(8))
    }


def test_evaluate_matches_termwise_reference():
    rng = SplitMix64(0x5EED)
    for case in range(250):
        nvars = case % 5
        variables = tuple(f"x{i}" for i in range(nvars))
        bits = 1 + rng.below(48)
        terms = _seeded_terms(rng, nvars, bits)
        point = []
        for _ in range(nvars):
            kind = rng.below(4)
            if kind == 0:
                point.append(0)
            elif kind == 1:
                point.append(rng.below(1 << bits) - (1 << (bits - 1)))
            else:
                point.append(_signed_rational(rng, bits))
        constant = _signed_rational(rng, bits)
        for p in (
            MultiPoly(variables, terms),
            MultiPoly.zero(variables),
            MultiPoly.const(variables, constant),
        ):
            value = p.evaluate(point)
            assert type(value) is Fraction
            assert value == _termwise_evaluate(p, point)
    # two terms whose top exponent is 10,007: weights for the exponents that
    # occur, not for the whole range below the top
    sparse = MultiPoly(BG, {(10007, 3): Fraction(-5, 7), (0, 1): 3})
    point = (_signed_rational(rng, 48), _signed_rational(rng, 48))
    assert sparse.evaluate(point) == _termwise_evaluate(sparse, point)


def test_evaluation_layout_is_formed_once_and_read_by_nothing_else(monkeypatch):
    grouped, calls = MultiPoly._grouped, []

    def counting(p):
        calls.append(p)
        return grouped(p)

    monkeypatch.setattr(MultiPoly, "_grouped", counting)
    beta, gamma = gens()
    terms = ((beta + 2 * gamma + 1) ** 3).numerators
    evaluated, fresh = MultiPoly(BG, terms), MultiPoly(BG, terms)
    point = (Fraction(2, 3), Fraction(-5, 7))
    value = evaluated.evaluate(point)
    assert evaluated.evaluate(point) == value == _termwise_evaluate(fresh, point)
    assert len(calls) == 1 and calls[0] is evaluated
    assert evaluated == fresh and hash(evaluated) == hash(fresh)
    assert poly._cube(evaluated) is poly._cube(fresh)


def test_evaluate_refuses_float_coordinates():
    p = MultiPoly.variable(BG, "beta")
    with pytest.raises(TypeError, match="coordinate beta is 0.5, not an int or Fraction"):
        p.evaluate((0.5, 1))
    assert p.evaluate((Fraction(1, 2), 1)) == Fraction(1, 2)


def _expanded_substitution(p, images, target):
    """Reference: expand every term as a product of its images."""
    total = MultiPoly.zero(target)
    for exps, coeff in p.terms.items():
        term = MultiPoly.const(target, coeff)
        for name, e in zip(p.variables, exps):
            image = images[name]
            if not isinstance(image, MultiPoly):
                image = MultiPoly.const(target, image)
            for _ in range(e):
                term = term * image
        total = total + term
    return total


class _NoProducts(AssertionError):
    pass


def _forbid_products(monkeypatch):
    def refuse(self, other):
        raise _NoProducts("polynomial product taken")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    monkeypatch.setattr(MultiPoly, "__rmul__", refuse)


def _random_poly(rng, variables, degree=4):
    return MultiPoly(
        variables,
        {
            tuple(rng.below(degree + 1) for _ in variables): _signed_rational(rng, 12)
            for _ in range(12)
        },
    )


def test_substitute_monomial_images_match_expansion(monkeypatch):
    rng = SplitMix64(31)
    target = ("alpha", "t")
    alpha, t = MultiPoly.gens(target)
    beta, gamma = gens()
    cases = [
        ({"beta": alpha ** 2 * t * Fraction(-3, 2), "gamma": 5 * t}, target),
        ({"beta": -alpha, "gamma": alpha * t ** 3 * Fraction(7, 4)}, target),
        ({"beta": Fraction(2, 3), "gamma": -4}, target),
        ({"beta": MultiPoly.const(target, 3), "gamma": t}, target),
        ({"beta": beta, "gamma": beta}, BG),  # colliding: gamma := beta
        ({"beta": gamma, "gamma": beta}, BG),
    ]
    for _ in range(10):
        p = _random_poly(rng, BG)
        expected = [_expanded_substitution(p, images, tgt) for images, tgt in cases]
        with monkeypatch.context() as patch:
            _forbid_products(patch)
            got = [p.substitute(images, tgt) for images, tgt in cases]
        assert got == expected
    # a collision whose terms cancel leaves no zero coefficient behind
    assert (beta - gamma).substitute({"beta": beta, "gamma": beta}, BG).is_zero


def test_substitute_zero_image_takes_the_monomial_path(monkeypatch):
    rng = SplitMix64(32)
    target = ("t",)
    (t,) = MultiPoly.gens(target)
    for images, products in (
        ({"beta": 0, "gamma": t}, False),
        ({"beta": MultiPoly.zero(target), "gamma": 2 * t}, False),
        ({"beta": 0, "gamma": MultiPoly.zero(target)}, False),
        ({"beta": 1 + t, "gamma": t}, True),
    ):
        p = _random_poly(rng, BG) + 5
        expected = _expanded_substitution(p, images, target)
        with monkeypatch.context() as patch:
            _forbid_products(patch)
            if products:
                with pytest.raises(_NoProducts):
                    p.substitute(images, target)
            else:
                assert p.substitute(images, target) == expected
        assert p.substitute(images, target) == expected


def test_equals_identical_forms_without_products(monkeypatch):
    beta, gamma = gens()
    a = RatFunc.make(1 + beta * gamma, 3 + gamma ** 2)
    same = RatFunc(MultiPoly(BG, a.num.terms), MultiPoly(BG, a.den.terms))
    _forbid_products(monkeypatch)
    assert a.equals(same) and same.equals(a)


def test_equals_falls_back_to_cross_multiplication():
    beta, gamma = gens()
    uncancelled = RatFunc(beta * gamma, beta * beta)
    assert uncancelled.equals(RatFunc.make(gamma, beta))
    assert RatFunc.make(gamma, beta).equals(uncancelled)
    assert not uncancelled.equals(RatFunc.make(beta, gamma))
    assert not RatFunc.make(gamma, beta).equals(RatFunc.make(2 * gamma, beta))


def _counting_products(monkeypatch) -> list:
    """Record every polynomial product taken after the call."""
    products = []
    multiply = MultiPoly.__mul__

    def counting(self, other):
        products.append(other)
        return multiply(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    monkeypatch.setattr(MultiPoly, "__rmul__", counting)
    return products


def _extremes(p: MultiPoly) -> tuple:
    return tuple((e, Fraction(p.numerators[e], p.den)) for e in (max(p.numerators), min(p.numerators)))


def test_equals_matches_cross_multiplication_reference(monkeypatch):
    """Equal forms in different representations, pairs that agree in both
    extreme terms but differ inside, and unrelated pairs: ``equals`` agrees
    with plain cross-multiplication, and forms no product exactly when the
    extreme terms of the two cross products already differ."""
    rng = SplitMix64(0xE0A1)
    variables = ("x", "y", "z")
    cases = []
    for _ in range(200):
        a, b, c = (
            MultiPoly(variables, _seeded_terms(rng, 3, 1 + rng.below(40))) or MultiPoly.const(variables, 1)
            for _ in range(3)
        )
        cases.append((RatFunc(a * c, b * c), RatFunc.make(a, b)))  # equal, uncancelled
        cases.append((RatFunc(a, b), RatFunc(c, b)))
        cases.append((RatFunc.make(a, b), RatFunc.make(c, a + b) if a + b else RatFunc(c, b)))
        inside = sorted(a.numerators)[1:-1]
        if inside:
            # one interior coefficient of the numerator moves; the extremes stay
            bump = MultiPoly(variables, {inside[rng.below(len(inside))]: Fraction(1 + rng.below(9))})
            cases.append((RatFunc(a, b), RatFunc(a + bump, b)))
    interior = 0
    for f, g in cases:
        left, right = f.num * g.den, g.num * f.den
        expected = left == right
        products = _counting_products(monkeypatch)
        assert f.equals(g) is expected and g.equals(f) is expected
        monkeypatch.undo()
        refuted = not f.num or not g.num or _extremes(left) != _extremes(right)
        if f.num == g.num and f.den == g.den:
            assert products == []
        elif refuted:
            assert products == [] and not expected
        else:
            assert len(products) == 4  # two cross products, each way round
            interior += not expected
    assert interior > 0  # some pairs were refuted only by the full products


def test_equals_zero_numerators_form_no_product(monkeypatch):
    beta, gamma = gens()
    zero = MultiPoly.zero(BG)
    products = _counting_products(monkeypatch)
    assert RatFunc(zero, 1 + beta).equals(RatFunc(zero, gamma))
    assert not RatFunc(zero, 1 + beta).equals(RatFunc.make(gamma, beta))
    assert not RatFunc.make(gamma, beta).equals(RatFunc(zero, 1 + beta))
    assert products == []


def test_k2_display_comparison_forms_no_product(monkeypatch):
    """The recorded k2 MISMATCH is refuted by the leading terms alone."""
    from kcert import certify
    from kcert.exprparse import compare_against_fixture

    _, fixture = certify._named_fixture("k2", "d2_antidiag", None)
    computed = certify._fixture_target("k2", "d2_antidiag")
    products = _counting_products(monkeypatch)
    assert compare_against_fixture(computed, fixture).kind == "MISMATCH"
    assert products == []


def test_exponent_packing_overflow_is_rejected():
    with pytest.raises(ValueError, match="exponent limit"):
        parse_expression("(((beta^64)^64)^64)^64", BG)
    below = MultiPoly(BG, {(1 << 23, 0): 1}) * MultiPoly(BG, {((1 << 23) - 1, 2): 1})
    assert below.terms == {((1 << 24) - 1, 2): 1}
    with pytest.raises(ValueError, match="'gamma'"):
        MultiPoly(BG, {(0, 1 << 23): 1}) * MultiPoly(BG, {(1, 1 << 23): 1})


def test_substitution_exponent_overflow_is_rejected():
    # the monomial map adds packed image exponents, so a bound on every image
    # exponent must stay below the 2^24 slot
    target = ("t",)
    (t,) = MultiPoly.gens(target)
    images = {"beta": t * t, "gamma": MultiPoly.const(target, 3)}
    below = MultiPoly(BG, {((1 << 23) - 1, 1): 1, (1, 0): 1}).substitute(images, target)
    assert below.terms == {((1 << 24) - 2,): 3, (2,): 1}
    with pytest.raises(ValueError, match="exponent limit"):
        MultiPoly(BG, {(1 << 23, 0): 1}).substitute(images, target)


@pytest.mark.parametrize("nvars", range(7))
def test_unpack_inverts_pack(nvars):
    top = (1 << poly._PACK_BITS) - 1
    rng = SplitMix64(nvars)
    tuples = [(0,) * nvars, (top,) * nvars, tuple((0, top)[i % 2] for i in range(nvars))]
    tuples += [tuple(rng.below(top + 1) for _ in range(nvars)) for _ in range(20)]
    for e in tuples:
        assert list(poly._unpack([poly._pack(e)], nvars)) == [e]
    # every key at once, in order
    assert list(poly._unpack([poly._pack(e) for e in tuples], nvars)) == tuples


def test_leading_coefficient_matches_the_grevlex_key():
    # RatFunc.make takes the denominator's sign from its leading coefficient
    rng = SplitMix64(17)
    cases = [MultiPoly.const((), 5), MultiPoly.const(BG, -3), MultiPoly(BG, {(2, 1): -7})]
    # ties in total degree, decided by the reversed exponents
    cases.append(MultiPoly(("x", "y", "z"), {(2, 0, 1): 1, (1, 2, 0): -2, (0, 3, 0): 3,
                                             (3, 0, 0): 4, (0, 0, 3): 5}))
    for nvars in (1, 2, 3, 4):
        variables = tuple(f"x{i}" for i in range(nvars))
        cases += [_random_poly(rng, variables, degree) for degree in (1, 2, 4) for _ in range(30)]
    cases += [build_bundle(K3_CHART).calA.den, build_bundle(K2_CHART).calA.num]
    for p in filter(None, cases):
        leading = max(p.numerators, key=poly.grevlex_key)
        assert poly._grevlex_leading(p) == leading
        one = MultiPoly.const(p.variables, 1)
        assert RatFunc.make(one, -p).den.numerators[leading] > 0


def _termwise_product(a, b):
    """Reference: every term pair multiplied as Fractions, summed per monomial."""
    table = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            table[key] = table.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in table.items() if c != 0}


def _assert_stored_form(p):
    """Nonzero int numerators over an int den >= 1, coprime as a whole."""
    assert all(type(n) is int and n != 0 for n in p.numerators.values())
    assert type(p.den) is int and p.den >= 1
    assert gcd(p.den, *p.numerators.values()) == 1
    assert p.terms == {e: Fraction(n, p.den) for e, n in p.numerators.items()}
    assert all(type(e) is tuple and len(e) == len(p.variables) for e in p.numerators)


def _assert_product(a, b):
    got = a * b
    assert got.terms == _termwise_product(a, b)
    _assert_stored_form(got)
    return got


def test_stored_form_survives_every_operation():
    rng = SplitMix64(0x5EED)
    target = ("s", "t")
    for case in range(120):
        nvars = 1 + case % 4
        variables = tuple(f"x{i}" for i in range(nvars))
        bits = 1 + rng.below(48)
        a = MultiPoly(variables, _seeded_terms(rng, nvars, bits))
        b = MultiPoly(variables, _seeded_terms(rng, nvars, bits))
        factor = _signed_rational(rng, bits) or Fraction(1, 3)
        # single-term images take the monomial map, the others the expansion
        images = {
            v: MultiPoly(target, {(rng.below(3), rng.below(3)): _signed_rational(rng, bits)})
            + (_signed_rational(rng, bits) if case % 2 else 0)
            for v in variables
        }
        point = [_signed_rational(rng, bits) for _ in variables]
        results = [a + b, a - b, a.scale(factor), a / factor, a.diff("x0")]
        for p in (a, b, *results, a.substitute(images, target)):
            _assert_stored_form(p)
        x, y = a.evaluate(point), b.evaluate(point)
        assert [r.evaluate(point) for r in results[:4]] == [x + y, x - y, x * factor, x / factor]
        assert results[4].terms == {
            (e[0] - 1, *e[1:]): c * e[0] for e, c in a.terms.items() if e[0]
        }
        at = (Fraction(2, 3), Fraction(-5, 7))
        image_values = [images[v].evaluate(at) for v in variables]
        assert a.substitute(images, target).evaluate(at) == a.evaluate(image_values)


def test_ratfunc_parts_have_den_one():
    rng = SplitMix64(0x5EED)
    for _ in range(40):
        num = MultiPoly(BG, _seeded_terms(rng, 2, 1 + rng.below(48)))
        den = MultiPoly(BG, _seeded_terms(rng, 2, 1 + rng.below(48)))
        if den.is_zero:
            continue
        f = RatFunc.make(num, den)
        assert f.num.den == 1 and f.den.den == 1
        assert f.equals(RatFunc(num, den))
        square = RatFunc.make(f.num * f.num, f.den * f.den)
        assert square.num.den == 1 and square.den.den == 1 and (f.num * f.den).den == 1
    calA = build_bundle(K2_CHART).calA
    assert calA.num.den == 1 and calA.den.den == 1


def test_rational_accessors_return_fractions_for_integer_polynomials():
    # callers divide these with "/", which on two ints would give a float
    p = MultiPoly(BG, {(1, 0): 3, (0, 0): 2})
    assert p.den == 1 and all(type(c) is int for c in p.terms.values())
    # univar holds int numerators and divides them only into a Fraction
    coeffs = univar.from_multipoly(MultiPoly(("x",), {(0,): 3, (2,): -2}))
    assert coeffs == (3, 0, -2) and all(type(c) is int for c in coeffs)
    bound = univar.cauchy_root_bound(coeffs)
    assert type(bound) is Fraction and bound == Fraction(5, 2)


def _spy_dense(monkeypatch):
    calls = []
    dense = MultiPoly._mul_dense

    def spy(self, other, *shape):
        calls.append((len(self.terms), len(other.terms)))
        return dense(self, other, *shape)

    monkeypatch.setattr(MultiPoly, "_mul_dense", spy)
    return calls


def _spy_widths(monkeypatch):
    """(box, width) of each dense product; width None is the word path."""
    calls = []
    dense = MultiPoly._mul_dense

    def spy(self, other, tops, width):
        calls.append((prod(t + 1 for t in tops), width))
        return dense(self, other, tops, width)

    monkeypatch.setattr(MultiPoly, "_mul_dense", spy)
    return calls


def _tops(a, b):
    """The top exponent of a*b in each variable, as ``__mul__`` passes it to ``_mul_dense``."""
    return [x + y for x, y in zip(map(max, zip(*a.numerators)), map(max, zip(*b.numerators)))]


def test_mul_matches_termwise_reference(monkeypatch):
    rng = SplitMix64(0xD15E)
    calls = _spy_dense(monkeypatch)
    products = 0
    for case in range(300):
        nvars = case % 4
        variables = tuple(f"x{i}" for i in range(nvars))
        operands = []
        for _ in range(2):
            # small exponent ranges give full boxes, large ones sparse products
            top = 1 + rng.below(3) if rng.below(3) else 1 + rng.below(40)
            bits, shift = 1 + rng.below(48), rng.below(48)
            integral = rng.below(2)
            terms = {}
            for _ in range(rng.below(40) if rng.below(5) else 1):
                coeff = _signed_rational(rng, bits) * (1 << shift)
                terms[tuple(rng.below(top + 1) for _ in variables)] = (
                    Fraction(coeff.numerator) if integral else coeff
                )
            operands.append(MultiPoly(variables, terms))
        a, b = operands
        _assert_product(a, b)
        _assert_product(b, a)
        products += 2
    # cancelling products: (1 + x + ... + x^(n-1)) * (x - 1) = x^n - 1, and in
    # three variables every inner coefficient of the box cancels as well
    (x,) = MultiPoly.gens(("x",))
    geometric = sum((x ** k for k in range(30)), MultiPoly.zero(("x",)))
    assert _assert_product(geometric, x - 1) == x ** 30 - 1
    _assert_product(MultiPoly.const(("x",), Fraction(-3, 7)), geometric)  # dense, one term
    uvw = ("u", "v", "w")
    u, v, w = MultiPoly.gens(uvw)
    cube = MultiPoly(uvw, {(i, j, k): 1 for i in range(5) for j in range(5) for k in range(5)})
    corners = _assert_product(cube, (u - 1) * (v - 1) * (w - 1))
    assert len(corners.terms) == 8
    assert _assert_product(MultiPoly.zero(("x",)), geometric).is_zero
    assert len(calls) > 0 and products - len(calls) > 0  # both kernels ran


def test_mul_slot_width_edge(monkeypatch):
    # every coefficient at +-max with one sign: the middle output coefficient
    # of an n-term by n-term univariate product is exactly n*max|a|*max|b|.
    # In the first two byte edges it is 2^(8*nb-1) - 1 for a slot of nb
    # bytes; in the decimal edges it is 10^(k-1) - 1 for the slot width k
    # the kernel chooses, the largest value a k-digit slot must hold.  Most
    # edges would fit word slots, so the word path is turned off here.
    monkeypatch.setattr(poly, "_WORD_MAX_BOX", 0)
    widths = _spy_widths(monkeypatch)
    (x,) = MultiPoly.gens(("x",))
    byte_edges = ((7, 31, 151), (127, 1, 1), (128, 1, 1), (16, 1 << 40, 3))
    decimal_edges = ((9, 3, 37), (9, 11, 101), (21, 143, 333), (9, (10 ** 30 - 1) // 9, 1))
    for n, ma, mb in byte_edges + decimal_edges:
        for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            a = MultiPoly(("x",), {(k,): sa * ma for k in range(n)})
            b = MultiPoly(("x",), {(k,): sb * mb for k in range(n)})
            got = _assert_product(a, b)
            assert got.terms[(n - 1,)] == sa * sb * n * ma * mb
    assert 7 * 31 * 151 == (1 << 15) - 1 and 127 == (1 << 7) - 1
    for n, ma, mb in decimal_edges:
        a = MultiPoly(("x",), {(k,): ma for k in range(n)})
        b = MultiPoly(("x",), {(k,): mb for k in range(n)})
        assert 10 ** (poly._slot_width(poly._coefficient_bound(a, b)) - 1) == n * ma * mb + 1
    assert widths and None not in widths


def test_word_slots_match_decimal_slots_and_the_pair_loop(monkeypatch):
    rng = SplitMix64(0x3047)
    products = []
    for case in range(150):
        variables = tuple(f"x{i}" for i in range(1 + case % 3))
        bits = 1 + rng.below(28)
        operands = []
        for _ in range(2):
            top = 1 + rng.below(5)
            den = 1 + rng.below(4) if rng.below(3) else 1
            terms = {
                tuple(rng.below(top + 1) for _ in variables):
                    Fraction((1 - 2 * rng.below(2)) * (1 + rng.below(1 << bits)), den)
                for _ in range(1 + rng.below(30))
            }
            operands.append(MultiPoly(variables, terms))
        for a, b in (operands, operands[::-1]):
            bound = poly._coefficient_bound(a, b)
            assert bound < 1 << 63
            words = a._mul_dense(b, _tops(a, b), None)
            assert words.terms == _termwise_product(a, b)
            _assert_stored_form(words)
            assert a._mul_dense(b, _tops(a, b), poly._slot_width(bound)) == words
            products.append((a, b, words))
    monkeypatch.setattr(poly, "_DENSE_MIN_PAIRS", float("inf"))  # every product loops
    assert all(a * b == words for a, b, words in products)


def test_word_slot_edges(monkeypatch):
    # 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657: the middle coefficient
    # of 7 terms of 7*73*127*337 by 7 of 92737*649657 is the bound, the widest
    # value a word slot holds (2^64 - 1 or 1 with the offset).  The bound
    # 8 * 2^30 * 2^30 = 2^63 no longer fits and takes decimal slots.
    assert 7 * (7 * 73 * 127 * 337) * (92737 * 649657) == (1 << 63) - 1
    calls = _spy_widths(monkeypatch)
    for n, ma, mb in ((7, 7 * 73 * 127 * 337, 92737 * 649657), (8, 1 << 30, 1 << 30)):
        for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            a = MultiPoly(("x",), {(k,): sa * ma for k in range(n)})
            b = MultiPoly(("x",), {(k,): sb * mb for k in range(n)})
            got = _assert_product(a, b)
            assert got.terms[(n - 1,)] == sa * sb * n * ma * mb
    assert calls == [(13, None)] * 4 + [(15, poly._slot_width(1 << 63))] * 4


def test_word_slots_up_to_the_box_crossover(monkeypatch):
    calls = _spy_widths(monkeypatch)
    widths = []
    for box in (poly._WORD_MAX_BOX, poly._WORD_MAX_BOX + 1):
        n = box // 2  # n + m - 1 = box
        a = MultiPoly(("x",), {(k,): 1 - 3 * (k % 2) for k in range(n)})
        b = MultiPoly(("x",), {(k,): 2 - k % 3 for k in range(box + 1 - n) if k % 3 != 2})
        b += MultiPoly(("x",), {(box - n,): 1})  # the top exponent, whatever box is
        widths.append(poly._slot_width(poly._coefficient_bound(a, b)))
        assert a * b == a._mul_dense(b, [box - 1], None) == a._mul_dense(b, [box - 1], widths[-1])
    assert calls[::3] == [(poly._WORD_MAX_BOX, None), (poly._WORD_MAX_BOX + 1, widths[1])]


def _structured_objective(chart):
    """The chart objective in the structured form of ``objective_parts``,
    4*V^2 times the Gram form that ``build_bundle`` holds, part by part."""
    interior, boundary, central, b1, b2 = functional._cone_ingredients()[:5]
    volume, perimeter, puu, pvv, puv, b1, b2 = functional._on_chart(
        chart, (interior[0], boundary[0], *central, b1, b2)
    )
    *_, numerator, denominator = functional.objective_parts(
        perimeter, volume, puu, pvv, puv, b1, b2
    )
    return RatFunc.make(numerator, denominator)


def test_structural_products_take_the_slots_their_size_calls_for(monkeypatch):
    """On the structured form of the objective, whose products are larger
    than the Gram form's, the k2 direct route forms every product in words;
    the k3 one takes words for its boxes of a few thousand slots and decimal
    for those past 10^4, whose bounds pass 2^63 as well."""
    calls = _spy_widths(monkeypatch)
    for chart, direction in ((K2_CHART, (1, -1)), (K3_CHART, (1, -1, 0))):
        f = _structured_objective(chart)
        calls.clear()
        list(poly._structural_terms(f.num, f.den, (direction,)))
        words = sorted(box for box, width in calls if width is None)
        decimal_boxes = sorted(box for box, width in calls if width is not None)
        if chart is K2_CHART:
            assert len(words) == 4 and decimal_boxes == []
        else:
            assert words and 3000 < min(words) <= max(words) <= poly._WORD_MAX_BOX
            assert decimal_boxes and min(decimal_boxes) > 10_000


def test_mul_past_the_int_digit_limit_takes_the_loop(monkeypatch):
    # slots wider than sys.get_int_max_str_digits() could not be read back
    # with int(), so such a product is formed term pair by term pair
    rng = SplitMix64(0xB16)
    big = [rng.below(1 << 62) * 10 ** 5000 + 1 + rng.below(1 << 62) for _ in range(8)]
    a = MultiPoly(BG, {(k % 2, k // 2): (-1) ** k * c for k, c in enumerate(big)})
    b = MultiPoly(BG, {(k // 2, k % 2): c for k, c in enumerate(reversed(big))})
    assert len(a.terms) * len(b.terms) >= poly._DENSE_MIN_PAIRS
    assert poly._slot_width(poly._coefficient_bound(a, b)) > sys.get_int_max_str_digits() > 0
    calls = _spy_dense(monkeypatch)
    got = _assert_product(a, b)
    assert calls == []
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit: the same product goes dense
    try:
        assert (a * b).terms == got.terms and len(calls) == 1
    finally:
        sys.set_int_max_str_digits(limit)


def test_products_ignore_the_thread_decimal_context():
    calA = build_bundle(K2_CHART).calA
    edges = [
        MultiPoly(("x",), {(k,): s * 999_999 for k in range(21)}) for s in (1, -1)
    ]
    with decimal.localcontext() as context:
        context.prec = 5
        context.clear_traps()
        context.clear_flags()
        _assert_product(calA.num, calA.den)
        _assert_product(*edges)
        assert decimal.getcontext() is context and context.prec == 5
        assert not any(context.flags.values())


def test_calA_k3_product_takes_the_dense_kernel(monkeypatch):
    calA = build_bundle(K3_CHART).calA
    calls = _spy_dense(monkeypatch)
    dense = calA.num * calA.den
    assert calls == [(len(calA.num.terms), len(calA.den.terms))]
    monkeypatch.setattr(poly, "_DENSE_MIN_PAIRS", float("inf"))
    assert dense.terms == (calA.num * calA.den).terms
    assert len(calls) == 1


def test_kernel_rule_boundaries(monkeypatch):
    calls = _spy_dense(monkeypatch)
    X = ("x",)

    def poly_at(exponents):
        return MultiPoly(X, {(e,): 2 * i - 3 for i, e in enumerate(exponents)})

    full = poly_at(range(4))
    _assert_product(full, poly_at((0, 4, 8, 12)))  # 16 pairs, box 16: dense
    assert len(calls) == 1
    _assert_product(full, poly_at((0, 4, 8, 13)))  # 16 pairs, box 17: loop
    _assert_product(poly_at(range(3)), poly_at(range(5)))  # 15 pairs, box 7: loop
    assert len(calls) == 1


def test_sparse_high_degree_product_takes_the_loop(monkeypatch):
    a = MultiPoly(BG, {(k << 20, k): 2 * k - 3 for k in range(4)})
    b = MultiPoly(BG, {(k << 20, 0): Fraction(1, k + 1) for k in range(4)})
    assert len(a.terms) * len(b.terms) == poly._DENSE_MIN_PAIRS
    tracemalloc.start()
    try:
        got = _assert_product(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the 4*(6*2^20+1)-slot box would take far more

    def refuse(self, other, *shape):
        raise AssertionError("dense kernel taken")

    monkeypatch.setattr(MultiPoly, "_mul_dense", refuse)
    assert (a * b).terms == got.terms


def test_power_skips_the_product_by_one(monkeypatch):
    beta, gamma = gens()
    p = 1 + beta - 2 * gamma
    expected = [MultiPoly.const(BG, 1), p, p * p, p * p * p, p * p * p * p]
    products = []
    mul = MultiPoly.__mul__

    def counting(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    # p^2 = p*p, p^3 = p*(p*p), p^4 = (p*p)*(p*p): never a product by 1
    for n, (want, count) in enumerate(zip(expected, (0, 0, 1, 2, 2))):
        products.clear()
        assert p ** n == want
        assert len(products) == count


def test_coefficients_all_nonneg():
    beta, _ = gens()
    ok, witness = coefficients_all_nonneg(1 + 3 * beta)
    assert ok and witness is None
    ok, witness = coefficients_all_nonneg(1 - beta)
    assert not ok
    coeff, exps = witness
    assert coeff == -1 and exps == (1, 0)


def test_nonneg_witness_ignores_insertion_order():
    terms = [((0, 0), -3), ((1, 1), -3), ((2, 0), -3), ((0, 2), 1), ((1, 0), -1)]
    forward = MultiPoly(BG, dict(terms))
    backward = MultiPoly(BG, dict(reversed(terms)))
    assert list(forward.terms) != list(backward.terms)
    expected = (False, (Fraction(-3), (2, 0)))  # beta^2 is grevlex-largest
    assert coefficients_all_nonneg(forward) == expected
    assert coefficients_all_nonneg(backward) == expected


def test_positive_coefficients_imply_positive_values():
    rng = SplitMix64(5)
    beta, gamma = gens()
    p = 1 + 3 * beta + beta ** 2 * gamma
    assert coefficients_all_nonneg(p)[0]
    for _ in range(20):
        assert p.evaluate(rng.point(2)) > 0


def test_canonicalization_idempotent():
    rng = SplitMix64(99)
    for _ in range(30):
        terms_n = {(rng.below(4), rng.below(4)): Fraction(rng.below(19) - 9, 1 + rng.below(6)) for _ in range(5)}
        terms_d = {(rng.below(3), rng.below(3)): Fraction(rng.below(19) - 9, 1 + rng.below(6)) for _ in range(4)}
        num = MultiPoly(BG, terms_n)
        den = MultiPoly(BG, terms_d)
        if den.is_zero:
            continue
        f = RatFunc.make(num, den)
        again = RatFunc.make(f.num, f.den)
        assert f.num == again.num and f.den == again.den


def test_cross_multiplication_equality_and_inverse():
    beta, gamma = gens()
    a = RatFunc.make(1 + beta, 1 + gamma)
    b = RatFunc.make((1 + beta) * (2 + beta), (1 + gamma) * (2 + beta))
    assert a.equals(b)
    # equivalence is transitive across differently padded representatives
    c = RatFunc.make(
        (1 + beta) * (2 + beta) * (3 + gamma),
        (1 + gamma) * (2 + beta) * (3 + gamma),
    )
    assert b.equals(c) and a.equals(c)


def test_variable_mismatch_rejected():
    beta, _ = gens()
    other = MultiPoly.variable(("alpha",), "alpha")
    with pytest.raises(VariableMismatchError):
        beta + other
    with pytest.raises(VariableMismatchError):
        RatFunc.from_poly(beta).equals(RatFunc.from_poly(other))


def test_denominator_vanishing_evaluation():
    beta, gamma = gens()
    f = RatFunc.make(MultiPoly.const(BG, 1), beta - gamma)
    with pytest.raises(ZeroDivisionError):
        f.evaluate((1, 1))
    assert f.evaluate((2, 1)) == 1


def test_render_canonical_grevlex_order():
    beta, gamma = gens()
    p = gamma + beta + beta * gamma ** 2 + 3
    assert p.render() == "beta*gamma^2 + beta + gamma + 3"
