from __future__ import annotations

from fractions import Fraction
from math import gcd

import tracemalloc

import pytest

from kcert import poly, univar
from kcert.delpezzo import K2_CHART, K3_CHART
from kcert.exprparse import parse_expression
from kcert.functional import build_bundle
from kcert.poly import (
    MultiPoly,
    PiPowerMismatchError,
    PiValue,
    RatFunc,
    VariableMismatchError,
    coefficients_all_nonneg,
    directional_derivative,
    directional_second_derivative,
    partial_derivative,
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
    assert partial_derivative(beta ** 2 * gamma, "beta") == 2 * beta * gamma
    assert partial_derivative(MultiPoly.const(BG, 5), "gamma").is_zero
    with pytest.raises(ValueError):
        partial_derivative(beta, "delta")


def test_directional_second_derivative_quadratic():
    beta, gamma = gens()
    f = RatFunc.from_poly(beta ** 2 + gamma ** 2)
    d2 = directional_second_derivative(f, (1, -1))
    assert d2.equals(RatFunc.const(BG, 4))


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


@pytest.mark.parametrize("chart, direction", [(K2_CHART, (1, -1)), (K3_CHART, (1, -1, 0))])
def test_second_derivative_numerator_is_the_literal_form(chart, direction):
    f = build_bundle(chart).calA
    n, d = f.num, f.den
    n_v = directional_derivative(n, direction)
    d_v = directional_derivative(d, direction)
    n_vv = directional_derivative(n_v, direction)
    d_vv = directional_derivative(d_v, direction)
    literal = n_vv * d * d - 2 * n_v * d_v * d - n * d_vv * d + 2 * n * d_v * d_v
    d2 = directional_second_derivative(f, direction)
    assert d2.num == literal
    assert d2.den == d * d * d


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


def test_substitute_zero_image_takes_the_expansion(monkeypatch):
    rng = SplitMix64(32)
    target = ("t",)
    (t,) = MultiPoly.gens(target)
    for images in (
        {"beta": 0, "gamma": t},
        {"beta": MultiPoly.zero(target), "gamma": 2 * t},
        {"beta": 1 + t, "gamma": t},
    ):
        p = _random_poly(rng, BG) + 5
        assert p.substitute(images, target) == _expanded_substitution(p, images, target)
        with monkeypatch.context() as patch:
            _forbid_products(patch)
            with pytest.raises(_NoProducts):
                p.substitute(images, target)


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


def test_exponent_packing_overflow_is_rejected():
    with pytest.raises(ValueError, match="exponent limit"):
        parse_expression("(((beta^64)^64)^64)^64", BG)
    below = MultiPoly(BG, {(1 << 23, 0): 1}) * MultiPoly(BG, {((1 << 23) - 1, 2): 1})
    assert below.terms == {((1 << 24) - 1, 2): 1}
    with pytest.raises(ValueError, match="'gamma'"):
        MultiPoly(BG, {(0, 1 << 23): 1}) * MultiPoly(BG, {(1, 1 << 23): 1})


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
        assert (f * f).num.den == 1 and (f.num * f.den).den == 1
    calA = build_bundle(K2_CHART).calA
    assert calA.num.den == 1 and calA.den.den == 1


def test_rational_accessors_return_fractions_for_integer_polynomials():
    # callers divide these with "/", which on two ints would give a float
    p = MultiPoly(BG, {(1, 0): 3, (0, 0): 2})
    assert p.den == 1 and all(type(c) is int for c in p.terms.values())
    for value in (
        p.leading_coefficient(),
        *univar.from_multipoly(MultiPoly(("x",), {(0,): 4, (2,): -1})),
    ):
        assert type(value) is Fraction
    assert p.leading_coefficient() / 2 == Fraction(3, 2)


def _spy_dense(monkeypatch):
    calls = []
    dense = MultiPoly._mul_dense

    def spy(self, other, box):
        calls.append((len(self.terms), len(other.terms)))
        return dense(self, other, box)

    monkeypatch.setattr(MultiPoly, "_mul_dense", spy)
    return calls


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


def test_mul_slot_width_edge():
    # every coefficient at +-max with one sign: the middle output coefficient
    # of an n-term by n-term univariate product is exactly n*max|a|*max|b|,
    # which for the first two cases is 2^(8*nb-1) - 1 at the chosen slot width
    (x,) = MultiPoly.gens(("x",))
    for n, ma, mb in ((7, 31, 151), (127, 1, 1), (128, 1, 1), (16, 1 << 40, 3)):
        for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
            a = MultiPoly(("x",), {(k,): sa * ma for k in range(n)})
            b = MultiPoly(("x",), {(k,): sb * mb for k in range(n)})
            got = _assert_product(a, b)
            assert got.terms[(n - 1,)] == sa * sb * n * ma * mb
    assert 7 * 31 * 151 == (1 << 15) - 1 and 127 == (1 << 7) - 1


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

    def refuse(self, other, box):
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
    product = a * (1 / a)
    assert product.equals(RatFunc.const(BG, 1))
    # equivalence is transitive across differently padded representatives
    c = RatFunc.make(
        (1 + beta) * (2 + beta) * (3 + gamma),
        (1 + gamma) * (2 + beta) * (3 + gamma),
    )
    assert b.equals(c) and a.equals(c)


def test_ratfunc_zero_pow_zero_is_one():
    zero = RatFunc.const(BG, 0)
    assert (zero ** 0).equals(RatFunc.const(BG, 1))


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


def test_pi_scalar_bookkeeping():
    a = PiValue(Fraction(265, 1008), -2)
    b = PiValue(Fraction(1, 2), -2)
    assert (a + b).pi_power == -2
    with pytest.raises(PiPowerMismatchError):
        a + PiValue(Fraction(1), 0)
    # canonical zero
    assert PiValue(Fraction(0), 5).pi_power == 0
    assert (a + PiValue(Fraction(0), 3)).value == a.value
    assert (a * PiValue(Fraction(2), 2)).pi_power == 0


def test_render_canonical_grevlex_order():
    beta, gamma = gens()
    p = gamma + beta + beta * gamma ** 2 + 3
    assert p.render() == "beta*gamma^2 + beta + gamma + 3"
