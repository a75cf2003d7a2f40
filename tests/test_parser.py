from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from kcert import exprparse
from kcert.exprparse import (
    ComparisonVerdict,
    FixtureError,
    ParseError,
    compare_against_fixture,
    load_fixture,
    parse_expression,
)
from kcert.poly import MultiPoly, RatFunc
from kcert.sampling import DEFAULT_SEED, SplitMix64

BG = ("beta", "gamma")


def test_leading_term_of_display():
    p = parse_expression("16 beta^6 (1 + gamma)^4", BG)
    beta, gamma = MultiPoly.gens(BG)
    assert p == 16 * beta ** 6 * (1 + gamma) ** 4
    # five gamma-terms, each multiplied by beta^6
    assert len(p.terms) == 5
    assert all(e[0] == 6 for e in p.terms)


def test_power_zero():
    assert parse_expression("(1+beta)^0", BG) == MultiPoly.const(BG, 1)


def test_digit_sum_evaluation():
    p = parse_expression("3 + 28 gamma + 96 gamma^2", BG)
    assert p.evaluate((Fraction(0), Fraction(1))) == 127


def test_juxtaposition_equals_explicit_star():
    a = parse_expression("3 beta (1 + gamma) beta", BG)
    b = parse_expression("3*beta*(1 + gamma)*beta", BG)
    assert a == b


def test_unary_minus_at_start_only():
    p = parse_expression("-1 - 15 beta", BG)
    assert p.evaluate((1, 0)) == -16
    q = parse_expression("2 + (-1 + beta)", BG)
    assert q.evaluate((3, 0)) == 4
    with pytest.raises(ParseError):
        parse_expression("2 * -3", BG)


def test_undeclared_symbol_and_position():
    with pytest.raises(ParseError) as info:
        parse_expression("1 +\n delta", BG)
    assert info.value.line == 2
    assert "delta" in str(info.value)


def test_exponent_overflow():
    with pytest.raises(ParseError):
        parse_expression("beta^65", BG)
    assert parse_expression("beta^64", BG).total_degree() == 64


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as info:
        parse_expression("(1 + beta", BG)
    assert info.value.line == 1 and info.value.column >= 1


def _random_poly(rng: SplitMix64, max_terms: int = 30) -> MultiPoly:
    terms = {}
    for _ in range(1 + rng.below(max_terms)):
        exps = (rng.below(9), rng.below(9))
        coeff = rng.below(2_000_001) - 1_000_000
        if coeff:
            terms[exps] = Fraction(coeff)
    return MultiPoly(BG, terms)


def test_render_parse_round_trip():
    rng = SplitMix64(0xC0FFEE)
    for _ in range(200):
        p = _random_poly(rng)
        assert parse_expression(p.render(), BG) == p


def test_fuzzed_tokens_parse_or_positioned_error():
    rng = SplitMix64(31337)
    alphabet = ["beta", "gamma", "7", "12", "+", "-", "*", "^", "(", ")", " ", "\n"]
    for _ in range(400):
        text = "".join(
            alphabet[rng.below(len(alphabet))] for _ in range(rng.below(24))
        )
        try:
            parse_expression(text, BG)
        except ParseError as exc:
            assert exc.line >= 1 and exc.column >= 1
        # any other exception type is a bug


def test_load_fixture_roundtrip(tmp_path: Path):
    path = tmp_path / "toy.fix"
    path.write_text(
        "[meta]\nname = toy\nvars = beta gamma\nprovenance = test\n"
        "[numerator]\n1 + beta\n[denominator]\n2 + gamma\n"
    )
    meta, rf = load_fixture(path)
    assert meta.name == "toy"
    assert rf.evaluate((1, 0)) == 1


def test_load_fixture_default_denominator(tmp_path: Path):
    path = tmp_path / "toy.fix"
    path.write_text("[meta]\nname = t\nvars = beta gamma\n[numerator]\n3 beta\n")
    _, rf = load_fixture(path)
    assert rf.den == MultiPoly.const(BG, 1)


def test_load_fixture_missing_section(tmp_path: Path):
    path = tmp_path / "broken.fix"
    path.write_text("[meta]\nname = b\nvars = beta\n")
    with pytest.raises(FixtureError):
        load_fixture(path)


def test_load_fixture_reports_name_on_parse_failure(tmp_path: Path):
    path = tmp_path / "bad.fix"
    path.write_text("[meta]\nname = badone\nvars = beta\n[numerator]\n1 + + beta\n")
    with pytest.raises(FixtureError) as info:
        load_fixture(path)
    assert "badone" in str(info.value)


def test_compare_exact_after_common_factor():
    beta, gamma = MultiPoly.gens(BG)
    base = RatFunc.make(1 + beta + gamma, 2 + beta)
    padded = RatFunc.make((1 + beta + gamma) * (1 + beta), (2 + beta) * (1 + beta))
    assert compare_against_fixture(padded, base).kind == "EXACT"


def test_compare_scaled_and_mismatch():
    beta, gamma = MultiPoly.gens(BG)
    base = RatFunc.make(1 + beta, 1 + gamma)
    scaled = RatFunc.make((1 + beta) * 24, 1 + gamma)
    verdict = compare_against_fixture(scaled, base)
    assert verdict.kind == "SCALED" and verdict.constant == 24
    other = RatFunc.make(1 + 2 * beta, 1 + gamma)
    verdict = compare_against_fixture(other, base)
    assert verdict.kind == "MISMATCH"
    assert verdict.witness_point is not None


def _reference_compare(computed: RatFunc, fixture: RatFunc) -> ComparisonVerdict:
    """The sample-everything classifier: all points first, exact checks after."""
    rng = SplitMix64(DEFAULT_SEED)
    dimension = len(computed.variables)
    ratios: list[Fraction] = []
    all_equal = True
    witness = None
    for _ in range(exprparse.COMPARISON_SAMPLES):
        point = rng.point(dimension)
        try:
            left = computed.evaluate(point)
            right = fixture.evaluate(point)
        except ZeroDivisionError:
            continue
        if left != right:
            all_equal = False
            if witness is None:
                witness = (point, left, right)
        if right != 0:
            ratios.append(left / right)
    if all_equal:
        if computed.equals(fixture):
            return ComparisonVerdict("EXACT")
        return ComparisonVerdict("SAMPLED_ONLY")
    if ratios and ratios[0] > 0 and all(r == ratios[0] for r in ratios):
        constant = ratios[0]
        if computed.equals(RatFunc.make(fixture.num.scale(constant), fixture.den)):
            return ComparisonVerdict("SCALED", constant=constant)
    assert witness is not None
    return ComparisonVerdict(
        "MISMATCH", witness_point=witness[0], witness_values=(witness[1], witness[2])
    )


def _comparison_family(seed: int, trials: int) -> list[tuple[str, RatFunc, RatFunc]]:
    """Labelled (case, computed, fixture) pairs around one vanishing line.

    ``vanish`` is zero at the first comparison point, so a difference carrying
    it agrees there, and a denominator carrying it raises there.
    """
    beta, _ = MultiPoly.gens(BG)
    vanish = beta - SplitMix64(DEFAULT_SEED).point(len(BG))[0]
    one = MultiPoly.const(BG, 1)
    zero = RatFunc.const(BG, 0)
    rng = SplitMix64(seed)

    def nonzero_poly() -> MultiPoly:
        p = _random_poly(rng, max_terms=5)
        return p if not p.is_zero else one

    family = []
    for _ in range(trials):
        p, q, r, s = (nonzero_poly() for _ in range(4))
        c = rng.rational()
        if c == 1:
            c = Fraction(7, 3)
        fixture = RatFunc.make(p, q)
        off_line = RatFunc.make(p + vanish * s, q)
        undefined_first = RatFunc.make(p * vanish, q * vanish)
        family += [
            ("exact", RatFunc.make(p * r, q * r), fixture),
            ("scaled", RatFunc.make(p.scale(c), q), fixture),
            ("negative", RatFunc.make(p.scale(-c), q), fixture),
            ("first point agrees", off_line, fixture),
            ("unrelated", RatFunc.make(r, q), fixture),
            ("zero fixture", fixture, zero),
            ("zero both", zero, zero),
            ("zero at first point", RatFunc.make(vanish * s, q), zero),
            ("fixture undefined first, exact", RatFunc.make(p, q), undefined_first),
            ("fixture undefined first, scaled", RatFunc.make(p.scale(c), q), undefined_first),
            ("fixture undefined first, mismatch", off_line, undefined_first),
            ("both undefined first", RatFunc.make(p.scale(c), q * vanish), RatFunc.make(p, q * vanish)),
        ]
    return family


def test_compare_matches_sample_everything_reference():
    kinds = {}
    for case, computed, fixture in _comparison_family(0x5EED, trials=4):
        verdict = compare_against_fixture(computed, fixture)
        assert verdict == _reference_compare(computed, fixture), case
        kinds.setdefault(case, set()).add(verdict.kind)
    assert kinds["exact"] == {"EXACT"}
    assert kinds["scaled"] == {"SCALED"}
    assert kinds["negative"] == {"MISMATCH"}
    assert kinds["first point agrees"] == {"MISMATCH"}
    assert kinds["zero fixture"] == {"MISMATCH"}
    assert kinds["zero both"] == {"EXACT"}
    assert kinds["fixture undefined first, exact"] == {"EXACT"}
    assert kinds["fixture undefined first, scaled"] == {"SCALED"}
    assert kinds["both undefined first"] == {"SCALED"}


def test_compare_matches_reference_with_one_sample(monkeypatch):
    monkeypatch.setattr(exprparse, "COMPARISON_SAMPLES", 1)
    kinds = {}
    for case, computed, fixture in _comparison_family(0xFACE, trials=3):
        verdict = compare_against_fixture(computed, fixture)
        assert verdict == _reference_compare(computed, fixture), case
        kinds.setdefault(case, set()).add(verdict.kind)
    # the difference vanishes at the only point, and the exact check refutes it
    assert kinds["first point agrees"] == {"SAMPLED_ONLY"}
    assert kinds["zero at first point"] == {"SAMPLED_ONLY"}
    # with the only point skipped nothing is sampled, and the exact check decides
    assert kinds["fixture undefined first, exact"] == {"EXACT"}
    assert kinds["fixture undefined first, mismatch"] == {"SAMPLED_ONLY"}
