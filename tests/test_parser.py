from __future__ import annotations

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from kcert import certify, exprparse
from kcert.exprparse import (
    MAX_EXPANSION,
    MAX_EXPONENT,
    MAX_NESTING,
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


def test_nesting_limit():
    deepest = "(" * MAX_NESTING + "beta" + ")" * MAX_NESTING
    assert parse_expression(deepest, BG) == MultiPoly.variable(BG, "beta")
    with pytest.raises(ParseError, match="nest deeper") as info:
        parse_expression("2 (" + deepest + ")", BG)
    assert (info.value.line, info.value.column) == (1, 3 + MAX_NESTING)  # the 65th "("


# six terms of degree 73 in beta and 73 in gamma, to the 7th power: 540 terms
_SIXTH = "(beta^64 beta^9 + gamma^64 gamma^9 + beta + gamma + beta gamma + 1)^7"
# 32 * {} terms, squared: each squaring of the power is bounded by its own
# operands, so the last one forms (32 * {})^2 term pairs in a box far larger
_SQUARE = "((1 + beta^64)^31 (1 + gamma^64)^{})^2"


def test_expansion_bound_is_inclusive_and_positioned():
    """min(term pairs, exponent box) may reach MAX_EXPANSION, not pass it."""
    assert MAX_EXPANSION == 512 * 512
    beta, gamma = MultiPoly.gens(BG)
    at_limit = _SQUARE.format(15)  # 512^2 term pairs
    expected = ((1 + beta ** 64) ** 31 * (1 + gamma ** 64) ** 15) ** 2
    assert parse_expression(at_limit, BG) == expected
    over = _SQUARE.format(16)  # 544^2 term pairs, refused at the exponent 2
    with pytest.raises(ParseError, match=f"= 295936 exceeds the {MAX_EXPANSION} limit") as info:
        parse_expression(over, BG)
    assert (info.value.line, info.value.column) == (1, len(over))
    # 540^2 term pairs over a 1023 x 1023 box, refused at the '*'
    sixth = parse_expression(_SIXTH, BG)
    assert len(sixth.numerators) == 540
    with pytest.raises(ParseError, match=f"= 291600 exceeds the {MAX_EXPANSION} limit") as info:
        parse_expression(_SIXTH + " * " + _SIXTH, BG)
    assert (info.value.line, info.value.column) == (1, len(_SIXTH) + 2)


def test_power_bound_counts_the_pairs_each_squaring_forms():
    """A sparse power is bounded by the products repeated squaring forms, not
    by #terms^exponent: the 65-term power below squares at most 33 terms."""
    beta, gamma = MultiPoly.gens(BG)
    text = "(beta^64*gamma^64 + 1)^64"
    assert parse_expression(text, BG) == (beta ** 64 * gamma ** 64 + 1) ** 64
    # its last squaring forms 561^2 term pairs in a 4097 x 4097 box
    with pytest.raises(ParseError, match="= 314721 exceeds") as info:
        parse_expression("(beta^64*gamma^64 + beta + 1)^64", BG)
    assert (info.value.line, info.value.column) == (1, 31)


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as info:
        parse_expression("(1 + beta", BG)
    assert info.value.line == 1 and info.value.column >= 1


@pytest.mark.parametrize(
    "text, first_line, message, line, column",
    [
        # a tab or carriage return is one column, and only '\n' starts a line
        ("beta +\n\t\t2 *\r beta\r\t+ 3 $ 4", 1, "unexpected character '$'", 2, 18),
        ("2 beta^", 1, "expected a natural-number exponent after '^'", 1, 8),
        ("beta + 1)\n", 1, "trailing input ')'", 1, 9),
        # at the end of input, past the trailing blanks
        ("(beta + 1\n  + beta^2 \t", 4, "expected ')'", 5, 13),
    ],
    ids=["bad-after-tab-and-cr", "caret-at-end-of-input", "trailing-input", "unclosed-group"],
)
def test_error_positions_are_pinned(text, first_line, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_expression(text, ("beta",), first_line)
    assert str(info.value) == f"{message} (line {line}, column {column})"
    assert (info.value.line, info.value.column) == (line, column)


def test_fixture_error_position_counts_file_lines(tmp_path: Path):
    path = tmp_path / "x.fix"
    path.write_text(
        "[meta]\nname = x\nvars = beta gamma\n\n[numerator]\n1 + beta\n"
        "  + gamma^2\n + 3 beta delta\n[denominator]\n1\n"
    )
    with pytest.raises(FixtureError) as info:
        load_fixture(path)
    # line 3 of a [numerator] section whose first line is line 6 of the file
    assert str(info.value) == "x: [numerator] undeclared symbol 'delta' (line 8, column 11)"
    assert (info.value.__cause__.line, info.value.__cause__.column) == (8, 11)


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


def _generated_expression(rng: SplitMix64, depth: int) -> tuple[str, MultiPoly]:
    """Display text and the polynomial it denotes, built by plain products,
    one factor at a time."""
    total = MultiPoly.zero(BG)
    pieces = []
    for index in range(1 + rng.below(4)):
        sign = -1 if (index or rng.below(2)) and rng.below(2) else 1
        if index:
            pieces.append(" - " if sign < 0 else " + ")
        elif sign < 0:
            pieces.append("-")
        value = MultiPoly.const(BG, 1)
        for position in range(1 + rng.below(5)):
            kind = rng.below(5) if depth else rng.below(4)
            if kind == 0:
                number = rng.below(4) if rng.below(4) == 0 else rng.below(10 ** (1 + rng.below(18)))
                text, base = str(number), MultiPoly.const(BG, number)
            elif kind < 4:
                name = BG[kind % 2]
                text, base = name, MultiPoly.variable(BG, name)
            else:
                inner, base = _generated_expression(rng, depth - 1)
                text = f"({inner})"
            if rng.below(3) == 0:
                if kind == 4:
                    exponent = rng.below(4)
                else:
                    exponent = rng.below(7) if rng.below(4) else MAX_EXPONENT - rng.below(2)
                text, base = f"{text}^{exponent}", base ** exponent
            if position:
                pieces.append((" ", "*", " * ")[rng.below(3)])
            pieces.append(text)
            value = value * base
        total = total + value.scale(sign)
    return "".join(pieces), total


def test_generated_expressions_parse_to_plain_products():
    """Folded runs of numbers and symbol powers expand to the same polynomial
    as products formed one factor at a time, zero factors and ^0 included."""
    rng = SplitMix64(0xF01D)
    for _ in range(300):
        text, reference = _generated_expression(rng, depth=2)
        assert parse_expression(text, BG) == reference, text


# sha256 of every shipped fixture's parsed numerator and denominator, as
# parsed one factor at a time; the fixture files are data and never change
FIXTURE_PARSE_DIGESTS = {
    "k2/calA": "86ccea06eebd3099",
    "k2/d2_antidiag": "e90117a1fbb6e797",
    "k2/F_beta": "5be55073fb90f34e",
    "k2/P": "bef6e8844fd7ea36",
    "k2/Q": "09fab977b9ad8b23",
    "k3/F1": "cd5c0aea7160cd85",
    "k3/F2": "e0952e167c4fdb12",
    "k3/A": "eeebb44d94c93895",
    "k3/B": "2c5efc7622e1ea2d",
    "k3/C": "022cb0645983ee48",
    "k3/calA": "cc3bd0b76db7b09e",
    "k3/d2_alphabeta": "93a8055baa99a71e",
}


def test_shipped_fixtures_parse_to_recorded_polynomials():
    digests = {}
    for chart_id, names in certify.FIXTURE_NAMES.items():
        for name in names:
            path = certify.FIXTURES_DIR / chart_id / f"{name}.fix"
            meta, _ = load_fixture(path)
            sections = exprparse._read_sections(path.read_text(encoding="utf-8"))
            texts = ["\n".join(sections[s][1]).strip() for s in ("numerator", "denominator")]
            parts = [parse_expression(text, meta.variables) for text in texts]
            text = repr([(p.den, sorted(p.numerators.items())) for p in parts])
            digests[f"{chart_id}/{name}"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digests == FIXTURE_PARSE_DIGESTS


_GROUP = "(((beta^64)^64)^63) "  # one monomial of degree 258048 in beta


@pytest.mark.parametrize(
    "text, message, column",
    [
        ("2 beta " + "7" * 5000 + " gamma", "Exceeds the limit (4300 digits)", 8),
        ("3 beta gamma^", "expected a natural-number exponent after '^'", 14),
        ("3 beta^2 gamma^65 beta", "exponent 65 exceeds the 64 limit", 16),
        # 65 groups and 64 folded beta^64 reach 2^24 at the last beta
        (_GROUP * 65 + "gamma " + "beta^64 " * 64 + "beta",
         "degree 16777216 in 'beta' reaches the 2^24 exponent limit", 1811),
        (_GROUP * 65 + "gamma * " + "beta^64 * " * 63 + " beta^64 * beta",
         "degree 16777216 in 'beta' reaches the 2^24 exponent limit", 1937),
        (_GROUP * 65 + "beta^63 " + _GROUP,
         "degree 17031231 in 'beta' reaches the 2^24 exponent limit", 1309),
    ],
    ids=["digit-limit", "caret-at-end", "exponent-65", "guard-juxtaposed", "guard-star",
         "guard-group"],
)
def test_folded_runs_keep_positioned_errors(text, message, column):
    """Positions and messages as when every factor was its own product."""
    with pytest.raises(ParseError) as info:
        parse_expression(text, BG)
    assert str(info.value).startswith(message)
    assert (info.value.line, info.value.column) == (1, column)


def test_zero_factor_stops_the_exponent_guard():
    """A product with a zero factor is zero, as one formed factor by factor is,
    however far its other factors' degrees reach."""
    for zero in ("0 ", "(beta - beta) "):
        assert parse_expression(_GROUP * 65 + zero + "beta^64 " * 70, BG).is_zero


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
    zero = RatFunc.from_poly(MultiPoly.zero(BG))
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
    """The exact check does not depend on the samples: with one sample, EXACT
    and SCALED, and their constants, are those of 100 samples.  A pair that
    fails the check reads as the one-sample reference does."""
    family = _comparison_family(0xFACE, trials=3)
    full = [compare_against_fixture(computed, fixture) for _, computed, fixture in family]
    monkeypatch.setattr(exprparse, "COMPARISON_SAMPLES", 1)
    kinds = {}
    for (case, computed, fixture), at_100 in zip(family, full):
        verdict = compare_against_fixture(computed, fixture)
        if verdict.kind in ("EXACT", "SCALED") or at_100.kind in ("EXACT", "SCALED"):
            assert verdict == at_100, case
        else:
            assert verdict == _reference_compare(computed, fixture), case
        kinds.setdefault(case, set()).add(verdict.kind)
    # the difference vanishes at the only point, and the exact check refutes it
    assert kinds["first point agrees"] == {"SAMPLED_ONLY"}
    assert kinds["zero at first point"] == {"SAMPLED_ONLY"}
    # the only point is skipped; the exact check decides, with the constant if any
    assert kinds["fixture undefined first, exact"] == {"EXACT"}
    assert kinds["fixture undefined first, scaled"] == {"SCALED"}
    assert kinds["both undefined first"] == {"SCALED"}
    assert kinds["fixture undefined first, mismatch"] == {"SAMPLED_ONLY"}
