"""Parser for hand-transcribed polynomial displays, and fixture comparison.

Grammar (whitespace and line breaks insignificant, juxtaposition multiplies):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*'? factor)*
    factor := base ('^' nat)?
    base   := nat | symbol | '(' expr ')'
    nat    := [0-9]+
    symbol := [A-Za-z_][A-Za-z0-9_]*

Text is ASCII: a digit, letter or space of any other script is an unexpected
character.  A unary minus is accepted only at the start of an expression or
parenthesis group.  Exponents above 64 are rejected, and so is a '(' that
would open a 65th group inside others (``MAX_NESTING``).  Those bound degrees;
work is bounded by refusing a product of groups or a group's power whose term
pairs (#terms^exponent for a power) and exponent box both exceed
``MAX_EXPANSION``.  Syntax errors carry line/column (in a fixture, the line of
the file), and so do the arithmetic's limits: a literal longer than the
interpreter's int-string digit limit, or a product whose degree reaches the
polynomial exponent guard.

Expansion is cheap for transcribed displays, which are mostly sums of
``coefficient * symbol powers * (group)`` terms: within a term, numbers and
symbol powers fold into one monomial as they are read, so the only
polynomial products are those between parenthesised groups and one by the
folded monomial; an expression's terms are summed into one table.

Fixture files hold one transcribed display each::

    [meta]
    name = calA_k2
    vars = beta gamma
    provenance = free text
    [numerator]
    3 (3 + 28 gamma + ...)
    [denominator]
    1 + 10 gamma + ...

Each section appears once.  The denominator section may be omitted or empty
(defaults to 1).  Comparison against pipeline output reports EXACT
(cross-multiplication identity), SCALED (equal up to a positive rational
constant, constant reported), SAMPLED_ONLY (agrees on 100 deterministic
samples but not symbolically: flags a transcription or convention issue), or
MISMATCH with a witness point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import prod
from operator import add, mul
from pathlib import Path
from typing import NamedTuple, Sequence

from .poly import _PACK_BITS, MultiPoly, RatFunc
from .sampling import DEFAULT_SEED, SplitMix64

MAX_EXPONENT = 64
MAX_NESTING = 64  # open groups at once; the shipped fixtures nest at most 4 deep
MAX_EXPANSION = 2 ** 18  # min(term pairs, exponent box); the shipped fixtures reach 4096
COMPARISON_SAMPLES = 100


class ParseError(ValueError):
    """Syntax or symbol error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _Token(NamedTuple):
    kind: str  # NAT, SYMBOL, OP, END
    text: str
    line: int
    column: int


# ASCII only: a digit or letter of another script is an unexpected character
_TOKEN = re.compile(
    r"(?P<NAT>[0-9]+)|(?P<SYMBOL>[A-Za-z_][A-Za-z0-9_]*)|(?P<OP>[-+*^()])"
    r"|(?P<NEWLINE>\n)|[ \t\r\f\v]+|(?P<BAD>.)",
    re.DOTALL,
)


def _tokenize(text: str, first_line: int = 1) -> list[_Token]:
    """Tokens with 1-based positions; ``first_line`` is the line ``text`` starts on."""
    tokens: list[_Token] = []
    append = tokens.append
    # tuple.__new__ skips the NamedTuple's Python-level __new__, about a
    # fifth of the loop on a long display
    new = tuple.__new__
    line, line_start = first_line, 0
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind is None:
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, match.end()
        elif kind == "BAD":
            raise ParseError(
                f"unexpected character {match.group()!r}", line, match.start() - line_start + 1
            )
        else:
            append(new(_Token, (kind, match.group(), line, match.start() - line_start + 1)))
    tokens.append(_Token("END", "", line, len(text) - line_start + 1))
    return tokens


def _degrees(p: MultiPoly) -> list[int]:
    return [max(e) for e in zip(*p.numerators)]  # per variable; [] for zero


def _bound(token: _Token, pairs: int, degrees) -> None:
    """Refuse, at ``token``, to form a product of these ``degrees`` whose term
    pairs and exponent box both exceed ``MAX_EXPANSION``."""
    size = min(pairs, prod(d + 1 for d in degrees))
    if size > MAX_EXPANSION:
        raise ParseError(
            f"expansion to min(term pairs, exponent box) = {size} exceeds the "
            f"{MAX_EXPANSION} limit", token.line, token.column
        )


class _Parser:
    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.depth = 0  # groups open at the current token

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(message, token.line, token.column)

    @staticmethod
    def at(token: _Token, operation, *operands):
        """``operation(*operands)``, with a ValueError raised as a ParseError at ``token``.

        Such errors are limits of the arithmetic rather than syntax: a literal
        longer than the interpreter's int-string digit limit, or a product
        reaching the polynomial exponent guard.
        """
        try:
            return operation(*operands)
        except ValueError as exc:
            raise ParseError(str(exc), token.line, token.column) from exc

    def parse(self) -> MultiPoly:
        value = self.expr()
        if self.peek().kind != "END":
            raise self.fail(f"trailing input {self.peek().text!r}")
        return value

    def expr(self) -> MultiPoly:
        """The sum of the terms, accumulated in one table (every parsed
        polynomial has integer coefficients)."""
        sign = 1
        token = self.peek()
        if token.kind == "OP" and token.text == "-":
            self.advance()
            sign = -1
        table: dict = {}
        get = table.get
        while True:
            for e, n in self.term().numerators.items():
                table[e] = get(e, 0) + sign * n
            token = self.peek()
            if not (token.kind == "OP" and token.text in "+-"):
                return MultiPoly._build(self.variables, {e: n for e, n in table.items() if n})
            self.advance()
            sign = 1 if token.text == "+" else -1

    def term(self) -> MultiPoly:
        """The product of the term's factors, with each number and symbol power
        folded, as it is read, into one monomial: an int coefficient and an
        exponent vector.  Parenthesised factors are multiplied in order, and
        the monomial joins their product once, at the end.

        Errors stay where a product formed one factor at a time raises them:
        the exponent guard fires at the factor (or its '*') where the running
        degree in some variable reaches it, unless a factor so far was zero.
        """
        variables = self.variables
        coefficient, exponents = 1, [0] * len(variables)
        groups = None  # the parenthesised factors' product
        reach = [0] * len(variables)  # the running product's degree in each variable
        token = None  # the '*' or first token of each factor after the first
        while True:
            first = self.peek()
            if first.kind == "NAT":
                self.advance()
                coefficient *= self.at(first, int, first.text) ** self.exponent()[0]
            elif first.kind == "SYMBOL" and first.text in variables:
                self.advance()
                i = variables.index(first.text)
                power = self.exponent()[0]
                exponents[i] += power
                reach[i] += power
                self.guard(token, coefficient, reach)
            else:
                group = self.factor()
                if not group:
                    coefficient = 0
                elif coefficient:
                    reach = list(map(add, reach, _degrees(group)))
                    self.guard(token, coefficient, reach)
                    if groups is not None:
                        pairs = len(groups.numerators) * len(group.numerators)
                        _bound(token, pairs, map(add, _degrees(groups), _degrees(group)))
                    groups = group if groups is None else groups * group
            token = self.peek()
            if token.kind == "OP" and token.text == "*":
                self.advance()
            elif not (token.kind in ("NAT", "SYMBOL") or (
                token.kind == "OP" and token.text == "("
            )):
                break
        if not coefficient:
            return MultiPoly.zero(variables)
        monomial = MultiPoly._build(variables, {tuple(exponents): coefficient})
        return monomial if groups is None else monomial * groups

    def guard(self, token: _Token | None, coefficient: int, reach: list[int]) -> None:
        """At a factor after the first, raise the exponent guard's own error if
        the running product is nonzero and its degrees ``reach`` reach it."""
        if token is not None and coefficient and max(reach) >> _PACK_BITS:
            monomial = MultiPoly._build(self.variables, {tuple(reach): 1})
            self.at(token, mul, monomial, MultiPoly.const(self.variables, 1))

    def exponent(self) -> tuple[int, _Token | None]:
        """The natural number after an optional '^', with its token: (1, None) without one."""
        token = self.peek()
        if not (token.kind == "OP" and token.text == "^"):
            return 1, None
        self.advance()
        token = self.peek()
        if token.kind != "NAT":
            raise self.fail("expected a natural-number exponent after '^'")
        self.advance()
        exponent = self.at(token, int, token.text)
        if exponent > MAX_EXPONENT:
            raise ParseError(
                f"exponent {exponent} exceeds the {MAX_EXPONENT} limit", token.line, token.column
            )
        return exponent, token

    def factor(self) -> MultiPoly:
        value = self.base()
        exponent, token = self.exponent()
        if token is None:
            return value
        degrees = [exponent * d for d in _degrees(value)]
        _bound(token, len(value.numerators) ** exponent, degrees)
        return self.at(token, pow, value, exponent)

    def base(self) -> MultiPoly:
        """A parenthesised expression; the term reads numbers and declared symbols."""
        token = self.peek()
        if token.kind == "SYMBOL":
            raise ParseError(f"undeclared symbol {token.text!r}", token.line, token.column)
        if token.kind == "OP" and token.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"groups nest deeper than the {MAX_NESTING} limit", token.line, token.column
                )
            self.advance()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            closing = self.peek()
            if not (closing.kind == "OP" and closing.text == ")"):
                raise self.fail("expected ')'")
            self.advance()
            return value
        raise self.fail(
            f"expected a number, symbol, or '(' but found {token.text or 'end of input'!r}"
        )


def parse_expression(text: str, variables: Sequence[str], first_line: int = 1) -> MultiPoly:
    """Parse a display expression into an exact polynomial.

    Error positions count lines from ``first_line``, the line of the
    enclosing file that ``text`` starts on.
    """
    return _Parser(_tokenize(text, first_line), tuple(variables)).parse()


class FixtureFile(NamedTuple):
    name: str
    variables: tuple[str, ...]
    numerator_text: str
    denominator_text: str
    provenance: str
    path: str = ""


class FixtureError(ValueError):
    """Malformed fixture file (missing section/keys or parse failure)."""


_UNDECODED = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, under surrogateescape


def _read_sections(raw: str) -> dict[str, tuple[int, list[str]]]:
    """Each section's lines, with the file line number of the first of them."""
    sections: dict[str, tuple[int, list[str]]] = {}
    current: str | None = None
    for number, line in enumerate(raw.split("\n"), 1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
            if current in sections:
                raise FixtureError(f"section [{current}] repeated on line {number}")
            sections[current] = (number + 1, [])
        elif current is not None:
            sections[current][1].append(line)
        elif stripped:
            raise FixtureError(f"content before first section: {stripped!r}")
    return sections


def load_fixture(path: str | Path) -> tuple[FixtureFile, RatFunc]:
    """Read a fixture file and parse it into a canonical rational function."""
    path = Path(path)
    raw = path.read_text(encoding="utf-8", errors="surrogateescape")
    bad = _UNDECODED.search(raw)
    if bad:
        byte, at = ord(bad.group()) - 0xDC00, bad.start()
        line, column = raw.count("\n", 0, at) + 1, at - raw.rfind("\n", 0, at)
        raise FixtureError(
            f"{path.name}: byte 0x{byte:02x} is not UTF-8 (line {line}, column {column})"
        )
    sections = _read_sections(raw)
    if "meta" not in sections:
        raise FixtureError(f"{path.name}: missing [meta] section")
    if "numerator" not in sections:
        raise FixtureError(f"{path.name}: missing [numerator] section")
    meta: dict[str, str] = {}
    for line in sections["meta"][1]:
        stripped = line.strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise FixtureError(f"{path.name}: bad meta line {stripped!r}")
        key, _, value = stripped.partition("=")
        meta[key.strip().lower()] = value.strip()
    for required in ("name", "vars"):
        if required not in meta:
            raise FixtureError(f"{path.name}: [meta] is missing {required!r}")
    variables = tuple(meta["vars"].split())
    # each section is parsed as it stands in the file, so errors carry file lines
    bodies = {}
    for section in ("numerator", "denominator"):
        first_line, lines = sections.get(section, (1, []))
        bodies[section] = (first_line, "\n".join(lines))
    if not bodies["denominator"][1].strip():
        bodies["denominator"] = (1, "1")
    fixture = FixtureFile(
        name=meta["name"],
        variables=variables,
        numerator_text=bodies["numerator"][1].strip(),
        denominator_text=bodies["denominator"][1].strip(),
        provenance=meta.get("provenance", ""),
        path=str(path),
    )
    parts = []
    for section in ("numerator", "denominator"):
        first_line, text = bodies[section]
        try:
            parts.append(parse_expression(text, variables, first_line))
        except ParseError as exc:
            raise FixtureError(f"{fixture.name}: [{section}] {exc}") from exc
    num, den = parts
    if den.is_zero:
        raise FixtureError(f"{fixture.name}: [denominator] is the zero polynomial")
    return fixture, RatFunc.make(num, den)


class ComparisonVerdict(NamedTuple):
    kind: str  # EXACT, SCALED, SAMPLED_ONLY, MISMATCH
    constant: Fraction | None = None
    witness_point: tuple[Fraction, ...] | None = None
    witness_values: tuple[Fraction, Fraction] | None = None

    def as_dict(self) -> dict:
        out: dict = {"verdict": self.kind}
        if self.constant is not None:
            out["constant"] = str(self.constant)
        if self.witness_point is not None:
            out["witness_point"] = [str(x) for x in self.witness_point]
        if self.witness_values is not None:
            out["witness_values"] = [str(x) for x in self.witness_values]
        return out


def compare_against_fixture(computed: RatFunc, fixture: RatFunc) -> ComparisonVerdict:
    """Classify how pipeline output relates to a transcribed display.

    Both sides are evaluated at up to ``COMPARISON_SAMPLES`` SplitMix64
    points, in a fixed order; a point where either side's denominator
    vanishes is skipped.  The decision order:

    1. At the first point where the fixture value is nonzero, take the ratio
       r of the two values.  If r > 0, check exactly (``RatFunc.equals``)
       whether ``computed`` equals r times the fixture: if so, return EXACT
       (r = 1) or SCALED(r) at once.  An r that the two sides' extreme terms
       already refute costs no polynomial product; otherwise the check
       cross-multiplies.
    2. Otherwise return MISMATCH at the first point where the values differ,
       with that point and both values as witness, and stop sampling: no
       check is left that could still give EXACT or SCALED.  A difference
       found before r is taken lies where the fixture value is 0 and the
       computed one is not, which no constant multiple of the fixture gives.
    3. If the values agree at every point, return SAMPLED_ONLY when the
       check at r = 1 failed, and otherwise decide EXACT or SAMPLED_ONLY by
       one exact check (the fixture was zero or undefined at every point).
    """
    if computed.variables != fixture.variables:
        raise ValueError(
            f"variable lists differ: {computed.variables} vs {fixture.variables}"
        )
    rng = SplitMix64(DEFAULT_SEED)
    dimension = len(computed.variables)
    ratio: Fraction | None = None
    for _ in range(COMPARISON_SAMPLES):
        point = rng.point(dimension)
        try:
            left = computed.evaluate(point)
            right = fixture.evaluate(point)
        except ZeroDivisionError:
            continue
        if ratio is None and right != 0:
            ratio = left / right
            if ratio > 0 and computed.equals(
                RatFunc.make(fixture.num.scale(ratio), fixture.den)
            ):
                if ratio == 1:
                    return ComparisonVerdict("EXACT")
                return ComparisonVerdict("SCALED", constant=ratio)
        if left != right:
            return ComparisonVerdict(
                "MISMATCH", witness_point=point, witness_values=(left, right)
            )
    if ratio is None and computed.equals(fixture):
        return ComparisonVerdict("EXACT")
    return ComparisonVerdict("SAMPLED_ONLY")
