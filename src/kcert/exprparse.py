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
work is bounded by refusing a product whose term pairs, and exponent box times
coefficient words, both exceed ``MAX_EXPANSION``: a product of groups, or one
of the squarings and products that form a group's power.  A dense product's
work grows with its box and the width of each slot, and its slot holds the
product of the operands' largest coefficients, so the box counts once per
64-bit word of that product.  Every product is also refused when its term
pairs times the words of each operand's largest coefficient, which bound the
word products of a pair-by-pair product, exceed ``MAX_WORD_PAIRS``.
Syntax errors carry line/column (in a fixture, the line of the file), and so
do the arithmetic's limits: a literal longer than the interpreter's int-string
digit limit, or a product whose degree reaches the polynomial exponent guard.
The text is searched once for an unexpected character, then tokenized in one
regex pass into plain strings with start offsets; a position's line and column
are computed from its offset, counting '\\n' alone as a line break, only when
an error is raised there.

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
(defaults to 1).  Comparison against pipeline output is one exact check at
the only constant that can work, the ratio of the cross products' lex-leading
terms: EXACT (ratio 1) or SCALED (constant reported) when it holds.  Only a
pair that fails it is sampled: MISMATCH at the first point where the values
differ, or SAMPLED_ONLY when the 100 deterministic samples all agree.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from math import prod
from operator import add, mul
from pathlib import Path
from typing import NamedTuple, Sequence

from .poly import _PACK_BITS, MultiPoly, RatFunc, _check_variables, _extreme_terms, _power
from .sampling import DEFAULT_SEED, SplitMix64

MAX_EXPONENT = 64
MAX_NESTING = 64  # open groups at once; the shipped fixtures nest at most 4 deep
# min(term pairs, exponent box x coefficient words); the shipped fixtures reach 4096
MAX_EXPANSION = 2 ** 18
# term pairs x words(a) x words(b); the shipped fixtures reach 201,091
MAX_WORD_PAIRS = 2 ** 28
COMPARISON_SAMPLES = 100


class ParseError(ValueError):
    """Syntax or symbol error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ASCII only: a digit or letter of another script is an unexpected character
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[-+*^()]")
_UNEXPECTED = re.compile(r"[^0-9A-Za-z_+*^() \t\n\r\f\v-]")


def _position(text: str, offset: int, first_line: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``, which starts on ``first_line``."""
    return first_line + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset)


def _tokenize(text: str, first_line: int) -> tuple[list[str], list[int]]:
    """The tokens as plain strings, ending in "" (the end of input), and their
    start offsets; ``first_line`` is the line ``text`` starts on."""
    bad = _UNEXPECTED.search(text)
    if bad:
        raise ParseError(
            f"unexpected character {bad.group()!r}", *_position(text, bad.start(), first_line)
        )
    matches = list(_TOKEN.finditer(text))
    tokens = [*map(re.Match.group, matches), ""]
    return tokens, [*map(re.Match.start, matches), len(text)]


def _degrees(p: MultiPoly) -> list[int]:
    return [max(e) for e in zip(*p.numerators)]  # per variable; [] for zero


def _coefficient_words(*polys: MultiPoly) -> int:
    """The 64-bit words that the product of the polynomials' largest
    coefficients fills, at least 1."""
    bits = sum(max(map(abs, p.numerators.values()), default=0).bit_length() for p in polys)
    return max(1, -(-bits // 64))


class _Parser:
    """Recursive descent over ``_tokenize``'s strings and offsets: a token's
    line and column are computed only when an error is raised at it."""

    def __init__(self, text: str, variables: tuple[str, ...], first_line: int):
        self.text, self.first_line = text, first_line
        self.tokens, self.starts = _tokenize(text, first_line)
        self.pos = 0
        self.variables = variables
        self.symbols = frozenset(filter(str.isidentifier, variables))  # those a token can name
        self.depth = 0  # groups open at the current token

    def peek(self) -> str:
        return self.tokens[self.pos]

    def fail(self, message: str, index: int | None = None) -> ParseError:
        """A ParseError at token ``index``, by default the current one."""
        offset = self.starts[self.pos if index is None else index]
        return ParseError(message, *_position(self.text, offset, self.first_line))

    def at(self, index: int, operation, *operands):
        """``operation(*operands)``, with a ValueError raised as a ParseError at token ``index``.

        Such errors are limits of the arithmetic rather than syntax: a literal
        longer than the interpreter's int-string digit limit, or a product
        reaching the polynomial exponent guard.
        """
        try:
            return operation(*operands)
        except ValueError as exc:
            raise self.fail(str(exc), index) from exc

    def parse(self) -> MultiPoly:
        value = self.expr()
        if self.peek():
            raise self.fail(f"trailing input {self.peek()!r}")
        return value

    def expr(self) -> MultiPoly:
        """The sum of the terms, accumulated in one table (every parsed
        polynomial has integer coefficients)."""
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        table: dict = {}
        get = table.get
        while True:
            for e, n in self.term().numerators.items():
                table[e] = get(e, 0) + sign * n
            token = self.peek()
            if token != "+" and token != "-":
                return MultiPoly._build(self.variables, {e: n for e, n in table.items() if n})
            self.pos += 1
            sign = 1 if token == "+" else -1

    def term(self) -> MultiPoly:
        """The product of the term's factors, with each number and symbol power
        folded, as it is read, into one monomial: an int coefficient and an
        exponent vector.  Parenthesised factors are multiplied in order, and
        the monomial joins their product once, at the end.

        Errors stay where a product formed one factor at a time raises them:
        the exponent guard fires at the factor (or its '*') where the running
        degree in some variable reaches it, unless a factor so far was zero.
        """
        variables, tokens = self.variables, self.tokens
        coefficient, exponents = 1, [0] * len(variables)
        groups = None  # the parenthesised factors' product
        reach = [0] * len(variables)  # the running product's degree in each variable
        index = None  # the '*' or first token of each factor after the first
        while True:
            first = self.pos
            token = tokens[first]
            if token.isdigit():
                self.pos += 1
                coefficient *= self.at(first, int, token) ** self.exponent()[0]
            elif token in self.symbols:
                self.pos += 1
                i = variables.index(token)
                power = self.exponent()[0]
                exponents[i] += power
                reach[i] += power
                self.guard(index, coefficient, reach)
            else:
                group = self.factor()
                if not group:
                    coefficient = 0
                elif coefficient:
                    reach = list(map(add, reach, _degrees(group)))
                    self.guard(index, coefficient, reach)
                    groups = group if groups is None else self.product(index, groups, group)
            index = self.pos
            token = tokens[index]
            if token == "*":
                self.pos += 1
            elif not (token == "(" or token.isdigit() or token.isidentifier()):
                break
        if not coefficient:
            return MultiPoly.zero(variables)
        monomial = MultiPoly._build(variables, {tuple(exponents): coefficient})
        return monomial if groups is None else monomial * groups

    def guard(self, index: int | None, coefficient: int, reach: list[int]) -> None:
        """At a factor after the first, raise the exponent guard's own error if
        the running product is nonzero and its degrees ``reach`` reach it."""
        if index is not None and coefficient and max(reach) >> _PACK_BITS:
            monomial = MultiPoly._build(self.variables, {tuple(reach): 1})
            self.at(index, mul, monomial, MultiPoly.const(self.variables, 1))

    def exponent(self) -> tuple[int, int | None]:
        """The natural number after an optional '^', with its token's index:
        (1, None) without one."""
        if self.peek() != "^":
            return 1, None
        self.pos += 1
        index = self.pos
        if not self.peek().isdigit():
            raise self.fail("expected a natural-number exponent after '^'")
        self.pos += 1
        exponent = self.at(index, int, self.tokens[index])
        if exponent > MAX_EXPONENT:
            raise self.fail(f"exponent {exponent} exceeds the {MAX_EXPONENT} limit", index)
        return exponent, index

    def factor(self) -> MultiPoly:
        """A base and its power, formed by ``MultiPoly.__pow__``'s repeated
        squaring; each product is bounded by its own operands."""
        base = self.base()
        exponent, index = self.exponent()
        if index is None:
            return base
        return _power(base, exponent, partial(self.product, index))

    def product(self, index: int, a: MultiPoly, b: MultiPoly) -> MultiPoly:
        """a * b, refused at token ``index`` when its term pairs, and its
        exponent box times its coefficient words, both exceed
        ``MAX_EXPANSION``, or when its term pairs times the coefficient words
        of a and of b exceed ``MAX_WORD_PAIRS``."""
        pairs = len(a.numerators) * len(b.numerators)
        if pairs > MAX_EXPANSION:
            box = prod(x + y + 1 for x, y in zip(_degrees(a), _degrees(b)))
            size = min(pairs, box * _coefficient_words(a, b))
            if size > MAX_EXPANSION:
                raise self.fail(
                    f"expansion to min(term pairs, exponent box x coefficient words) = "
                    f"{size} exceeds the {MAX_EXPANSION} limit", index
                )
        words = pairs * _coefficient_words(a) * _coefficient_words(b)
        if words > MAX_WORD_PAIRS:
            raise self.fail(f"term pairs x coefficient words = {words} exceeds the "
                            f"{MAX_WORD_PAIRS} limit", index)
        return self.at(index, mul, a, b)

    def base(self) -> MultiPoly:
        """A parenthesised expression; the term reads numbers and declared symbols."""
        token = self.peek()
        if token.isidentifier():
            raise self.fail(f"undeclared symbol {token!r}")
        if token == "(":
            if self.depth == MAX_NESTING:
                raise self.fail(f"groups nest deeper than the {MAX_NESTING} limit")
            self.pos += 1
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            if self.peek() != ")":
                raise self.fail("expected ')'")
            self.pos += 1
            return value
        raise self.fail(f"expected a number, symbol, or '(' but found {token or 'end of input'!r}")


def parse_expression(text: str, variables: Sequence[str], first_line: int = 1) -> MultiPoly:
    """Parse a display expression into an exact polynomial.

    Error positions count lines from ``first_line``, the line of the
    enclosing file that ``text`` starts on.
    """
    return _Parser(text, tuple(variables), first_line).parse()


class FixtureFile(NamedTuple):
    name: str
    variables: tuple[str, ...]


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
        byte, (line, column) = ord(bad.group()) - 0xDC00, _position(raw, bad.start(), 1)
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
    fixture = FixtureFile(name=meta["name"], variables=variables)
    # each section is parsed as it stands in the file, so errors carry file lines
    parts = []
    for section in ("numerator", "denominator"):
        first_line, lines = sections.get(section, (1, []))
        text = "\n".join(lines)
        if section == "denominator" and not text.strip():
            first_line, text = 1, "1"
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

    The only constant that can work is the ratio r of the lex-leading terms
    of ``computed.num * fixture.den`` and ``fixture.num * computed.den``, read
    from the factors without forming either product.  If their exponents
    agree and r > 0, one ``RatFunc.equals`` decides EXACT (r = 1) or
    SCALED(r); if either numerator is zero, ``computed.equals(fixture)``
    decides EXACT.  A pair that fails is sampled at up to
    ``COMPARISON_SAMPLES`` SplitMix64 points in a fixed order, skipping those
    where a denominator vanishes: MISMATCH at the first point where the values
    differ, with the point and both values as witness, else SAMPLED_ONLY.
    """
    _check_variables(computed.variables, fixture.variables)
    if not computed.num or not fixture.num:
        if computed.equals(fixture):
            return ComparisonVerdict("EXACT")
    else:
        (left_exponents, left), _ = _extreme_terms(computed.num, fixture.den)
        (right_exponents, right), _ = _extreme_terms(fixture.num, computed.den)
        ratio = left / right
        if left_exponents == right_exponents and ratio > 0 and computed.equals(
            RatFunc.make(fixture.num.scale(ratio), fixture.den)
        ):
            if ratio == 1:
                return ComparisonVerdict("EXACT")
            return ComparisonVerdict("SCALED", constant=ratio)
    rng = SplitMix64(DEFAULT_SEED)
    dimension = len(computed.variables)
    for _ in range(COMPARISON_SAMPLES):
        point = rng.point(dimension)
        try:
            left = computed.evaluate(point)
            right = fixture.evaluate(point)
        except ZeroDivisionError:
            continue
        if left != right:
            return ComparisonVerdict(
                "MISMATCH", witness_point=point, witness_values=(left, right)
            )
    return ComparisonVerdict("SAMPLED_ONLY")
