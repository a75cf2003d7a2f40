"""Exact sparse multivariate polynomials, rational functions, and pi-tagged scalars.

A polynomial is a map from exponent tuples to nonzero rational coefficients:

    beta^2*gamma + 3  over variables ("beta", "gamma")
        ->  {(2, 1): Fraction(1), (0, 0): Fraction(3)}

Everything is exact (``fractions.Fraction`` coefficients, arbitrary-precision
integers) and immutable after construction; all operations are pure functions,
so values can be shared freely between threads.

Conventions:
  * two polynomials combine only over identical variable tuples;
  * term order for printing and leading-coefficient queries is graded
    reverse lexicographic (grevlex) in the declared variable order;
  * rational functions are held as numerator/denominator pairs, canonicalised
    by clearing rational content and forcing the denominator's grevlex-leading
    coefficient positive.  Equality holds at once when numerators and
    denominators are identical polynomials, and is otherwise decided by
    cross-multiplication, never by multivariate gcd;
  * evaluation at a rational point sums integers and divides once (see
    ``MultiPoly.evaluate``);
  * a product of at least 16 term pairs whose exponent box
    prod_i(deg_a,i + deg_b,i + 1) has no more slots than pairs is dense and
    is formed by Kronecker substitution: one big-integer product, in slots
    of nb bytes with 2^(8*nb-1) > max|a|*max|b|*min(#a, #b), a bound on every
    output coefficient.  Other products loop over term pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from typing import Mapping, Sequence, Union

Exponents = tuple[int, ...]
Scalar = Union[Fraction, int]


class VariableMismatchError(ValueError):
    """Raised when combining polynomials over different variable tuples."""


class PiPowerMismatchError(ValueError):
    """Raised when adding pi-tagged values with different pi exponents."""


def _as_fraction(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def grevlex_key(exponents: Exponents) -> tuple:
    """Sort key under which the grevlex-largest monomial compares greatest."""
    return (sum(exponents), tuple(-e for e in reversed(exponents)))


# Exponent tuples are packed into single integers during multiplication
# (component-wise addition becomes one int add).  24 bits per variable keeps
# every degree this package produces far from overflow; ``MultiPoly.__mul__``
# refuses operands whose exponent sums would carry into the next slot.
_PACK_BITS = 24

_DENSE_MIN_PAIRS = 16  # fewest term pairs for which a product may be dense


def _pack(exponents: Exponents) -> int:
    packed = 0
    for e in reversed(exponents):
        packed = (packed << _PACK_BITS) | e
    return packed


def _unpack(packed: int, nvars: int) -> Exponents:
    mask = (1 << _PACK_BITS) - 1
    out = []
    for _ in range(nvars):
        out.append(packed & mask)
        packed >>= _PACK_BITS
    return tuple(out)


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Scalar]):
        varlist = tuple(variables)
        table: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            if len(exps) != len(varlist):
                raise ValueError(
                    f"exponent tuple {exps} does not match {len(varlist)} variables"
                )
            value = _as_fraction(coeff)
            if value != 0:
                table[tuple(exps)] = value
        object.__setattr__(self, "variables", varlist)
        object.__setattr__(self, "terms", table)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _from_table(variables: tuple[str, ...], table: dict[Exponents, Fraction]) -> MultiPoly:
        """Wrap a table of nonzero Fractions without re-checking it."""
        poly = object.__new__(MultiPoly)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", table)
        return poly

    @staticmethod
    def zero(variables: Sequence[str]) -> MultiPoly:
        return MultiPoly(variables, {})

    @staticmethod
    def const(variables: Sequence[str], value: Scalar) -> MultiPoly:
        zero_exp = (0,) * len(tuple(variables))
        return MultiPoly(variables, {zero_exp: _as_fraction(value)})

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> MultiPoly:
        varlist = tuple(variables)
        if name not in varlist:
            raise ValueError(f"unknown variable {name!r} in {varlist}")
        exps = tuple(1 if v == name else 0 for v in varlist)
        return MultiPoly(varlist, {exps: Fraction(1)})

    @staticmethod
    def gens(variables: Sequence[str]) -> tuple[MultiPoly, ...]:
        """Generator polynomials, one per declared variable."""
        varlist = tuple(variables)
        return tuple(MultiPoly.variable(varlist, v) for v in varlist)

    # -- queries ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as for numbers."""
        return bool(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        idx = self.variables.index(name)
        if not self.terms:
            return 0
        return max(e[idx] for e in self.terms)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in decreasing grevlex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        lead = max(self.terms, key=grevlex_key)
        return self.terms[lead]

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (raises if not constant)."""
        if self.total_degree() != 0:
            raise ValueError(f"polynomial is not constant: {self.render()}")
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def coefficient_denominator_lcm(self) -> int:
        result = 1
        for c in self.terms.values():
            result = lcm(result, c.denominator)
        return result

    def integer_content(self) -> int:
        """gcd of integer coefficients; only meaningful when all are integers."""
        result = 0
        for c in self.terms.values():
            result = gcd(result, abs(c.numerator))
        return result

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: MultiPoly) -> None:
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: MultiPoly | Scalar) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.variables, other)
        self._check_compatible(other)
        table = dict(self.terms)
        for exps, coeff in other.terms.items():
            value = table.get(exps, Fraction(0)) + coeff
            if value == 0:
                table.pop(exps, None)
            else:
                table[exps] = value
        return MultiPoly(self.variables, table)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: MultiPoly | Scalar) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.variables, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> MultiPoly:
        return (-self) + other

    def __mul__(self, other: MultiPoly | Scalar) -> MultiPoly:
        """Exact product; the kernel is chosen from sizes alone.

        A product of at least 16 term pairs whose exponent box
        prod_i(deg_a,i + deg_b,i + 1) holds no more slots than pairs goes
        through Kronecker substitution (``_mul_dense``), in slots of nb bytes
        with 2^(8*nb-1) > max|a|*max|b|*min(#a, #b): an output coefficient is
        a sum of at most min(#a, #b) products.  Others loop over term pairs.
        """
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_compatible(other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.variables)
        nvars = len(self.variables)
        pairs = len(self.terms) * len(other.terms)
        box = 1  # multiplied in place: a list per product slows the many tiny ones
        for name, a, b in zip(
            self.variables, map(max, zip(*self.terms)), map(max, zip(*other.terms))
        ):
            if a + b >= 1 << _PACK_BITS:
                raise ValueError(
                    f"degree {a + b} in {name!r} reaches the 2^{_PACK_BITS} exponent limit"
                )
            box *= a + b + 1
        if pairs >= _DENSE_MIN_PAIRS and box <= pairs:
            return self._mul_dense(other, box)
        integral = all(c.denominator == 1 for c in self.terms.values()) and all(
            c.denominator == 1 for c in other.terms.values()
        )
        if integral:
            left = [(_pack(e), c.numerator) for e, c in self.terms.items()]
            right = [(_pack(e), c.numerator) for e, c in other.terms.items()]
        else:
            left = [(_pack(e), c) for e, c in self.terms.items()]
            right = [(_pack(e), c) for e, c in other.terms.items()]
        if len(left) > len(right):
            left, right = right, left
        acc: dict[int, object] = {}
        get = acc.get
        for ka, ca in left:
            for kb, cb in right:
                key = ka + kb
                prev = get(key)
                acc[key] = ca * cb if prev is None else prev + ca * cb
        table = {
            _unpack(k, nvars): Fraction(v) for k, v in acc.items() if v != 0
        }
        return MultiPoly(self.variables, table)

    def _mul_dense(self, other: MultiPoly, box: int) -> MultiPoly:
        """Pack both operands, multiply once, lift each slot by 2^(8*nb-1), unpack."""
        tops = zip(map(max, zip(*self.terms)), map(max, zip(*other.terms)))
        extents = [a + b + 1 for a, b in tops]
        strides = [prod(extents[:i]) for i in range(len(extents))]
        operands, den = [], 1
        for poly in (self, other):
            lcd = poly.coefficient_denominator_lcm()
            den *= lcd
            operands.append([
                (sum(map(mul, e, strides)), c.numerator * (lcd // c.denominator))
                for e, c in poly.terms.items()
            ])
        bound = min(map(len, operands)) * prod(max(abs(c) for _, c in s) for s in operands)
        nb = bound.bit_length() // 8 + 1
        packed = 1
        for scaled in operands:
            signs = (bytearray(nb * box), bytearray(nb * box))
            for slot, c in scaled:
                signs[c < 0][slot * nb:(slot + 1) * nb] = abs(c).to_bytes(nb, "little")
            packed *= int.from_bytes(signs[0], "little") - int.from_bytes(signs[1], "little")
        half = 1 << (8 * nb - 1)
        zero = half.to_bytes(nb, "little")
        digits = (packed + int.from_bytes(zero * box, "little")).to_bytes(nb * box, "little")
        table: dict[Exponents, Fraction] = {}
        slots = product(*map(range, reversed(extents)))
        for at, reverse in zip(range(0, nb * box, nb), slots):
            digit = digits[at:at + nb]
            if digit != zero:
                table[reverse[::-1]] = Fraction(int.from_bytes(digit, "little") - half, den)
        return MultiPoly._from_table(self.variables, table)

    __rmul__ = __mul__

    def scale(self, value: Scalar) -> MultiPoly:
        value = _as_fraction(value)
        if value == 0:
            return MultiPoly.zero(self.variables)
        return MultiPoly(self.variables, {e: c * value for e, c in self.terms.items()})

    def __truediv__(self, value: Scalar) -> MultiPoly:
        return self.scale(Fraction(1, 1) / _as_fraction(value))

    def __pow__(self, exponent: int) -> MultiPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power requires a non-negative integer")
        result = None
        base = self
        n = exponent
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.const(self.variables, 1) if result is None else result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    # -- calculus and evaluation ---------------------------------------------

    def diff(self, name: str) -> MultiPoly:
        idx = self.variables.index(name)
        table: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            lowered = exps[:idx] + (e - 1,) + exps[idx + 1:]
            table[lowered] = table.get(lowered, Fraction(0)) + coeff * e
        return MultiPoly(self.variables, table)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point, accumulated as a single integer.

        The sum is homogenised: with x_i = p_i/q_i and D_i the largest
        exponent of variable i, each term c*prod(x_i^e_i) is multiplied by
        lcd * prod(q_i^D_i), where lcd is the lcm of the coefficient
        denominators.  It becomes the integer
        (c*lcd) * prod(p_i^e_i * q_i^(D_i-e_i)), read from one weight table
        per variable, and the total is divided by lcd * prod(q_i^D_i) once.
        """
        values = [_as_fraction(x) for x in point]
        if len(values) != len(self.variables):
            raise ValueError(
                f"point has {len(values)} coordinates, expected {len(self.variables)}"
            )
        lcd = self.coefficient_denominator_lcm()
        scale = lcd
        weights: list[dict[int, int]] = []
        for x, used in zip(values, map(set, zip(*self.terms))):
            p, q, top = x.numerator, x.denominator, max(used)
            weights.append({e: p ** e * q ** (top - e) for e in used})
            scale *= q ** top
        total = 0
        for exps, coeff in self.terms.items():
            prod = coeff.numerator * (lcd // coeff.denominator)
            for table, e in zip(weights, exps):
                prod *= table[e]
            total += prod
        return Fraction(total, scale)

    def substitute(
        self,
        images: Mapping[str, MultiPoly | Scalar],
        variables: Sequence[str],
    ) -> MultiPoly:
        """Map every variable to a polynomial over ``variables`` and expand.

        When every image is a single nonzero term c_i*m_i, each term
        c*prod(x_i^e_i) maps straight to c*prod(c_i^e_i) * prod(m_i^e_i), so
        the expansion is a map on exponent tuples with no polynomial
        products.  Any other image is expanded by multiplying out powers.
        """
        target = tuple(variables)
        image_polys: list[MultiPoly] = []
        for name in self.variables:
            if name not in images:
                raise ValueError(f"no substitution image for variable {name!r}")
            img = images[name]
            if not isinstance(img, MultiPoly):
                img = MultiPoly.const(target, img)
            elif img.variables != target:
                raise VariableMismatchError(
                    f"image of {name!r} is over {img.variables}, expected {target}"
                )
            image_polys.append(img)
        if all(len(img.terms) == 1 for img in image_polys):
            return self._substitute_monomials(image_polys, target)
        power_cache: list[dict[int, MultiPoly]] = [
            {0: MultiPoly.const(target, 1)} for _ in image_polys
        ]

        def cached_power(i: int, e: int) -> MultiPoly:
            cache = power_cache[i]
            if e not in cache:
                cache[e] = cached_power(i, e - 1) * image_polys[i]
            return cache[e]

        total = MultiPoly.zero(target)
        for exps, coeff in self.terms.items():
            prod = MultiPoly.const(target, coeff)
            for i, e in enumerate(exps):
                if e:
                    prod = prod * cached_power(i, e)
            total = total + prod
        return total

    def _substitute_monomials(
        self, images: Sequence[MultiPoly], target: tuple[str, ...]
    ) -> MultiPoly:
        monomials = [next(iter(img.terms.items())) for img in images]
        table: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            image = [0] * len(target)
            for (mono, c), e in zip(monomials, exps):
                if e:
                    coeff *= c ** e
                    for j, m in enumerate(mono):
                        image[j] += m * e
            key = tuple(image)
            # distinct terms can land on one monomial, as under gamma := beta
            table[key] = table.get(key, 0) + coeff
        return MultiPoly(target, table)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: grevlex-sorted, explicit ``*`` and ``^``."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.variables, exps)
                if e
            ]
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()!r})"


# -- free functions over MultiPoly -------------------------------------------


def partial_derivative(p: MultiPoly, name: str) -> MultiPoly:
    """Exact formal partial derivative with respect to a declared variable."""
    if name not in p.variables:
        raise ValueError(f"unknown variable {name!r} in {p.variables}")
    return p.diff(name)


def directional_derivative(p: MultiPoly, direction: Sequence[int]) -> MultiPoly:
    if len(direction) != len(p.variables):
        raise ValueError("direction length must match the variable count")
    out = MultiPoly.zero(p.variables)
    for name, weight in zip(p.variables, direction):
        if weight:
            out = out + p.diff(name).scale(weight)
    return out


def coefficients_all_nonneg(
    p: MultiPoly,
) -> tuple[bool, tuple[Fraction, Exponents] | None]:
    """Check every stored coefficient is >= 0.

    Returns (True, None) on success, else (False, witness) where the witness
    is the most negative coefficient together with its monomial exponents,
    the grevlex-largest among ties, whatever order the terms are stored in.
    """
    negatives = [(-c, grevlex_key(e), e) for e, c in p.terms.items() if c < 0]
    if not negatives:
        return True, None
    magnitude, _, exps = max(negatives)
    return False, (-magnitude, exps)


class RatFunc:
    """Quotient of two MultiPoly values; denominator nonzero.

    ``RatFunc.make`` produces the canonical representative: both parts scaled
    to coprime integer coefficients, denominator's grevlex-leading coefficient
    positive.  No polynomial cancellation is ever attempted.  Two values with
    equal numerators and equal denominators are equal at once; any other pair
    is compared by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if num.variables != den.variables:
            raise VariableMismatchError(
                f"variable lists differ: {num.variables} vs {den.variables}"
            )
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def make(num: MultiPoly, den: MultiPoly) -> RatFunc:
        """Canonical form: integer-primitive pair, positive-leading denominator."""
        if num.variables != den.variables:
            raise VariableMismatchError(
                f"variable lists differ: {num.variables} vs {den.variables}"
            )
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return RatFunc(num, MultiPoly.const(den.variables, 1))
        scale = lcm(num.coefficient_denominator_lcm(), den.coefficient_denominator_lcm())
        num = num.scale(scale)
        den = den.scale(scale)
        content = gcd(num.integer_content(), den.integer_content())
        if content > 1:
            num = num / content
            den = den / content
        if den.leading_coefficient() < 0:
            num = -num
            den = -den
        return RatFunc(num, den)

    @staticmethod
    def from_poly(p: MultiPoly) -> RatFunc:
        return RatFunc(p, MultiPoly.const(p.variables, 1))

    @staticmethod
    def const(variables: Sequence[str], value: Scalar) -> RatFunc:
        return RatFunc.from_poly(MultiPoly.const(variables, value))

    @property
    def variables(self) -> tuple[str, ...]:
        return self.num.variables

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: RatFunc | MultiPoly | Scalar) -> RatFunc:
        other = _coerce(other, self.variables)
        if self.den == other.den:
            return RatFunc.make(self.num + other.num, self.den)
        return RatFunc.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: RatFunc | MultiPoly | Scalar) -> RatFunc:
        return self + (-_coerce(other, self.variables))

    def __rsub__(self, other: Scalar) -> RatFunc:
        return (-self) + other

    def __mul__(self, other: RatFunc | MultiPoly | Scalar) -> RatFunc:
        other = _coerce(other, self.variables)
        return RatFunc.make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: RatFunc | MultiPoly | Scalar) -> RatFunc:
        other = _coerce(other, self.variables)
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        if self.den == other.den:
            return RatFunc.make(self.num, other.num)
        return RatFunc.make(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: Scalar) -> RatFunc:
        return _coerce(other, self.variables) / self

    def __pow__(self, exponent: int) -> RatFunc:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("rational function power requires a non-negative integer")
        if exponent == 0:
            return RatFunc.const(self.variables, 1)
        return RatFunc.make(self.num ** exponent, self.den ** exponent)

    def equals(self, other: RatFunc) -> bool:
        """Identical forms are equal; otherwise num1*den2 == num2*den1."""
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )
        if self.num == other.num and self.den == other.den:
            return True
        return self.num * other.den == other.num * self.den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.equals(other)

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        raise TypeError("RatFunc is unhashable (equality is cross-multiplicative)")

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        bottom = self.den.evaluate(point)
        if bottom == 0:
            raise ZeroDivisionError(
                f"denominator vanishes at {tuple(str(x) for x in point)}"
            )
        return self.num.evaluate(point) / bottom

    def substitute(
        self,
        images: Mapping[str, MultiPoly | Scalar],
        variables: Sequence[str],
    ) -> RatFunc:
        return RatFunc.make(
            self.num.substitute(images, variables),
            self.den.substitute(images, variables),
        )

    def render(self) -> str:
        if self.den == MultiPoly.const(self.variables, 1):
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self) -> str:
        return f"RatFunc({self.render()!r})"


def _coerce(value: RatFunc | MultiPoly | Scalar, variables: tuple[str, ...]) -> RatFunc:
    if isinstance(value, RatFunc):
        if value.variables != variables:
            raise VariableMismatchError(
                f"variable lists differ: {value.variables} vs {variables}"
            )
        return value
    if isinstance(value, MultiPoly):
        return RatFunc.from_poly(value)
    return RatFunc.const(variables, value)


def directional_second_derivative(f: RatFunc, direction: Sequence[int]) -> RatFunc:
    """Second derivative of f along a constant integer direction.

    Computed structurally from f = N/D as

        [N_vv*D^2 - 2*N_v*D_v*D - N*D_vv*D + 2*N*D_v^2] / D^3

    with X_v the direction-weighted first derivative of X.  No cancellation is
    performed: the returned denominator is exactly D^3, and the numerator's
    coefficient signs are those of this structural form (which positivity
    certificates inspect directly).  It is formed as the same polynomial
    (N_vv*D - 2*N_v*D_v - N*D_vv)*D + 2*N*(D_v*D_v), with one product by D.
    """
    if len(direction) != len(f.variables):
        raise ValueError("direction length must match the variable count")
    n, d = f.num, f.den
    n_v = directional_derivative(n, direction)
    d_v = directional_derivative(d, direction)
    n_vv = directional_derivative(n_v, direction)
    d_vv = directional_derivative(d_v, direction)
    numerator = (n_vv * d - (n_v * d_v).scale(2) - n * d_vv) * d + (n * (d_v * d_v)).scale(2)
    return RatFunc(numerator, d ** 3)


@dataclass(frozen=True)
class PiScalar:
    """Exact rational multiple of an integer power of pi.

    Addition is defined only between equal pi powers (a zero mantissa is
    neutral); mixing powers raises instead of silently coercing, which makes
    dimension bookkeeping errors loud.
    """

    mantissa: Fraction
    pi_power: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mantissa", _as_fraction(self.mantissa))
        if self.mantissa == 0:
            object.__setattr__(self, "pi_power", 0)

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    def __add__(self, other: PiScalar) -> PiScalar:
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.pi_power != other.pi_power:
            raise PiPowerMismatchError(
                f"cannot add pi^{self.pi_power} and pi^{other.pi_power} terms"
            )
        return PiScalar(self.mantissa + other.mantissa, self.pi_power)

    def __neg__(self) -> PiScalar:
        return PiScalar(-self.mantissa, self.pi_power)

    def __sub__(self, other: PiScalar) -> PiScalar:
        return self + (-other)

    def __mul__(self, other: PiScalar | Scalar) -> PiScalar:
        if not isinstance(other, PiScalar):
            return PiScalar(self.mantissa * _as_fraction(other), self.pi_power)
        return PiScalar(self.mantissa * other.mantissa, self.pi_power + other.pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other: PiScalar | Scalar) -> PiScalar:
        if not isinstance(other, PiScalar):
            return PiScalar(self.mantissa / _as_fraction(other), self.pi_power)
        if other.is_zero:
            raise ZeroDivisionError("division by zero PiScalar")
        return PiScalar(self.mantissa / other.mantissa, self.pi_power - other.pi_power)

    def render(self) -> str:
        if self.pi_power == 0 or self.is_zero:
            return str(self.mantissa)
        return f"({self.mantissa})*pi^{self.pi_power}"

    def __repr__(self) -> str:
        return f"PiScalar({self.render()!r})"
