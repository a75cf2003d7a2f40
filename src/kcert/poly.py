"""Exact sparse multivariate polynomials, rational functions, and pi-tagged values.

A polynomial is a map from exponent tuples to nonzero integer numerators over
one positive integer denominator:

    beta^2*gamma + 3/2  over variables ("beta", "gamma")
        ->  numerators {(2, 1): 2, (0, 0): 3}, den 2

The pair is reduced, gcd(den, every numerator) = 1, so each polynomial has one
representation and the zero polynomial is ({}, 1).  Parts of canonical
rational functions, and products of them, have den 1: their arithmetic is
plain ``int`` arithmetic.  ``terms`` shows the coefficients as exact numbers.
Values are immutable after construction and every operation is a pure
function.

Conventions:
  * two polynomials combine only over identical variable tuples;
  * term order for printing and leading-coefficient queries is graded
    reverse lexicographic (grevlex) in the declared variable order;
  * rational functions are held as numerator/denominator pairs, canonicalised
    to coprime integer parts with the denominator's grevlex-leading
    coefficient positive.  Equality holds at once when numerators and
    denominators are identical polynomials, and is otherwise decided by
    cross-multiplication, never by multivariate gcd;
  * evaluation at a rational point sums integers and divides once (see
    ``MultiPoly.evaluate``);
  * a product of at least 16 term pairs whose exponent box
    prod_i(deg_a,i + deg_b,i + 1) has no more slots than pairs is dense and
    is formed by Kronecker substitution: one big-integer product, in slots
    of nb bytes with 2^(8*nb-1) > max|a|*max|b|*min(#a, #b), a bound on every
    output numerator.  Other products loop over term pairs;
  * a quantity that carries a power of pi is one ``PiValue``: a Fraction or
    a RatFunc times pi^n, whichever the computation produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from types import MappingProxyType
from typing import Mapping, Sequence, Union

Exponents = tuple[int, ...]
Scalar = Union[Fraction, int]


class VariableMismatchError(ValueError):
    """Raised when combining polynomials over different variable tuples."""


class PiPowerMismatchError(ValueError):
    """Raised when adding pi-tagged values with different pi exponents."""


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
    """Sparse multivariate polynomial: nonzero int numerators over one int ``den``.

    ``numerators`` maps exponent tuples to nonzero ints and ``den`` is a
    positive int with gcd(den, every numerator) = 1; the coefficient of a
    monomial is its numerator divided by ``den``.
    """

    __slots__ = ("variables", "numerators", "den")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Scalar]):
        varlist = tuple(variables)
        den = lcm(*(c.denominator for c in terms.values()))
        table: dict[Exponents, int] = {}
        for exps, coeff in terms.items():
            if len(exps) != len(varlist):
                raise ValueError(
                    f"exponent tuple {exps} does not match {len(varlist)} variables"
                )
            if coeff != 0:
                table[tuple(exps)] = coeff.numerator * (den // coeff.denominator)
        # den is the lcm of reduced denominators, so it is coprime to the table
        self._set(varlist, table, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    def _set(self, variables: tuple[str, ...], table: dict[Exponents, int], den: int) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "numerators", table)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _build(variables: tuple[str, ...], table: dict[Exponents, int], den: int = 1) -> MultiPoly:
        """Wrap nonzero int numerators over a positive den, dividing out their gcd."""
        if den != 1:
            common = gcd(den, *table.values())
            if common != 1:
                table = {e: n // common for e, n in table.items()}
                den //= common
        poly = object.__new__(MultiPoly)
        poly._set(variables, table, den)
        return poly

    @staticmethod
    def zero(variables: Sequence[str]) -> MultiPoly:
        return MultiPoly(variables, {})

    @staticmethod
    def const(variables: Sequence[str], value: Scalar) -> MultiPoly:
        zero_exp = (0,) * len(tuple(variables))
        return MultiPoly(variables, {zero_exp: value})

    @staticmethod
    def variable(variables: Sequence[str], name: str) -> MultiPoly:
        varlist = tuple(variables)
        if name not in varlist:
            raise ValueError(f"unknown variable {name!r} in {varlist}")
        exps = tuple(1 if v == name else 0 for v in varlist)
        return MultiPoly(varlist, {exps: 1})

    @staticmethod
    def gens(variables: Sequence[str]) -> tuple[MultiPoly, ...]:
        """Generator polynomials, one per declared variable."""
        varlist = tuple(variables)
        return tuple(MultiPoly.variable(varlist, v) for v in varlist)

    # -- queries ------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, Scalar]:
        """Read-only exact coefficients: the ints themselves when den is 1, else Fractions."""
        if self.den == 1:
            return MappingProxyType(self.numerators)
        return MappingProxyType({e: Fraction(n, self.den) for e, n in self.numerators.items()})

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    def __bool__(self) -> bool:
        """False exactly for the zero polynomial, as for numbers."""
        return bool(self.numerators)

    def total_degree(self) -> int:
        if not self.numerators:
            return 0
        return max(sum(e) for e in self.numerators)

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in decreasing grevlex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)

    def leading_coefficient(self) -> Fraction:
        if not self.numerators:
            return Fraction(0)
        lead = max(self.numerators, key=grevlex_key)
        return Fraction(self.numerators[lead], self.den)

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
        den = lcm(self.den, other.den)
        lift, other_lift = den // self.den, den // other.den
        table = {e: n * lift for e, n in self.numerators.items()}
        get = table.get
        for exps, n in other.numerators.items():
            value = get(exps, 0) + n * other_lift
            if value:
                table[exps] = value
            else:
                del table[exps]
        return MultiPoly._build(self.variables, table, den)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return self.scale(-1)

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
        with 2^(8*nb-1) > max|a|*max|b|*min(#a, #b): an output numerator is
        a sum of at most min(#a, #b) products.  Others loop over term pairs.
        Either way the numerators multiply as ints over the product of dens.
        """
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_compatible(other)
        if not self.numerators or not other.numerators:
            return MultiPoly.zero(self.variables)
        nvars = len(self.variables)
        pairs = len(self.numerators) * len(other.numerators)
        box = 1  # multiplied in place: a list per product slows the many tiny ones
        for name, a, b in zip(
            self.variables, map(max, zip(*self.numerators)), map(max, zip(*other.numerators))
        ):
            if a + b >= 1 << _PACK_BITS:
                raise ValueError(
                    f"degree {a + b} in {name!r} reaches the 2^{_PACK_BITS} exponent limit"
                )
            box *= a + b + 1
        if pairs >= _DENSE_MIN_PAIRS and box <= pairs:
            return self._mul_dense(other, box)
        left = [(_pack(e), n) for e, n in self.numerators.items()]
        right = [(_pack(e), n) for e, n in other.numerators.items()]
        if len(left) > len(right):
            left, right = right, left
        acc: dict[int, int] = {}
        get = acc.get
        for ka, ca in left:
            for kb, cb in right:
                key = ka + kb
                prev = get(key)
                acc[key] = ca * cb if prev is None else prev + ca * cb
        table = {_unpack(k, nvars): v for k, v in acc.items() if v}
        return MultiPoly._build(self.variables, table, self.den * other.den)

    def _mul_dense(self, other: MultiPoly, box: int) -> MultiPoly:
        """Pack both int numerator tables, multiply once, lift each slot by 2^(8*nb-1), unpack."""
        tops = zip(map(max, zip(*self.numerators)), map(max, zip(*other.numerators)))
        extents = [a + b + 1 for a, b in tops]
        strides = [prod(extents[:i]) for i in range(len(extents))]
        operands = [
            [(sum(map(mul, e, strides)), n) for e, n in poly.numerators.items()]
            for poly in (self, other)
        ]
        bound = min(map(len, operands)) * prod(max(abs(n) for _, n in s) for s in operands)
        nb = bound.bit_length() // 8 + 1
        packed = 1
        for slots in operands:
            signs = (bytearray(nb * box), bytearray(nb * box))
            for slot, n in slots:
                signs[n < 0][slot * nb:(slot + 1) * nb] = abs(n).to_bytes(nb, "little")
            packed *= int.from_bytes(signs[0], "little") - int.from_bytes(signs[1], "little")
        half = 1 << (8 * nb - 1)
        zero = half.to_bytes(nb, "little")
        digits = (packed + int.from_bytes(zero * box, "little")).to_bytes(nb * box, "little")
        table: dict[Exponents, int] = {}
        exponents = product(*map(range, reversed(extents)))
        for at, reverse in zip(range(0, nb * box, nb), exponents):
            digit = digits[at:at + nb]
            if digit != zero:
                table[reverse[::-1]] = int.from_bytes(digit, "little") - half
        return MultiPoly._build(self.variables, table, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, value: Scalar) -> MultiPoly:
        if value == 0:
            return MultiPoly.zero(self.variables)
        table = {e: n * value.numerator for e, n in self.numerators.items()}
        return MultiPoly._build(self.variables, table, self.den * value.denominator)

    def __truediv__(self, value: Scalar) -> MultiPoly:
        return self.scale(Fraction(1, value))

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
        return (
            self.variables == other.variables
            and self.den == other.den
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.den, frozenset(self.numerators.items())))

    # -- calculus and evaluation ---------------------------------------------

    def diff(self, name: str) -> MultiPoly:
        idx = self.variables.index(name)
        table: dict[Exponents, int] = {}
        for exps, n in self.numerators.items():
            e = exps[idx]
            if e:
                table[exps[:idx] + (e - 1,) + exps[idx + 1:]] = n * e
        return MultiPoly._build(self.variables, table, self.den)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point, accumulated as a single integer.

        The sum is homogenised: with x_i = p_i/q_i and D_i the largest
        exponent of variable i, each term n*prod(x_i^e_i) of the numerator
        sum is multiplied by prod(q_i^D_i).  It becomes the integer
        n * prod(p_i^e_i * q_i^(D_i-e_i)), read from one weight table per
        variable, and the total is divided by den * prod(q_i^D_i) once.
        """
        if len(point) != len(self.variables):
            raise ValueError(
                f"point has {len(point)} coordinates, expected {len(self.variables)}"
            )
        scale = self.den
        weights: list[dict[int, int]] = []
        for x, used in zip(point, map(set, zip(*self.numerators))):
            p, q, top = x.numerator, x.denominator, max(used)
            weights.append({e: p ** e * q ** (top - e) for e in used})
            scale *= q ** top
        total = 0
        for exps, n in self.numerators.items():
            for table, e in zip(weights, exps):
                n *= table[e]
            total += n
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
        if all(len(img.numerators) == 1 for img in image_polys):
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
        for exps, n in self.numerators.items():
            term = MultiPoly.const(target, n)
            for i, e in enumerate(exps):
                if e:
                    term = term * cached_power(i, e)
            total = total + term
        return total / self.den

    def _substitute_monomials(
        self, images: Sequence[MultiPoly], target: tuple[str, ...]
    ) -> MultiPoly:
        """Image i is (c_i/d_i)*m_i; each term maps to one term over
        den * prod(d_i^D_i), with D_i the top exponent of variable i.
        """
        monomials = [(m, c, img.den) for img in images for m, c in img.numerators.items()]
        tops = list(map(max, zip(*self.numerators)))
        den = self.den * prod(d ** top for (_, _, d), top in zip(monomials, tops))
        table: dict[Exponents, int] = {}
        for exps, n in self.numerators.items():
            image = [0] * len(target)
            for (mono, c, d), e, top in zip(monomials, exps, tops):
                n *= c ** e * d ** (top - e)
                for j, m in enumerate(mono):
                    image[j] += m * e
            key = tuple(image)
            # distinct terms can land on one monomial, as under gamma := beta
            table[key] = table.get(key, 0) + n
        return MultiPoly._build(target, {e: n for e, n in table.items() if n}, den)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: grevlex-sorted, explicit ``*`` and ``^``."""
        if not self.numerators:
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
    to coprime integer coefficients, so that each has ``den`` 1, and the
    denominator's grevlex-leading coefficient positive.  No polynomial
    cancellation is ever attempted.  Two values with equal numerators and
    equal denominators are equal at once; any other pair is compared by
    cross-multiplication.
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
        """Canonical form: coprime int parts, each with den 1, positive-leading denominator.

        num/den = (N/a)/(D/b) for int numerator tables N, D and dens a, b, so
        the pair is cross-scaled to N*b and D*a and divided by the gcd of all
        their numerators, negated when D's grevlex-leading numerator is < 0.
        """
        if num.variables != den.variables:
            raise VariableMismatchError(
                f"variable lists differ: {num.variables} vs {den.variables}"
            )
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return RatFunc(num, MultiPoly.const(den.variables, 1))
        top = {e: n * den.den for e, n in num.numerators.items()}
        bottom = {e: n * num.den for e, n in den.numerators.items()}
        content = gcd(*top.values(), *bottom.values())
        if den.leading_coefficient() < 0:
            content = -content
        num = MultiPoly._build(num.variables, {e: n // content for e, n in top.items()})
        den = MultiPoly._build(den.variables, {e: n // content for e, n in bottom.items()})
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

    def __bool__(self) -> bool:
        """False exactly for the zero function, as for numbers."""
        return bool(self.num)

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
class PiValue:
    """An exact value times an integer power of pi.

    ``value`` is a Fraction, or a RatFunc over the chart variables.  A zero
    value carries pi^0.  Addition is defined only between equal pi powers (a
    zero value is neutral); mixing powers raises instead of silently
    coercing, which makes dimension bookkeeping errors loud.  Equality is that
    of the fields, and ``RatFunc.__eq__`` is exact.
    """

    value: Fraction | RatFunc
    pi_power: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.value, RatFunc):
            object.__setattr__(self, "value", Fraction(self.value))
        if not self.value:
            object.__setattr__(self, "pi_power", 0)

    def __add__(self, other: PiValue) -> PiValue:
        if not self.value:
            return other
        if not other.value:
            return self
        if self.pi_power != other.pi_power:
            raise PiPowerMismatchError(
                f"cannot add pi^{self.pi_power} and pi^{other.pi_power} terms"
            )
        return PiValue(self.value + other.value, self.pi_power)

    def __neg__(self) -> PiValue:
        return PiValue(-self.value, self.pi_power)

    def __sub__(self, other: PiValue) -> PiValue:
        return self + (-other)

    def __mul__(self, other: PiValue | RatFunc | Scalar) -> PiValue:
        if isinstance(other, PiValue):
            return PiValue(self.value * other.value, self.pi_power + other.pi_power)
        return PiValue(self.value * other, self.pi_power)

    def __truediv__(self, other: PiValue | RatFunc | Scalar) -> PiValue:
        if isinstance(other, PiValue):
            return PiValue(self.value / other.value, self.pi_power - other.pi_power)
        return PiValue(self.value / other, self.pi_power)

    def evaluate(self, point: Sequence[Scalar]) -> PiValue:
        """The value at a point of the chart: a RatFunc value becomes a Fraction."""
        return PiValue(self.value.evaluate(point), self.pi_power)

    def as_pi_free(self) -> Fraction | RatFunc:
        if self.pi_power != 0:
            raise PiPowerMismatchError(
                f"value carries pi^{self.pi_power}, not exportable as rational"
            )
        return self.value

    def render(self) -> str:
        text = self.value.render() if isinstance(self.value, RatFunc) else str(self.value)
        return text if self.pi_power == 0 else f"({text})*pi^{self.pi_power}"
