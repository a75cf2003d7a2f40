"""Exact sparse multivariate polynomials and rational functions.

A polynomial is a map from exponent tuples to nonzero integer numerators over
one positive integer denominator:

    beta^2*gamma + 3/2  over variables ("beta", "gamma")
        ->  numerators {(2, 1): 2, (0, 0): 3}, den 2

The pair is reduced, gcd(den, every numerator) = 1, so each polynomial has one
representation and the zero polynomial is ({}, 1).  Parts of canonical
rational functions, and products of them, have den 1: their arithmetic is
plain ``int`` arithmetic.  ``terms`` shows the coefficients as exact numbers.
Values are immutable after construction and every operation is a pure
function.  ``MultiPoly``, ``RatFunc`` and the records of
``delpezzo`` share one base, ``_Frozen``, that refuses assignment and
deletion and compares and hashes the fields.  ``MultiPoly`` and ``RatFunc``
keep their own equality: ``MultiPoly`` compares its int tables directly,
and ``RatFunc`` cross-multiplies and is unhashable.

Conventions:
  * two polynomials combine only over identical variable tuples;
  * term order for printing and for the sign of a denominator is graded
    reverse lexicographic (grevlex) in the declared variable order;
  * rational functions are held as numerator/denominator pairs, canonicalised
    to coprime integer parts with the denominator's grevlex-leading
    coefficient positive.  Equality holds at once when numerators and
    denominators are identical polynomials, fails at once when the extreme
    terms of the two cross products differ, and is otherwise decided by
    cross-multiplication, never by multivariate gcd;
  * evaluation at a rational point sums integers and divides once, in nested
    dot products over a layout that a polynomial forms on its first
    evaluation and keeps in a private field (``MultiPoly.evaluate``).  The
    layout lives and dies with its polynomial; equality, hashing, ``terms``
    and rendering never read it;
  * a product of at least 16 term pairs whose exponent box
    prod_i(deg_a,i + deg_b,i + 1) has no more slots than pairs is dense and
    is formed by Kronecker substitution: one multiply of two integers that
    hold the operands' numerators in slots, with B = max|a|*max|b|*min(#a, #b)
    bounding every output numerator.  When B < 2^63 and the box has at most
    ``_WORD_MAX_BOX`` slots the slots are 64-bit words, packed and read back
    by ``struct``, and CPython's int multiplies them.  Otherwise the slots
    are k decimal digits with 10^(k-1) > B, and the multiply is the standard
    library's ``decimal`` (libmpdec, whose number-theoretic transform wins on
    large operands).  It runs in a private context, always passed
    explicitly, that holds every integer exactly and traps any rounding;
    the thread's decimal context is never read or set.  A dense product
    whose k exceeds ``sys.get_int_max_str_digits()`` (its slots could not
    pass through ``int``) loops over term pairs, as other products do;
  * a directional second derivative of N/D is H_vv / D^3, its numerator
    H_ij = D*(G_i)_j - 2*G_i*D_j written once (``_structural_terms``).  D^3
    is formed once per denominator per process (``_cube``, keyed on D by
    value).  Each direction asked of (N, D) forms H_vv with four products
    until a second distinct one is asked (``_routes``, keyed on (N, D) by
    value); that forms the packed Hessian columns once (``_Hessian``), and
    every later direction is their linear combination, with no polynomial
    product.
"""

from __future__ import annotations

import sys
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
)
from fractions import Fraction
from functools import lru_cache
from itertools import compress, groupby, product, repeat
from math import gcd, lcm, prod
from operator import add, attrgetter, mul, sub
from struct import iter_unpack, pack, unpack
from types import MappingProxyType
from typing import Collection, Iterator, Mapping, Sequence, Union

Exponents = tuple[int, ...]
Scalar = Union[Fraction, int]


def exact_scalar(name: str, value: object) -> Fraction:
    """An int or Fraction as a Fraction; anything else, a float above all, is
    a TypeError naming ``name``, so that no rounded number passes as exact."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"{name} is {value!r}, not an int or Fraction")
    return Fraction(value)


class VariableMismatchError(ValueError):
    """Raised when combining polynomials over different variable tuples."""


class _Frozen:
    """Base of the package's immutable values.

    A subclass lists its fields in ``__slots__`` and sets them in ``__init__``
    through ``object.__setattr__``; afterwards assignment and deletion raise.
    An instance equals an instance of the same class whose fields, taken in
    ``__slots__`` order, are equal, and nothing else; it hashes those fields.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _key(self) -> tuple:
        return attrgetter(*self.__slots__)(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _check_variables(left: tuple[str, ...], right: tuple[str, ...]) -> None:
    """Polynomials and rational functions combine only over identical variable tuples."""
    if left != right:
        raise VariableMismatchError(f"variable lists differ: {left} vs {right}")


def grevlex_key(exponents: Exponents) -> tuple:
    """Sort key under which the grevlex-largest monomial compares greatest."""
    return (sum(exponents), tuple(-e for e in reversed(exponents)))


# Exponent tuples are packed into single integers during multiplication
# (component-wise addition becomes one int add).  24 bits per variable keeps
# every degree this package produces far from overflow; ``MultiPoly.__mul__``
# refuses operands whose exponent sums would carry into the next slot.
_PACK_BITS = 24

_DENSE_MIN_PAIRS = 16  # fewest term pairs for which a product may be dense
# Largest exponent box of a dense product in 64-bit word slots.  Up to it
# CPython's int multiply on words beats libmpdec's at bounds of 2^50 and more;
# beyond it libmpdec's number-theoretic transform, on decimal slots of fewer
# bits, overtakes it (timings over boxes 256 to 16,384 in CHANGES.md).
_WORD_MAX_BOX = 4096
_WORD_HALF = 1 << 63  # a word slot holds 2^63 + n for |n| < 2^63
_WORD_ZERO = _WORD_HALF.to_bytes(8, "little")

# Every dense product runs in this context, always passed explicitly: it holds
# any integer exactly, and a digit that would be lost raises instead of rounding.
_EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation, Overflow],
)


def _decimal(digits: bytes | bytearray) -> Decimal:
    return _EXACT.create_decimal(digits.decode("ascii"))


def _max_abs(p: MultiPoly) -> int:
    return max(map(abs, p.numerators.values()), default=0)


def _coefficient_bound(a: MultiPoly, b: MultiPoly) -> int:
    """min(#a, #b) * max|a| * max|b|, a bound on every numerator of a*b: each
    is a sum of at most min(#a, #b) products."""
    return min(len(a.numerators), len(b.numerators)) * _max_abs(a) * _max_abs(b)


def _slot_width(bound: int) -> int:
    """Digits k of a decimal slot with 10^(k-1) > ``bound``."""
    digits = bound.bit_length() * 1233 >> 12  # digits of bound, or fewer
    while 10 ** digits <= bound:
        digits += 1
    return digits + 1


def _pack(exponents: Exponents) -> int:
    packed = 0
    for e in reversed(exponents):
        packed = (packed << _PACK_BITS) | e
    return packed


def _unpack(keys: Collection[int], nvars: int) -> Iterator[Exponents]:
    """The exponent tuples of packed keys, in order: one comprehension per
    variable, at its precomputed shift, over all the keys."""
    if not nvars:
        return repeat((), len(keys))
    mask = (1 << _PACK_BITS) - 1
    shifts = range(0, nvars * _PACK_BITS, _PACK_BITS)
    return zip(*[[k >> shift & mask for k in keys] for shift in shifts])


def _grevlex_leading(p: MultiPoly) -> Exponents:
    """The grevlex-leading exponents of a nonzero polynomial, without a
    per-term key function: of the terms of top total degree, the one whose
    reversed exponent tuple is smallest."""
    keys = p.numerators.keys()
    degrees = list(map(sum, keys))
    top = max(degrees)
    return min(map(tuple, map(reversed, compress(keys, map(top.__eq__, degrees)))))[::-1]


class MultiPoly(_Frozen):
    """Sparse multivariate polynomial: nonzero int numerators over one int ``den``.

    ``numerators`` maps exponent tuples to nonzero ints and ``den`` is a
    positive int with gcd(den, every numerator) = 1; the coefficient of a
    monomial is its numerator divided by ``den``.
    """

    __slots__ = ("variables", "numerators", "den", "_layout")

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

    # -- constructors -------------------------------------------------------

    def _set(self, variables: tuple[str, ...], table: dict[Exponents, int], den: int) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "numerators", table)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_layout", None)  # formed by the first ``evaluate``

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

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: MultiPoly | Scalar) -> MultiPoly:
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.variables, other)
        _check_variables(self.variables, other.variables)
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
        through Kronecker substitution (``_mul_dense``).  Its slots must hold
        every output numerator, a sum of at most min(#a, #b) products, so
        each is bounded by B = max|a|*max|b|*min(#a, #b) in absolute value.
        When B < 2^63 and the box has at most ``_WORD_MAX_BOX`` slots, the
        slots are 64-bit words; otherwise they are k decimal digits with
        10^(k-1) > B.  When k exceeds ``sys.get_int_max_str_digits()`` (0
        means no limit) the decimal slots could not be converted to and from
        ints, and the product loops over term pairs like every other.  Either
        way the numerators multiply exactly over the product of dens.
        """
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        _check_variables(self.variables, other.variables)
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
            bound = _coefficient_bound(self, other)
            if bound < 1 << 63 and box <= _WORD_MAX_BOX:
                return self._mul_dense(other, box, None)
            width = _slot_width(bound)
            if width <= (sys.get_int_max_str_digits() or width):
                return self._mul_dense(other, box, width)
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
        table = {e: v for e, v in zip(_unpack(acc, nvars), acc.values()) if v}
        return MultiPoly._build(self.variables, table, self.den * other.den)

    def _mul_dense(self, other: MultiPoly, box: int, width: int | None) -> MultiPoly:
        """Kronecker substitution, one multiply: in 64-bit word slots when
        ``width`` is None, else in decimal slots of ``width`` digits.

        Exponent e maps to slot sum_i(e_i * stride_i) of the exponent box.
        In word slots, numerator n goes into its slot as the unsigned
        little-endian word 2^63 + n, packed by ``struct``; an operand is those
        words as one int less the all-2^63 offset, and the two multiply as
        ints.  Every output numerator c has |c| < 2^63 (the caller's bound),
        so each word of product + offset holds 2^63 + c with no carry between
        slots, and the box is read back with one ``struct.unpack``.
        In decimal slots, numerator n goes into its slot as the ``width``
        digits of half + n, with half = 5*10^(width-1).  An operand is that
        digit string as one Decimal less the all-half offset.  Every output
        numerator c has |c| < 10^(width-1), so each slot of product + offset
        holds half + c in exactly ``width`` digits with no carry between
        slots; the slots are read back from the string one at a time.  Every
        decimal operation runs in ``_EXACT``, which raises rather than lose a
        digit.
        """
        tops = [
            a + b for a, b in zip(map(max, zip(*self.numerators)), map(max, zip(*other.numerators)))
        ]
        # the last variable varies fastest, as in product()
        strides = [prod(t + 1 for t in tops[i + 1:]) for i in range(len(tops))]
        if width is None:
            factors = []
            for poly in (self, other):
                slots = [sum(map(mul, e, strides)) for e in poly.numerators]
                count = max(slots) + 1
                words = [_WORD_HALF] * count
                for slot, n in zip(slots, poly.numerators.values()):
                    words[slot] = _WORD_HALF + n
                offset = int.from_bytes(_WORD_ZERO * count, "little")
                factors.append(int.from_bytes(pack(f"<{count}Q", *words), "little") - offset)
            total = factors[0] * factors[1] + int.from_bytes(_WORD_ZERO * box, "little")
            # one word per box exponent, bottom slot first; the filters run in C
            words = unpack(f"<{box}Q", total.to_bytes(8 * box, "little"))
            used = list(map(_WORD_HALF.__ne__, words))
            exponents = compress(product(*[range(top + 1) for top in tops]), used)
            table = dict(zip(exponents, map(sub, compress(words, used), repeat(_WORD_HALF))))
            return MultiPoly._build(self.variables, table, self.den * other.den)
        half = 5 * 10 ** (width - 1)
        zero = b"%d" % half
        factors = []
        for poly in (self, other):
            slots = [(sum(map(mul, e, strides)), n) for e, n in poly.numerators.items()]
            count = max(slot for slot, _ in slots) + 1
            digits = bytearray(zero * count)
            for slot, n in slots:
                at = (count - 1 - slot) * width
                digits[at:at + width] = b"%d" % (half + n)
            factors.append(_EXACT.subtract(_decimal(digits), _decimal(zero * count)))
        total = _EXACT.add(_EXACT.multiply(*factors), _decimal(zero * box))
        # the digits run from the top slot down, as do these exponent tuples
        slots = iter_unpack(f"{width}s", _EXACT.to_sci_string(total).encode("ascii"))
        exponents = product(*[range(top, -1, -1) for top in tops])
        table = {e: int(digit) - half for e, (digit,) in zip(exponents, slots) if digit != zero}
        return MultiPoly._build(self.variables, table, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, value: Scalar) -> MultiPoly:
        if value == 1:
            return self  # immutable, so the same polynomial serves
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
        """Exact formal partial derivative with respect to a declared variable."""
        if name not in self.variables:
            raise ValueError(f"unknown variable {name!r} in {self.variables}")
        idx = self.variables.index(name)
        table: dict[Exponents, int] = {}
        for exps, n in self.numerators.items():
            e = exps[idx]
            if e:
                table[exps[:idx] + (e - 1,) + exps[idx + 1:]] = n * e
        return MultiPoly._build(self.variables, table, self.den)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point, accumulated as a single integer.

        The sum is homogenised: with x_i = p_i/q_i and D_i the top exponent
        of variable i, term n*prod(x_i^e_i) times prod(q_i^D_i) is the integer
        n * prod(w_i[e_i]), with w_i[e] = p_i^e * q_i^(D_i-e) formed only for
        exponents that occur, and the total is divided by den * prod(q_i^D_i)
        once.  It is summed in the nested (Horner) order of the layout that
        the first call forms (``_grouped``): each group is one dot product,
        and the group sums fold outward one variable at a time.  A coordinate
        that is not an int or Fraction is a TypeError.
        """
        if len(point) != len(self.variables):
            raise ValueError(
                f"point has {len(point)} coordinates, expected {len(self.variables)}"
            )
        point = [exact_scalar(f"coordinate {v}", x) for v, x in zip(self.variables, point)]
        if not self.variables or not self.numerators:
            return Fraction(self.numerators.get((), 0), self.den)
        if self._layout is None:
            object.__setattr__(self, "_layout", self._grouped())
        used, values, folds = self._layout
        scale = self.den
        weights = []
        for x, (exponents, top) in zip(point, used):
            p, q = x.numerator, x.denominator
            weights.append({e: p ** e * q ** (top - e) for e in exponents})
            scale *= q ** top
        for fold in folds:
            weight = weights.pop().__getitem__
            values = [
                sum(map(mul, values[start:stop], map(weight, exponents)))
                for start, stop, exponents in fold
            ]
        return Fraction(values[0], scale)

    def _grouped(self) -> tuple:
        """``evaluate``'s layout of a nonzero polynomial in at least one
        variable: per variable, the exponents that occur and their top; the
        numerators in sorted exponent order; and per variable, last to first,
        a fold with one (start, stop, exponents) per prefix one exponent
        shorter, whose children are the values start:stop of the level
        before.  The first fold groups the terms by every exponent but the last.
        """
        keys = sorted(self.numerators)
        used = tuple((tuple(set(column)), max(column)) for column in zip(*keys))
        numerators = tuple(map(self.numerators.__getitem__, keys))
        folds = []
        while keys[0]:
            fold, parents, start = [], [], 0
            for parent, run in groupby(keys, key=lambda e: e[:-1]):
                exponents = tuple(e[-1] for e in run)
                fold.append((start, start + len(exponents), exponents))
                parents.append(parent)
                start += len(exponents)
            folds.append(tuple(fold))
            keys = parents
        return used, numerators, tuple(folds)

    def substitute(
        self,
        images: Mapping[str, MultiPoly | Scalar],
        variables: Sequence[str],
    ) -> MultiPoly:
        """Map every variable to a polynomial over ``variables`` and expand.

        When every image is a single term c_i*m_i (zero is 0*1), each term
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
        if all(len(img.numerators) <= 1 for img in image_polys):
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
        zero = ((0,) * len(target), 0)  # the zero image, 0*1 (0**0 == 1)
        monomials = [next(iter(img.numerators.items()), zero) + (img.den,) for img in images]
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


def directional_derivative(p: MultiPoly, direction: Sequence[int]) -> MultiPoly:
    if len(direction) != len(p.variables):
        raise ValueError("direction length must match the variable count")
    parts = [p.diff(name).scale(weight) for name, weight in zip(p.variables, direction) if weight]
    return sum(parts[1:], parts[0]) if parts else MultiPoly.zero(p.variables)


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


class RatFunc(_Frozen):
    """Quotient of two MultiPoly values; denominator nonzero.

    ``RatFunc.make`` produces the canonical representative: both parts scaled
    to coprime integer coefficients, so that each has ``den`` 1, and the
    denominator's grevlex-leading coefficient positive.  No polynomial
    cancellation is ever attempted.  Two values with equal numerators and
    equal denominators are equal at once; any other pair is compared by
    cross-multiplication, after a comparison of the products' extreme terms
    that can refute it without forming them.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        _check_variables(num.variables, den.variables)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def make(num: MultiPoly, den: MultiPoly) -> RatFunc:
        """Canonical form: coprime int parts, each with den 1, positive-leading denominator.

        num/den = (N/a)/(D/b) for int numerator tables N, D and dens a, b, so
        the pair is cross-scaled to N*b and D*a and divided by the gcd of all
        their numerators, negated when D's grevlex-leading numerator is < 0.
        """
        _check_variables(num.variables, den.variables)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return RatFunc(num, MultiPoly.const(den.variables, 1))
        top = {e: n * den.den for e, n in num.numerators.items()}
        bottom = {e: n * num.den for e, n in den.numerators.items()}
        content = gcd(*top.values(), *bottom.values())
        if den.numerators[_grevlex_leading(den)] < 0:
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

    def equals(self, other: RatFunc) -> bool:
        """Identical forms are equal; otherwise num1*den2 == num2*den1.

        Before either product is formed, its lex-leading and lex-trailing
        terms are compared, exponents and exact coefficients: under a
        monomial order the extreme terms of a product are the products of
        its factors' extreme terms, so a difference there proves the forms
        unequal.  When they agree, the full cross-multiplication decides.
        A zero numerator equals only a zero numerator (denominators are
        nonzero).
        """
        _check_variables(self.variables, other.variables)
        if self.num == other.num and self.den == other.den:
            return True
        if not self.num or not other.num:
            return not self.num and not other.num
        if _extreme_terms(self.num, other.den) != _extreme_terms(other.num, self.den):
            return False
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

    def render(self) -> str:
        if self.den == MultiPoly.const(self.variables, 1):
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self) -> str:
        return f"RatFunc({self.render()!r})"


def _extreme_terms(a: MultiPoly, b: MultiPoly) -> list[tuple[Exponents, Fraction]]:
    """The lex-leading and lex-trailing terms of a*b, for nonzero a and b, without
    forming it."""
    out = []
    for pick in (max, min):
        ea, eb = pick(a.numerators), pick(b.numerators)
        coefficient = Fraction(a.numerators[ea] * b.numerators[eb], a.den * b.den)
        out.append((tuple(map(add, ea, eb)), coefficient))
    return out


def _coerce(value: RatFunc | MultiPoly | Scalar, variables: tuple[str, ...]) -> RatFunc:
    if isinstance(value, RatFunc):
        _check_variables(value.variables, variables)
        return value
    if isinstance(value, MultiPoly):
        return RatFunc.from_poly(value)
    return RatFunc.const(variables, value)


def directional_second_derivative(f: RatFunc, direction: Sequence[Scalar]) -> RatFunc:
    """Second derivative of f along a constant direction with rational components.

    For f = N/D it is H_vv / D^3, H_vv = D*(G_v)_v - 2*G_v*D_v with
    G_v = N_v*D - N*D_v and X_v the derivative of X along v, written once in
    ``_structural_terms``.  Nothing cancels: the denominator is exactly D^3,
    shared by every direction, and the numerator's coefficient signs are
    those of this structural form, which positivity certificates inspect.

    ``_routes`` holds one record per objective (N, D), keyed by value.  The
    first direction forms H_vv directly, with four products, and is recorded;
    asked again, it is formed again the same way.  A second distinct
    direction forms the Hessian numerators once (``_Hessian``), and every
    later direction v is the quadratic form sum_ij v_i*v_j*H_ij, with no
    product.  Both routes give the same canonical ``MultiPoly``; the CLI asks
    one direction per objective and never pays for the Hessian.
    """
    if len(direction) != len(f.variables):
        raise ValueError("direction length must match the variable count")
    direction = tuple(direction)
    n, d = f.num, f.den
    key = (n, d)
    route = _routes.setdefault(key, direction)
    if isinstance(route, tuple) and route != direction:
        route = _routes[key] = _Hessian(n, d)
    numerator = None if isinstance(route, tuple) else route.along(direction)
    if numerator is None:
        (_, _, first), (_, _, second) = _structural_terms(n, d, (direction,))
        numerator = first + second
    return RatFunc(numerator, _cube(d))


def _structural_terms(
    n: MultiPoly, d: MultiPoly, directions: Sequence[Sequence[Scalar]]
) -> Iterator[tuple[int, int, MultiPoly]]:
    """(i, j, term) for the two terms of each H_ij, i <= j, one at a time:
    D*(G_i)_j, then -2*G_i*D_j, with G_i = N_i*D - N*D_i and X_i the
    derivative of X along ``directions[i]``.  G_i takes two products and each
    term one; the signs ride on derivatives of D, so no term is scaled.
    """
    d_partials = [directional_derivative(d, v) for v in directions]
    for i, v in enumerate(directions):
        g = directional_derivative(n, v) * d + n * -d_partials[i]
        for j in range(i, len(directions)):
            yield i, j, d * directional_derivative(g, directions[j])
            yield i, j, g * d_partials[j].scale(-2)


@lru_cache(maxsize=None)
def _cube(d: MultiPoly) -> MultiPoly:
    """D^3, keyed on D by value (MultiPoly is immutable and hashes its terms)."""
    return d ** 3


# per objective (N, D), keyed by value like ``_cube``: the first direction
# asked of it, until a second distinct one forms its Hessian
_routes: dict[tuple[MultiPoly, MultiPoly], tuple[Scalar, ...] | _Hessian] = {}


class _Hessian:
    """The Hessian numerators H_ij of f = N/D over D^3, packed one int per column.

    H_ij comes from ``_structural_terms`` over the unit basis, and the
    structural numerator along v is sum_{i<=j} c_ij*H_ij with c_ii = v_i^2
    and c_ij = 2*v_i*v_j.  Column ij stores H_ij for integer N and D (each
    part's own den is divided out again in ``along``) as the int
    sum_s h_s * 2^(w*s): h_s is the coefficient at slot s of the exponent box
    with tops deg_k(N) + 2*deg_k(D), laid out as in ``MultiPoly._mul_dense``,
    and w = 8*``size`` bits.  Slots are signed, so the packing is linear: a
    combination of columns is the packed combination, read back slot by slot
    when |every slot| < 2^(w-1).  Each term is packed and dropped before the
    next is formed (holding one longer raised the k = 3 peak by 0.9 MB).
    """

    __slots__ = ("variables", "den", "tops", "strides", "box", "size", "columns")

    def __init__(self, n: MultiPoly, d: MultiPoly):
        variables = n.variables
        self.variables = variables
        self.den = n.den * d.den ** 2
        n = MultiPoly._build(variables, n.numerators)  # the same int table, over den 1
        d = MultiPoly._build(variables, d.numerators)
        self.tops = [
            max((e[k] for e in n.numerators), default=0)
            + 2 * max((e[k] for e in d.numerators), default=0)
            for k in range(len(variables))
        ]
        # the last variable varies fastest, as in product()
        self.strides = [prod(t + 1 for t in self.tops[k + 1:]) for k in range(len(self.tops))]
        self.box = prod(t + 1 for t in self.tops)
        # Each term is a sum of four signed triple products f*g*h (f a derivative
        # of N, g and h of D, two derivatives in all), and a coefficient of f*g*h
        # is at most #g*#h*max|f|*max|g|*max|h| <= #D^2 * deg^2 * max|N| * max|D|^2.
        degree = max((max(e) for p in (n, d) for e in p.numerators), default=0)
        bound = 4 * len(d.numerators) ** 2 * degree ** 2 * _max_abs(n) * _max_abs(d) ** 2
        self.size = (bound.bit_length() + 8) // 8  # 2^(8*size - 1) > bound
        basis = [tuple(int(k == i) for k in range(len(variables))) for i in range(len(variables))]
        columns: dict[tuple[int, int], tuple[int, int]] = {}  # (i, j): (packed H_ij, max|H_ij|)
        for i, j, term in _structural_terms(n, d, basis):
            packed, top = columns.get((i, j), (0, 0))
            columns[i, j] = tuple(map(add, (packed, top), self._pack(term)))
            del term, packed  # dropped before the next term is formed
        self.columns = [(i, j, packed, top) for (i, j), (packed, top) in columns.items()]

    def _pack(self, p: MultiPoly) -> tuple[int, int]:
        """sum_s h_s * 2^(8*size*s) for the coefficients h_s of p in their box
        slots, and max|h_s|."""
        size, strides = self.size, self.strides
        half = 1 << (8 * size - 1)
        zero = half.to_bytes(size, "little")
        digits = bytearray(zero * self.box)
        for e, n in p.numerators.items():
            at = sum(map(mul, e, strides)) * size
            digits[at:at + size] = (half + n).to_bytes(size, "little")
        offset = int.from_bytes(zero * self.box, "little")
        return int.from_bytes(digits, "little") - offset, _max_abs(p)

    def along(self, direction: tuple[Scalar, ...]) -> MultiPoly | None:
        """The structural numerator along ``direction``, or None when some slot
        of the combination might not fit.

        Rational components are cleared by q, the lcm of their denominators:
        the numerator along v is the numerator along w = q*v over q^2.
        """
        q = lcm(*(c.denominator for c in direction))
        w = [int(c * q) for c in direction]
        size = self.size
        half = 1 << (8 * size - 1)
        total = bound = 0
        for i, j, packed, top in self.columns:
            c = w[i] * w[j] if i == j else 2 * w[i] * w[j]
            if c:
                total += c * packed
                bound += abs(c) * top
        if bound >= half:
            return None
        zero = half.to_bytes(size, "little")
        total += int.from_bytes(zero * self.box, "little")
        # one slot per box exponent, in slot order; the filters run in C
        slots = unpack(f"{size}s" * self.box, total.to_bytes(self.box * size, "little"))
        used = list(map(zero.__ne__, slots))
        exponents = compress(product(*[range(top + 1) for top in self.tops]), used)
        values = map(int.from_bytes, compress(slots, used), repeat("little"))
        table = dict(zip(exponents, map(sub, values, repeat(half))))
        return MultiPoly._build(self.variables, table, self.den * q * q)

