"""Second cohomology of the k-point blow-up of the projective plane.

Classes are stored in the (H, E1, E2, E3) basis with exceptional coefficients
carrying their natural sign: ``CohClass(h, e1, e2, e3)`` is the class
h*H - e1*E1 - e2*E2 - e3*E3, so that e_i is exactly the area of the i-th
exceptional curve.  The intersection pairing is Lorentzian,
<x, y> = h*h' - sum(e_i * e_i'), and the anticanonical class is (3, 1, 1, 1).

Entries may be exact rationals or parameter polynomials; all maps here are
linear, so both work uniformly.

The six-curve area vector uses the slot order of the polygon builder,
(a_E3, a_L13, a_E1, a_L12, a_E2, a_L23) with a_Ljk = <Omega, H - Ej - Ek>.
On the four linear coordinates (alpha, beta, gamma, delta) =
(a_E3, a_E2, a_E1, a_L12 - a_E3) the Cremona involution acts by
(alpha, beta, gamma, delta) -> (alpha+delta, beta+delta, gamma+delta, -delta).

A coordinate chart is a face of the cone: a substitution of (alpha, beta,
gamma, delta) that keeps the chart's variables, sends the rest of alpha, beta
and gamma to 0 and delta to 1 (``ConeChart.abcd_images``).  The k = 3 chart
has the variables (alpha, beta, gamma); the k = 2 chart is its alpha = 0 face,
with (beta, gamma).  The anticanonical class is ``c1_class(chart.k)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .poly import MultiPoly, Scalar, exact_scalar

Entry = Union[Fraction, MultiPoly]

ABCD = ("alpha", "beta", "gamma", "delta")


def _as_entry(name: str, value: Entry | int) -> Entry:
    """A MultiPoly as it is, an int or Fraction as a Fraction; nothing else,
    so that no float passes as an exact number."""
    return value if isinstance(value, MultiPoly) else exact_scalar(f"entry {name}", value)


class CohClass:
    """A cohomology class h*H - e1*E1 - e2*E2 - e3*E3 on the k-fold blow-up.

    Frozen; equal to a CohClass with equal fields and to nothing else.
    """

    __slots__ = ("h", "e1", "e2", "e3", "k")

    def __init__(self, h: Entry, e1: Entry, e2: Entry, e3: Entry, k: int = 3) -> None:
        if k not in (1, 2, 3):
            raise ValueError(f"k must be 1, 2, or 3, not {k}")
        h = _as_entry("h", h)
        exceptional = (_as_entry("e1", e1), _as_entry("e2", e2), _as_entry("e3", e3))
        for i in range(k, 3):
            if exceptional[i]:
                raise ValueError(f"e{i + 1} must vanish for k = {k}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "e1", exceptional[0])
        object.__setattr__(self, "e2", exceptional[1])
        object.__setattr__(self, "e3", exceptional[2])
        object.__setattr__(self, "k", k)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a CohClass")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a CohClass")

    def _key(self) -> tuple:
        return (self.h, self.e1, self.e2, self.e3, self.k)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CohClass:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def scale(self, factor: Scalar) -> CohClass:
        return CohClass(
            self.h * factor, self.e1 * factor, self.e2 * factor, self.e3 * factor, self.k
        )


def c1_class(k: int = 3) -> CohClass:
    """The anticanonical class 3H - E1 - ... - Ek."""
    ones = [Fraction(1)] * k + [Fraction(0)] * (3 - k)
    return CohClass(Fraction(3), ones[0], ones[1], ones[2], k)


def pair(x: CohClass, y: CohClass) -> Entry:
    """Lorentzian intersection pairing of signature (1, k)."""
    if x.k != y.k:
        raise ValueError(f"mismatched blow-up counts {x.k} and {y.k}")
    return x.h * y.h - x.e1 * y.e1 - x.e2 * y.e2 - x.e3 * y.e3


class AreaVector:
    """The six (-1)-curve areas of a class, in polygon slot order.

    Frozen; equal to an AreaVector with equal areas and to nothing else.
    """

    __slots__ = ("a_e3", "a_l13", "a_e1", "a_l12", "a_e2", "a_l23")

    def __init__(
        self, a_e3: Entry, a_l13: Entry, a_e1: Entry, a_l12: Entry, a_e2: Entry, a_l23: Entry
    ) -> None:
        values = (a_e3, a_l13, a_e1, a_l12, a_e2, a_l23)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, _as_entry(name, value))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an AreaVector")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an AreaVector")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AreaVector:
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def as_tuple(self) -> tuple[Entry, Entry, Entry, Entry, Entry, Entry]:
        return (self.a_e3, self.a_l13, self.a_e1, self.a_l12, self.a_e2, self.a_l23)

    @staticmethod
    def from_coh(omega: CohClass) -> AreaVector:
        h, e1, e2, e3 = omega.h, omega.e1, omega.e2, omega.e3
        return AreaVector(
            a_e3=e3,
            a_l13=h - e1 - e3,
            a_e1=e1,
            a_l12=h - e1 - e2,
            a_e2=e2,
            a_l23=h - e2 - e3,
        )

    def to_coh(self, k: int = 3) -> CohClass:
        h = self.a_l12 + self.a_e1 + self.a_e2
        omega = CohClass(h, self.a_e1, self.a_e2, self.a_e3, k)
        check_l13 = h - self.a_e1 - self.a_e3 - self.a_l13
        check_l23 = h - self.a_e2 - self.a_e3 - self.a_l23
        if check_l13 or check_l23:
            raise ValueError("area vector is inconsistent with a single class")
        return omega

    @staticmethod
    def from_abcd(alpha: Entry, beta: Entry, gamma: Entry, delta: Entry) -> AreaVector:
        alpha, beta, gamma, delta = map(
            _as_entry, ("alpha", "beta", "gamma", "delta"), (alpha, beta, gamma, delta)
        )
        return AreaVector(
            a_e3=alpha,
            a_l13=beta + delta,
            a_e1=gamma,
            a_l12=alpha + delta,
            a_e2=beta,
            a_l23=gamma + delta,
        )

    def to_abcd(self) -> tuple[Entry, Entry, Entry, Entry]:
        return (self.a_e3, self.a_e2, self.a_e1, self.a_l12 - self.a_e3)

    def scale(self, factor: Scalar) -> AreaVector:
        return AreaVector(*(value * factor for value in self.as_tuple()))


def cremona(x: CohClass | AreaVector) -> CohClass | AreaVector:
    """The Cremona involution: H -> 2H - E1 - E2 - E3, Ei -> H - Ej - Ek.

    On area vectors it swaps each exceptional area with the area of the
    opposite line; on (alpha, beta, gamma, delta) it negates delta after
    shifting the first three by it.  Defined for k = 3 only.
    """
    if isinstance(x, AreaVector):
        return AreaVector(
            a_e3=x.a_l12,
            a_l13=x.a_e2,
            a_e1=x.a_l23,
            a_l12=x.a_e3,
            a_e2=x.a_l13,
            a_l23=x.a_e1,
        )
    if x.k != 3:
        raise ValueError("the Cremona involution requires k = 3")
    h, e1, e2, e3 = x.h, x.e1, x.e2, x.e3
    return CohClass(
        2 * h - e1 - e2 - e3,
        h - e2 - e3,
        h - e1 - e3,
        h - e1 - e2,
        3,
    )


def subspace_membership(x: CohClass | AreaVector) -> tuple[bool, bool]:
    """(in_V, in_W) flags for the two invariant subspaces (k = 3).

    V is the Cremona-invariant hyperplane delta = a_L12 - a_E3 = 0; W is the
    cyclic-permutation-invariant plane a_E1 = a_E2 = a_E3.
    """
    areas = AreaVector.from_coh(x) if isinstance(x, CohClass) else x
    in_v = not (areas.a_l12 - areas.a_e3)
    in_w = not (areas.a_e1 - areas.a_e2) and not (areas.a_e2 - areas.a_e3)
    return in_v, in_w


class ConeChart:
    """A coordinate chart on the reduced Kahler cone, a face of ABCD.

    The E-label-to-polygon-corner assignment (area of E1 on the right chop,
    E2 on top, E3 at the origin chop) is fixed once here and shared by every
    module; it is pinned by the golden-formula comparisons.  Frozen, and
    hashed by value: it keys ``build_bundle``'s cache.
    """

    __slots__ = ("chart_id", "k", "variables")

    def __init__(self, chart_id: str, k: int, variables: tuple[str, ...]) -> None:
        object.__setattr__(self, "chart_id", chart_id)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "variables", variables)
        try:
            if len(set(variables)) != len(variables) or not set(variables) <= set(ABCD[:3]):
                raise ValueError(
                    f"its variables {variables} are not distinct names among {ABCD[:3]}"
                )
            self.area_vector().to_coh(k)  # e_i = 0 for i > k
        except ValueError as error:
            raise ValueError(f"unsupported chart {chart_id!r}: {error}") from None

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a ConeChart")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a ConeChart")

    def _key(self) -> tuple:
        return (self.chart_id, self.k, self.variables)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ConeChart:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def abcd_images(self) -> dict[str, MultiPoly]:
        """The chart as a substitution of ABCD: a listed variable maps to
        itself, an unlisted one to 0, and delta to 1."""
        images = dict.fromkeys(ABCD[:3], MultiPoly.zero(self.variables))
        images.update(zip(self.variables, MultiPoly.gens(self.variables)))
        return {**images, "delta": MultiPoly.const(self.variables, 1)}

    def area_vector(self) -> AreaVector:
        return AreaVector.from_abcd(*map(self.abcd_images().get, ABCD))


K2_CHART = ConeChart("k2", 2, ("beta", "gamma"))
K3_CHART = ConeChart("k3", 3, ("alpha", "beta", "gamma"))

CHARTS = {"k2": K2_CHART, "k3": K3_CHART}
