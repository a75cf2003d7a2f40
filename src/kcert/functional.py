"""Assembly of the scale-invariant objective over the Kahler cone.

For a class Omega the objective is

    calA(Omega) = (c1 . Omega)^2 / Omega^2  +  ||F(Omega)||^2 / (32 pi^2)

where F = (F1, F2) are the two moment-weighted curvature obstructions and the
norm is taken against the inverse of the central second-moment matrix of the
moment polygon.  Everything here reduces to exact polygon data:

    c1 . Omega  =  lattice perimeter of the polygon,
    Omega^2     =  2 * area,
    F_i         =  2 [ boundary(w_i) - perimeter/area * interior(w_i) ],
    A, B, C     =  central second moments / (4 pi^2).

Two independent computations of F_i are provided: the transcribed closed
forms on the coordinate charts and the boundary-measure route above; their
agreement is a pipeline identity.  The closed forms are written once, over
(alpha, beta, gamma, delta) and homogeneous by delta; so are the polygon
integrals, from one polygon per process (``_cone_ingredients``), and each
chart takes both by substitution (``ConeChart.abcd_images``).
``futaki_norm_sq`` forms ||F||^2 generically on ``PiValue``s, a second route
to the structured assembly below.  A quantity with a power of pi is a
``PiValue``, so that only genuinely pi-free quantities are ever exported as
plain rational functions.

Denominator discipline: the objective is assembled over the structured
denominator 8 * area * det, where det is the numerator of the moment
determinant over area^2.  This keeps the convexity certificates' denominators
manifestly positive and the second-derivative computation affordable; no
cancellation is attempted anywhere.

One assembly serves both routes: its formulas use operators only, so they
build the chart rational functions on MultiPolys and the values at a numeric
area vector on the Fractions the numeric polygon's integrals return, with no
polynomial at all.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from . import univar
from .delpezzo import (
    ABCD,
    AreaVector,
    CohClass,
    ConeChart,
    K2_CHART,
    c1_class,
    pair,
    subspace_membership,
)
from .poly import (
    MultiPoly,
    PiValue,
    RatFunc,
    Scalar,
    directional_second_derivative,
)
from .polytope import (
    ParamPolygon,
    build_polygon,
    boundary_integral,
    central_moment_numerators,
    central_second_moments,
    integrate_monomial,
    lattice_perimeter,
)


class DegenerateMomentMatrix(ZeroDivisionError):
    """The central second-moment matrix is singular (det = 0)."""


def _closed_form_brackets() -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(bracket1, bracket2, volume) over ABCD with F_i = bracket_i / volume,
    homogeneous by delta: the brackets of degree 3, the volume of degree 2."""
    alpha, beta, gamma, delta = MultiPoly.gens(ABCD)
    b1 = (alpha + beta - 2 * gamma) * (gamma ** 2 + gamma * delta + delta ** 2 / 3) + (
        gamma - alpha
    ) * (gamma - beta) * (alpha + beta + 2 * gamma + 2 * delta)
    b2 = (alpha + gamma - 2 * beta) * (beta ** 2 + beta * delta + delta ** 2 / 3) + (
        beta - alpha
    ) * (beta - gamma) * (alpha + gamma + 2 * beta + 2 * delta)
    volume = alpha * beta + (alpha + beta) * gamma + (alpha + beta + gamma + delta / 2) * delta
    return b1, b2, volume


def _on_chart(chart: ConeChart, polys: Sequence[MultiPoly]) -> list[MultiPoly]:
    images = chart.abcd_images()
    return [p.substitute(images, chart.variables) for p in polys]


def futaki_closed_form(chart: ConeChart) -> tuple[RatFunc, RatFunc]:
    """The transcribed closed forms of the two obstruction components."""
    b1, b2, volume = _on_chart(chart, _closed_form_brackets())
    return RatFunc.make(b1, volume), RatFunc.make(b2, volume)


def _polygon_from_areas(
    areas: AreaVector | Sequence[MultiPoly | Scalar],
    variables: Sequence[str] = (),
) -> ParamPolygon:
    entries = areas.as_tuple() if isinstance(areas, AreaVector) else tuple(areas)
    return build_polygon(entries, variables)


def _obstruction_numerators(polygon: ParamPolygon) -> tuple:
    """(area, perimeter, m10, m01, q1, q2) with F_i = q_i / area and
    q_i = 2 [ boundary(w_i) * area - perimeter * interior(w_i) ], w = (u, v),
    in the polygon's type: MultiPolys, or Fractions for a numeric polygon.
    """
    area = integrate_monomial(polygon, 0, 0)
    perimeter = lattice_perimeter(polygon)
    m10 = integrate_monomial(polygon, 1, 0)
    m01 = integrate_monomial(polygon, 0, 1)
    bu = boundary_integral(polygon, 1, 0)
    bv = boundary_integral(polygon, 0, 1)
    q1 = (bu * area - perimeter * m10) * 2
    q2 = (bv * area - perimeter * m01) * 2
    return area, perimeter, m10, m01, q1, q2


def futaki_boundary(
    areas: AreaVector | Sequence[MultiPoly | Scalar],
    variables: Sequence[str] = (),
) -> tuple[RatFunc, RatFunc]:
    """Obstruction components from boundary and interior polygon integrals.

    Exact in the cone parameters; see ``_obstruction_numerators``.  Numeric
    areas go to ``evaluate_futaki_on_areas``.
    """
    if not variables:
        raise ValueError(
            "futaki_boundary needs the cone variables; "
            "use evaluate_futaki_on_areas for numeric areas"
        )
    area, _, _, _, q1, q2 = _obstruction_numerators(_polygon_from_areas(areas, variables))
    return RatFunc.make(q1, area), RatFunc.make(q2, area)


def futaki_norm_sq(
    f1: RatFunc | PiValue,
    f2: RatFunc | PiValue,
    a: PiValue,
    b: PiValue,
    c: PiValue,
) -> PiValue:
    """||F||^2 = (B F1^2 - 2 C F1 F2 + A F2^2) / (AB - C^2); carries pi^2."""
    numerator = b * f1 * f1 - (c * f1 * f2) * 2 + a * f2 * f2
    determinant = a * b - c * c
    if not determinant.value:
        raise DegenerateMomentMatrix("moment matrix determinant vanishes")
    return numerator / determinant


def objective_parts(perimeter, volume, puu, pvv, puv, q1, q2) -> tuple:
    """(det, N_F, numerator, denominator) with calA = numerator / denominator:

        det  = puu*pvv - puv^2,
        N_F  = q1^2*pvv - 2*q1*q2*puv + q2^2*puu,
        calA = [ 4 * perimeter^2 * det + N_F ] / [ 8 * V * det ],

    F_i = q_i / V.  Operators only: runs on MultiPolys and Fractions alike.
    """
    det = puu * pvv - puv * puv
    if not det:
        raise DegenerateMomentMatrix("moment matrix determinant vanishes")
    n_f = q1 * q1 * pvv - q1 * q2 * puv * 2 + q2 * q2 * puu
    return det, n_f, perimeter * perimeter * det * 4 + n_f, volume * det * 8


class FunctionalBundle(NamedTuple):
    """Every exact ingredient of the objective on one coordinate chart."""

    chart: ConeChart
    volume: MultiPoly              # V = area of the moment polygon = Omega^2/2
    c1_pairing: MultiPoly          # c1 . Omega = lattice perimeter
    f1: RatFunc
    f2: RatFunc
    a: PiValue                     # carries pi^-2
    b: PiValue
    c: PiValue
    calA: RatFunc


@lru_cache(maxsize=None)
def _cone_ingredients() -> tuple[MultiPoly, ...]:
    """(volume, puu, pvv, puv, perimeter, b1, b2) over ABCD, from one polygon:
    every chart's bundle is these seven polynomials under its substitution."""
    polygon = _polygon_from_areas(AreaVector.from_abcd(*MultiPoly.gens(ABCD)), ABCD)
    volume, puu, pvv, puv = central_second_moments(polygon)
    b1, b2, volume_closed = _closed_form_brackets()
    if volume != volume_closed:
        raise AssertionError("polygon area disagrees with the closed-form volume polynomial")
    return volume, puu, pvv, puv, lattice_perimeter(polygon), b1, b2


@lru_cache(maxsize=None)
def build_bundle(chart: ConeChart) -> FunctionalBundle:
    """Assemble the objective and its ingredients on a chart, exactly.

    Substitutes ``_cone_ingredients``; the second term and the full objective
    share the structured denominator 8 * V * det of ``objective_parts``, with
    the closed-form brackets as the obstruction numerators q_i.
    """
    volume, puu, pvv, puv, perimeter, b1, b2 = _on_chart(chart, _cone_ingredients())
    quarter = Fraction(1, 4)
    a = PiValue(RatFunc.make(puu.scale(quarter), volume), -2)
    b = PiValue(RatFunc.make(pvv.scale(quarter), volume), -2)
    c = PiValue(RatFunc.make(puv.scale(quarter), volume), -2)
    _, _, numerator, denominator = objective_parts(perimeter, volume, puu, pvv, puv, b1, b2)
    return FunctionalBundle(
        chart=chart,
        volume=volume,
        c1_pairing=perimeter,
        f1=RatFunc.make(b1, volume),
        f2=RatFunc.make(b2, volume),
        a=a,
        b=b,
        c=c,
        calA=RatFunc.make(numerator, denominator),
    )


class DiagonalRestriction(NamedTuple):
    """The one-variable restriction of the k=2 objective to beta = gamma.

    f is the restriction in lowest terms (univariate reduction only); its
    derivatives are published through the printed convention d f = 12 P / den^2
    and d2 f = 12 Q / den^3, structural denominators, no cancellation.
    """

    f: RatFunc
    p: MultiPoly
    q: MultiPoly
    df: RatFunc

    def df_at(self, x: Scalar) -> Fraction:
        return self.df.evaluate((x,))

    def f_at(self, x: Scalar) -> Fraction:
        return self.f.evaluate((x,))


@lru_cache(maxsize=None)
def restrict_diagonal() -> DiagonalRestriction:
    """Substitute gamma := beta into the k=2 objective and reduce."""
    cal_a = build_bundle(K2_CHART).calA
    x = MultiPoly.variable(("beta",), "beta")
    images = {"beta": x, "gamma": x}
    raw_num = cal_a.num.substitute(images, ("beta",))
    raw_den = cal_a.den.substitute(images, ("beta",))
    num_coeffs = univar.from_multipoly(raw_num)
    den_coeffs = univar.from_multipoly(raw_den)
    common = univar.poly_gcd(num_coeffs, den_coeffs)
    f = RatFunc.make(
        univar.to_multipoly(univar.exact_quotient(num_coeffs, common), "beta", raw_num.den),
        univar.to_multipoly(univar.exact_quotient(den_coeffs, common), "beta", raw_den.den),
    )
    n, d = f.num, f.den
    d1_num = n.diff("beta") * d - n * d.diff("beta")
    twelfth = Fraction(1, 12)
    return DiagonalRestriction(
        f=f,
        p=d1_num.scale(twelfth),
        q=directional_second_derivative(f, (1,)).num.scale(twelfth),
        df=RatFunc(d1_num, d * d),
    )


def first_variation_along_c1(omega: CohClass) -> Fraction:
    """d/dt at t=0 of the objective along Omega + t*c1, for Omega in V or W.

    On those subspaces the obstruction term vanishes, so the objective is
    (c1 . Omega)^2 / Omega^2 and the variation is
    2 (c1 . Omega) / (Omega^2)^2 * [ Omega^2 c1^2 - (c1 . Omega)^2 ].
    """
    if omega.k != 3:
        raise ValueError("the c1-direction variation is a k = 3 computation")
    in_v, in_w = subspace_membership(omega)
    if not (in_v or in_w):
        raise ValueError("class lies in neither invariant subspace")
    omega_sq = pair(omega, omega)
    if omega_sq == 0:
        raise ZeroDivisionError("null class: Omega^2 = 0")
    c1 = c1_class(3)
    p = pair(c1, omega)
    c1_sq = pair(c1, c1)
    return 2 * p * (omega_sq * c1_sq - p * p) / (omega_sq * omega_sq)


def evaluate_calA_on_areas(areas: Sequence[Scalar] | AreaVector) -> Fraction:
    """Exact objective value from a numeric six-area vector.

    Runs the full polygon pipeline (moments, boundary obstructions) at one
    rational point, in Fractions; used for classes outside the coordinate
    charts and for invariance sampling.
    """
    polygon = _polygon_from_areas(areas)
    area, perimeter, m10, m01, q1, q2 = _obstruction_numerators(polygon)
    m20, m11, m02 = (integrate_monomial(polygon, a, b) for a, b in ((2, 0), (1, 1), (0, 2)))
    puu, pvv, puv = central_moment_numerators(area, m10, m01, m20, m11, m02)
    _, _, numerator, denominator = objective_parts(perimeter, area, puu, pvv, puv, q1, q2)
    return numerator / denominator


def evaluate_futaki_on_areas(
    areas: Sequence[Scalar] | AreaVector,
) -> tuple[Fraction, Fraction]:
    """Exact obstruction components at a numeric six-area vector, in Fractions."""
    polygon = _polygon_from_areas(areas)
    area, _, _, _, q1, q2 = _obstruction_numerators(polygon)
    return q1 / area, q2 / area


STANDARD_SAMPLE_POINTS = {
    "k2": ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))),
    "k3": (
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2), Fraction(3)),
    ),
}


# the exported name of each bundle quantity -> its FunctionalBundle field,
# in the order the chart summaries list them
QUANTITIES = {
    "V": "volume",
    "c1_pairing": "c1_pairing",
    "F1": "f1",
    "F2": "f2",
    "A": "a",
    "B": "b",
    "C": "c",
    "calA": "calA",
}


def quantity_text(bundle: FunctionalBundle, name: str, point: Sequence[Scalar]) -> str:
    """The exact text of the quantity ``name`` of ``QUANTITIES`` at ``point``;
    A, B and C carry their power of pi."""
    value = getattr(bundle, QUANTITIES[name]).evaluate(point)
    return value.render() if isinstance(value, PiValue) else str(value)


def bundle_summary(chart: ConeChart) -> dict:
    """Canonical text of the bundle plus evaluations at standard points."""
    bundle = build_bundle(chart)
    evaluations = {
        ",".join(str(x) for x in point): {
            name: quantity_text(bundle, name, point) for name in QUANTITIES
        }
        for point in STANDARD_SAMPLE_POINTS[chart.chart_id]
    }
    return {
        "chart": chart.chart_id,
        "volume": bundle.volume.render(),
        "c1_pairing": bundle.c1_pairing.render(),
        "F1": bundle.f1.render(),
        "F2": bundle.f2.render(),
        "calA": bundle.calA.render(),
        "evaluations": evaluations,
    }
