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

F_i is computed two independent ways, both once per process over
(alpha, beta, gamma, delta) by ``_cone_ingredients``: the transcribed closed
forms, brackets b_i homogeneous by delta, and the boundary-measure route
above, numerators q_i from the one polygon's edge pass.  ``veritas`` certifies
q_i = delta * b_i in every run.  Each chart takes the closed forms and the
polygon integrals by substitution (``ConeChart.abcd_images``).
A, B and C are held pi-free, as the central second moments over 4: their
factor pi^-2 cancels out of the objective and is attached only when
``quantity_text`` prints them.

Denominator discipline: no cancellation is attempted anywhere.  The chart
bundles hold the Gram form (``gram_parts``), calA = beta^T adj(M) beta /
(2 det M) with M the Gram matrix of (1, u, v) over the polygon and beta =
(perimeter, boundary(u), boundary(v)), one half of beta^T M^-1 beta
(S. K. Donaldson, J. Differential Geom. 62 (2002); M. Abreu, Internat. J.
Math. 9 (1998)).  Over ABCD it is homogeneous of degree 10 and det M has no
negative coefficient, so the convexity certificates' denominators stay
manifestly positive.  The structured form (``objective_parts``),
[4 perimeter^2 det + N_F] / [8 area det] with det = area * det M the
numerator of the central moment determinant, is 4 area^2 times it, part by
part, which ``veritas`` certifies; over ABCD it has 512/428 terms
against 226/181.

The numeric route (``evaluate_calA_on_areas``) keeps the structured form, so
that a chart value and a polygon value come from two formulas.  It runs on
the ints of the polygon dilated by 6L (``dilated_moments``), operators only,
with no polynomial and no Fraction before one division at the end.  Either
route reads every integral from one pass over the polygon's edges
(``polytope.moments`` or ``polytope.dilated_moments``), once per polygon.
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
    RatFunc,
    Scalar,
    directional_second_derivative,
)
from .polytope import (
    ParamPolygon,
    build_polygon,
    central_moment_numerators,
    dilated_moments,
    moments,
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


def _polygon_from_areas(
    areas: AreaVector | Sequence[MultiPoly | Scalar],
    variables: Sequence[str] = (),
) -> ParamPolygon:
    entries = areas.as_tuple() if isinstance(areas, AreaVector) else tuple(areas)
    return build_polygon(entries, variables)


def _obstruction_numerators(interior: Sequence, boundary: Sequence) -> tuple:
    """(q1, q2) with F_i = q_i / area and
    q_i = 2 [ boundary(w_i) * area - perimeter * interior(w_i) ], w = (u, v),
    from one pass's integrals (``polytope.MONOMIALS`` order): exact MultiPolys
    on a symbolic polygon, ints over the polygon dilated by 6L on a numeric one.
    """
    area, m10, m01 = interior[:3]
    perimeter, b10, b01 = boundary
    return (b10 * area - perimeter * m10) * 2, (b01 * area - perimeter * m01) * 2


def objective_parts(perimeter, volume, puu, pvv, puv, q1, q2) -> tuple:
    """(det, N_F, numerator, denominator) with calA = numerator / denominator:

        det  = puu*pvv - puv^2,
        N_F  = q1^2*pvv - 2*q1*q2*puv + q2^2*puu,
        calA = [ 4 * perimeter^2 * det + N_F ] / [ 8 * V * det ],

    F_i = q_i / V.  Operators only: runs on MultiPolys, Fractions and ints alike.
    """
    det = puu * pvv - puv * puv
    if not det:
        raise DegenerateMomentMatrix("moment matrix determinant vanishes")
    n_f = q1 * q1 * pvv - q1 * q2 * puv * 2 + q2 * q2 * puu
    return det, n_f, perimeter * perimeter * det * 4 + n_f, volume * det * 8


def gram_parts(interior: Sequence, boundary: Sequence, puu, pvv, puv) -> tuple:
    """(numerator, denominator) of the objective in its Gram form,

        calA = beta^T adj(M) beta / (2 det M),

    with M the Gram matrix of (1, u, v) over the polygon (the area, the first
    and the second moments of ``interior``) and beta = (perimeter, boundary(u),
    boundary(v)) from ``boundary``.  Three adjugate entries are the central
    numerators: adj_11 = pvv, adj_12 = -puv, adj_22 = puu; the first row is
    formed here, and det M is M's first row against it.  Operators only.
    """
    area, m10, m01, m20, m11, m02 = interior
    perimeter, b10, b01 = boundary
    adj00 = m20 * m02 - m11 * m11
    adj01 = m11 * m01 - m10 * m02
    adj02 = m10 * m11 - m20 * m01
    det = area * adj00 + m10 * adj01 + m01 * adj02
    if not det:
        raise DegenerateMomentMatrix("moment matrix determinant vanishes")
    twice10, twice01 = b10 * 2, b01 * 2  # the factor 2 on the small entries
    numerator = (
        perimeter * (perimeter * adj00 + twice10 * adj01 + twice01 * adj02)
        + b10 * (b10 * pvv - twice01 * puv)
        + b01 * b01 * puu
    )
    return numerator, det * 2


class FunctionalBundle(NamedTuple):
    """Every exact ingredient of the objective on one coordinate chart."""

    chart: ConeChart
    volume: MultiPoly              # V = area of the moment polygon = Omega^2/2
    c1_pairing: MultiPoly          # c1 . Omega = lattice perimeter
    f1: RatFunc
    f2: RatFunc
    a: RatFunc                     # A, B, C without their factor pi^-2
    b: RatFunc
    c: RatFunc
    calA: RatFunc


@lru_cache(maxsize=None)
def _cone_ingredients() -> tuple:
    """(interior, boundary, (puu, pvv, puv), b1, b2, q1, q2) over ABCD, from
    one polygon: its integrals (``polytope.moments``), the central numerators,
    the closed-form brackets and the boundary route's obstruction numerators
    (``veritas``).  Every chart's bundle is the first five under its
    substitution."""
    polygon = _polygon_from_areas(AreaVector.from_abcd(*MultiPoly.gens(ABCD)), ABCD)
    interior, boundary = moments(polygon)
    b1, b2, volume = _closed_form_brackets()
    if interior[0] != volume:
        raise AssertionError("polygon area disagrees with the closed-form volume polynomial")
    q1, q2 = _obstruction_numerators(interior, boundary)
    return interior, boundary, central_moment_numerators(*interior), b1, b2, q1, q2


@lru_cache(maxsize=None)
def build_bundle(chart: ConeChart) -> FunctionalBundle:
    """Assemble the objective and its ingredients on a chart, exactly.

    Substitutes ``_cone_ingredients``: the polygon's integrals, the central
    numerators and the closed-form brackets b_i, the obstruction numerators
    of F_i = b_i / V.  The objective is the Gram form of ``gram_parts``,
    assembled on the chart from the substituted integrals.  Its structured
    form (``objective_parts``) is 4*V^2 times it, part by part, an identity
    in the polygon's integrals that ``veritas`` certifies; it is formed
    there, never here.
    """
    interior, boundary, central, b1, b2 = _cone_ingredients()[:5]
    parts = _on_chart(chart, (*interior, *boundary, *central, b1, b2))
    interior, boundary, (puu, pvv, puv), (b1, b2) = parts[:6], parts[6:9], parts[9:12], parts[12:]
    volume = interior[0]
    quarter = Fraction(1, 4)
    numerator, denominator = gram_parts(interior, boundary, puu, pvv, puv)
    return FunctionalBundle(
        chart=chart,
        volume=volume,
        c1_pairing=boundary[0],
        f1=RatFunc.make(b1, volume),
        f2=RatFunc.make(b2, volume),
        a=RatFunc.make(puu.scale(quarter), volume),
        b=RatFunc.make(pvv.scale(quarter), volume),
        c=RatFunc.make(puv.scale(quarter), volume),
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

    def df_at(self, x: Scalar) -> Fraction:
        return 12 * self.p.evaluate((x,)) / self.f.den.evaluate((x,)) ** 2

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

    Runs the full polygon pipeline (moments, boundary obstructions) on the
    polygon dilated by 6L, which the objective, of degree 0, does not see;
    used for classes outside the coordinate charts and invariance sampling.
    """
    interior, boundary = dilated_moments(_polygon_from_areas(areas))
    puu, pvv, puv = central_moment_numerators(*interior)
    q1, q2 = _obstruction_numerators(interior, boundary)
    _, _, numerator, denominator = objective_parts(boundary[0], interior[0], puu, pvv, puv, q1, q2)
    return Fraction(numerator, denominator)


def evaluate_futaki_on_areas(
    areas: Sequence[Scalar] | AreaVector,
) -> tuple[Fraction, Fraction]:
    """Exact obstruction components at a numeric six-area vector: F is of
    degree 2, so F_i = q_i / (area (6L)^2) on the polygon dilated by 6L."""
    polygon = _polygon_from_areas(areas)
    interior, boundary = dilated_moments(polygon)
    q1, q2 = _obstruction_numerators(interior, boundary)
    denominator = interior[0] * (6 * polygon.scale) ** 2
    return Fraction(q1, denominator), Fraction(q2, denominator)


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
    return f"({value})*pi^-2" if name in ("A", "B", "C") else str(value)


def bundle_summary(chart: ConeChart) -> dict:
    """Canonical text of the bundle plus evaluations at the all-ones point and
    at (1, 2, ..., n) of the chart's n variables (one point when n is 1)."""
    bundle = build_bundle(chart)
    n = len(chart.variables)
    points = dict.fromkeys(((Fraction(1),) * n, tuple(map(Fraction, range(1, n + 1)))))
    evaluations = {
        ",".join(str(x) for x in point): {
            name: quantity_text(bundle, name, point) for name in QUANTITIES
        }
        for point in points
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
