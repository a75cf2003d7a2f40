"""Machine-checkable certificates for the convexity and uniqueness claims.

Each lemma-level claim is reduced to exact, re-checkable evidence:

  * convexity on antidiagonal segments: the structural second derivative has
    an all-nonnegative, nonzero numerator over D^3 with D all-positive
    (a positivity certificate on the positive orthant, from coefficient
    signs alone: no value is sampled);
  * one-variable derivative signs: Sturm chains count roots exactly, and the
    classical coefficient-splitting inequality chains are replayed digit by
    digit (dual certification: the chains are faithful, the Sturm counts are
    independent);
  * symmetry statements: the transposition is an exponent permutation of the
    objective's canonical tables, decided by ``RatFunc.equals`` (identical
    tables at once, anything else cross-multiplied);
  * invariance statements: polynomial identities, among them the agreement
    of the obstruction's two routes and its vanishing on V and W, on the one
    ABCD polygon's pass, and the agreement of the objective's Gram and
    structured forms, over the polygon's integrals;
  * k = 2 minimality: a deduction from the certified ingredients, recorded
    as laudate's ``minimality_deduction`` witness;
  * the sign of gaudete's first variation along c1 and its global
    minimality: deductions from veritas, the reverse Cauchy-Schwarz identity
    and the objective's parts, recorded as its ``first_variation_deduction``
    and ``minimality_deduction`` witnesses.

No lemma's claim rests on a sample, so no lemma takes a sample count or a
seed; the display comparisons alone evaluate at points, ``exprparse``'s
fixed ``DEFAULT_SEED`` ones.

Two certificates are rechecked from what they emit before their lemmas can
PASS: each convexity certificate from its own payload
(``PositivityCertificate.recheck``), and the laudate critical interval by one
more Sturm count on it, with the chain that isolated it.  The charts come
from ``CHARTS``, and each chart's convexity lemma, direction and display from
the ``CONVEXITY`` table.

Reports carry PASS/FAIL/NOTE and witnesses; FAIL always carries a concrete
witness.  NOTE marks recorded deductions whose geometric input (the cone
decomposition) is assumed rather than machine-verified.  ``_lemma_calls``
lists the lemmas in report order, each with its verifier and arguments, and
``run_lemma`` alone dispatches, times and memoizes them: each lemma runs once
per process, its report timed there, and the composites (laudate, gaudete)
take their ingredients' reports from that memo.  Verifiers return untimed
reports.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from . import univar
from .delpezzo import (
    ABCD,
    CHARTS,
    AreaVector,
    CohClass,
    c1_class,
    cremona,
    pair,
)
from .exprparse import FixtureError, compare_against_fixture, load_fixture
from .functional import (
    QUANTITIES,
    DiagonalRestriction,
    _cone_ingredients,
    _obstruction_numerators,
    build_bundle,
    evaluate_calA_on_areas,
    first_variation_along_c1,
    gram_parts,
    objective_parts,
    restrict_diagonal,
)
from .poly import (
    MultiPoly,
    RatFunc,
    _cube,
    coefficients_all_nonneg,
    directional_second_derivative,
)
from .polytope import central_moment_numerators
from .sturm import count_roots, sturm_chain, sturm_isolate

DEFAULT_ISOLATION_WIDTH = Fraction(1, 2 ** 30)

FIXTURES_DIR = Path(__file__).parent / "fixtures"

class LemmaReport(NamedTuple):
    lemma_id: str
    status: str  # PASS | FAIL | NOTE
    witnesses: dict
    seconds: float = 0.0

    def as_dict(self, include_timing: bool = True) -> dict:
        out = {"id": self.lemma_id, "status": self.status, "witnesses": self.witnesses}
        if include_timing:
            out["seconds"] = round(self.seconds, 3)
        return out


class PositivityCertificate(NamedTuple):
    """Positivity of a rational function on the positive orthant.

    PASS means: numerator nonzero with every coefficient >= 0, denominator of
    the exact form D^3 with every coefficient of D > 0.  Such a rational
    function is positive at every point of the open orthant, so no value is
    sampled.  The certificate re-validates from its own payload without
    recomputing the symbolic data.
    """

    description: str
    direction: tuple[int, ...]
    verdict: str  # PASS | FAIL
    numerator_terms: int
    numerator_min_coeff: Fraction
    denominator_base_terms: int
    denominator_base_min_coeff: Fraction
    witness_monomial: str | None = None

    def recheck(self) -> bool:
        if self.verdict == "FAIL":
            return (
                self.numerator_terms == 0
                or self.numerator_min_coeff < 0
                or self.denominator_base_min_coeff <= 0
            )
        return (
            self.numerator_terms > 0
            and self.numerator_min_coeff >= 0
            and self.denominator_base_terms > 0
            and self.denominator_base_min_coeff > 0
        )

    def as_dict(self) -> dict:
        out = {
            "description": self.description,
            "direction": list(self.direction),
            "verdict": self.verdict,
            "numerator_terms": self.numerator_terms,
            "numerator_min_coeff": str(self.numerator_min_coeff),
            "denominator_base_terms": self.denominator_base_terms,
            "denominator_base_min_coeff": str(self.denominator_base_min_coeff),
        }
        if self.witness_monomial is not None:
            out["witness_monomial"] = self.witness_monomial
        return out


def positivity_certificate(
    f: RatFunc,
    denominator_base: MultiPoly,
    direction: tuple[int, ...],
    description: str,
) -> PositivityCertificate:
    """Certify f > 0 on the positive orthant from coefficient signs.

    ``f`` must be given over the structural denominator D^3, D =
    ``denominator_base``; any other denominator is a ValueError.  That guard
    is what makes the denominator positive on the orthant: D is, when its
    coefficients are, and so is its cube.
    """
    cube = _cube(denominator_base)
    if f.den is not cube and f.den != cube:
        raise ValueError("f must be given over the cube of denominator_base")
    nonneg, witness = coefficients_all_nonneg(f.num)
    den_min = min(denominator_base.terms.values(), default=Fraction(0))
    ok = nonneg and not f.num.is_zero and den_min > 0
    num_min = min(f.num.terms.values(), default=Fraction(0))
    witness_text = None
    if witness is not None:
        coeff, exps = witness
        mono = "*".join(
            f"{v}^{e}" for v, e in zip(f.num.variables, exps) if e
        ) or "1"
        witness_text = f"{coeff}*{mono}"
    return PositivityCertificate(
        description=description,
        direction=direction,
        verdict="PASS" if ok else "FAIL",
        numerator_terms=len(f.num.terms),
        numerator_min_coeff=num_min,
        denominator_base_terms=len(denominator_base.terms),
        denominator_base_min_coeff=den_min,
        witness_monomial=witness_text,
    )


def _named_fixture(chart_id: str, name: str, fixtures_dir: Path | None):
    """The fixture ``<chart_id>/<name>.fix``, whose ``[meta] name`` must be
    ``<name>_<chart_id>``: reports list fixtures by that name."""
    base = FIXTURES_DIR if fixtures_dir is None else fixtures_dir
    meta, fixture = load_fixture(base / chart_id / f"{name}.fix")
    expected = f"{name}_{chart_id}"
    if meta.name != expected:
        raise FixtureError(
            f"{chart_id}/{name}.fix: [meta] name is {meta.name!r}, expected {expected!r}"
        )
    return meta, fixture


@lru_cache(maxsize=None)
def _second_derivative(chart_id: str, direction: tuple[int, ...]) -> RatFunc:
    return directional_second_derivative(build_bundle(CHARTS[chart_id]).calA, direction)


FIXTURE_NAMES = {
    "k2": ("calA", "d2_antidiag", "F_beta", "P", "Q"),
    "k3": ("F1", "F2", "A", "B", "C", "calA", "d2_alphabeta"),
}

# per chart: the convexity lemma, its antidiagonal direction, and the
# transcribed display of the second derivative along it
CONVEXITY = {
    "k2": ("convex2", (1, -1), "d2_antidiag"),
    "k3": ("convex3", (1, -1, 0), "d2_alphabeta"),
}


def _fixture_target(chart_id: str, name: str) -> RatFunc:
    """The pipeline object a fixture is compared against."""
    _, direction, display = CONVEXITY[chart_id]
    if name == display:
        return _second_derivative(chart_id, direction)
    if name in ("F_beta", "P", "Q"):
        # the k = 2 objective on the diagonal beta = gamma
        diag = restrict_diagonal()
        return {
            "F_beta": diag.f, "P": RatFunc.from_poly(diag.p), "Q": RatFunc.from_poly(diag.q)
        }[name]
    # A, B and C, like their fixtures, are pi-free (display bracket over 288V or 576V)
    return getattr(build_bundle(CHARTS[chart_id]), QUANTITIES[name])


@lru_cache(maxsize=None)
def fixture_comparison(chart_id: str, name: str, fixtures_dir: Path | None = None):
    """Compare one fixture against its pipeline target (cached).

    ``fixtures_dir`` is None for the shipped fixtures, or a Path: ``RunConfig``
    normalises the directory once, so one directory has one cache entry.
    """
    meta, fixture_rf = _named_fixture(chart_id, name, fixtures_dir)
    computed = _fixture_target(chart_id, name)
    return meta, compare_against_fixture(computed, fixture_rf)


def check_all_fixtures(fixtures_dir: Path | None = None) -> list[tuple[str, object]]:
    """(fixture name, verdict) for every shipped fixture, in a fixed order."""
    results = []
    for chart_id, names in FIXTURE_NAMES.items():
        for name in names:
            meta, verdict = fixture_comparison(chart_id, name, fixtures_dir)
            results.append((meta.name, verdict))
    return results


def verify_convexity(chart_id: str, fixtures_dir: Path | None = None) -> LemmaReport:
    """Positivity certificate for the second derivative along the chart's
    antidiagonal, its ``CONVEXITY`` direction.

    Also compares the structural numerator against the transcribed display:
    the k=3 display is SCALED by its printed overall constant 12, while the
    k=2 display is recorded as a MISMATCH (no positive constant, 24 included,
    makes it match), so for k=2 the certificate alone carries the claim.
    The certificate is rechecked from its own payload; a failed recheck is a
    FAIL, with a ``recheck_failure`` witness beside the payload.
    """
    lemma_id, direction, fixture_name = CONVEXITY[chart_id]
    d2 = _second_derivative(chart_id, direction)
    certificate = positivity_certificate(
        d2,
        build_bundle(CHARTS[chart_id]).calA.den,
        direction,
        f"second derivative of the {chart_id} objective along {direction}",
    )
    _, comparison = fixture_comparison(chart_id, fixture_name, fixtures_dir)
    # The convexity claim stands or falls with the positivity certificate; the
    # pipeline, not the transcribed display, is the source of truth.  A
    # non-matching display is recorded as a discrepancy, never patched.
    status = certificate.verdict
    witnesses = {
        "certificate": certificate.as_dict(),
        "fixture": {fixture_name: comparison.as_dict()},
    }
    if not certificate.recheck():
        status = "FAIL"
        witnesses["recheck_failure"] = (
            f"the {certificate.verdict} verdict does not follow from the certificate's payload"
        )
    if comparison.kind not in ("EXACT", "SCALED"):
        witnesses["recorded_discrepancy"] = (
            f"transcribed display {fixture_name} disagrees with the computed "
            f"second derivative ({comparison.kind}); kept as transcribed"
        )
    return LemmaReport(lemma_id, status, witnesses)


def _symmetry_identity(chart_id: str, swap: dict[str, str]) -> bool:
    """Whether the chart objective is invariant under ``swap``, a permutation
    of the chart's variables.  Renaming permutes the exponent tuples of the
    canonical tables and keeps every coefficient, so no ``make`` is needed;
    ``RatFunc.equals`` decides, at once when the tables are identical."""
    variables = CHARTS[chart_id].variables
    images = [swap.get(name, name) for name in variables]
    if not set(swap) <= set(variables) or sorted(images) != sorted(variables):
        raise ValueError(f"{swap} is not a permutation of {variables}")
    # exponent i of a renamed term is that of the variable renamed to variables[i]
    source = [images.index(name) for name in variables]
    cal_a = build_bundle(CHARTS[chart_id]).calA
    swapped = [
        MultiPoly._build(variables, {tuple(map(e.__getitem__, source)): n
                                     for e, n in part.numerators.items()})
        for part in (cal_a.num, cal_a.den)
    ]
    return cal_a.equals(RatFunc(*swapped))


# per symmetry lemma: the chart and the transposition of its variables
SYMMETRIES = {
    "symmetry2": ("k2", {"beta": "gamma", "gamma": "beta"}),
    "symmetry3a": ("k3", {"alpha": "beta", "beta": "alpha"}),
    "symmetry3b": ("k3", {"beta": "gamma", "gamma": "beta"}),
}


def verify_symmetry(lemma_id: str) -> LemmaReport:
    """Invariance of the objective under a transposition: the swap is an
    exponent permutation of its tables, decided by ``RatFunc.equals``."""
    chart_id, swap = SYMMETRIES[lemma_id]
    ok = _symmetry_identity(chart_id, swap)
    witnesses = {"identity": f"objective invariant under {swap} on {chart_id}",
                 "symbolic": ok}
    return LemmaReport(lemma_id, "PASS" if ok else "FAIL", witnesses)


def _coefficient_split(
    poly: MultiPoly, split_degree: int, low_sign: int
) -> tuple[bool, int, int]:
    """Check signs below/above a degree split; return the two absolute sums.

    low_sign = -1 expects coefficients of degree <= split_degree nonpositive
    and the rest nonnegative; +1 expects the reverse.  The sums are printed
    as poly's own coefficient totals, so poly must have integer coefficients.
    """
    if poly.den != 1:
        raise ValueError(f"coefficient split needs integer coefficients, got den {poly.den}")
    coeffs = univar.from_multipoly(poly)
    low, high = coeffs[: split_degree + 1], coeffs[split_degree + 1 :]
    ok = all(c * low_sign >= 0 for c in low) and all(c * low_sign <= 0 for c in high)
    return ok, sum(map(abs, low)), sum(map(abs, high))


def verify_inequality_chain(kind: str) -> LemmaReport:
    """Replay one of the hand coefficient-splitting bounds exactly.

    prime2_bound:          P(x) > x^6 (1680 x - 1968) for x > 1, 6/5 > 1968/1680
    doubleprime2_bound_low:  Q(x) >= (3002509 - 131832 x) x^10 on (0, 1]
    doubleprime2_bound_high: Q(x) > 3002509 - 131832 x^15 for x > 1,
                             with (6/5)^15 < 16 < 3002509/131832
    """
    diag = restrict_diagonal()
    if kind == "prime2_bound":
        ok, neg_total, pos_total = _coefficient_split(diag.p, 6, -1)
        checks = {
            "negative_coefficient_total": str(neg_total),
            "positive_coefficient_total": str(pos_total),
            "totals_expected": ["1968", "1680"],
            "threshold": "6/5 > 1968/1680",
        }
        ok = (
            ok
            and neg_total == 1968
            and pos_total == 1680
            and Fraction(6, 5) > Fraction(1968, 1680)
        )
    elif kind == "doubleprime2_bound_low":
        ok, pos_total, neg_total = _coefficient_split(diag.q, 10, +1)
        checks = {
            "positive_coefficient_total": str(pos_total),
            "negative_coefficient_total": str(neg_total),
            "totals_expected": ["3002509", "131832"],
            "threshold": "3002509 > 131832",
        }
        ok = ok and pos_total == 3002509 and neg_total == 131832 and pos_total > neg_total
    elif kind == "doubleprime2_bound_high":
        lhs = Fraction(6, 5) ** 15
        ok = lhs < 16 and Fraction(16, 1) < Fraction(3002509, 131832)
        checks = {
            "sixth_fifths_to_15": str(lhs),
            "chain": "(6/5)^15 < 16 < 3002509/131832",
        }
    else:
        raise ValueError(f"unknown inequality chain {kind!r}")
    return LemmaReport(f"chain:{kind}", "PASS" if ok else "FAIL", checks)


def verify_prime2() -> LemmaReport:
    """First-derivative sign: positive for all x >= 6/5.

    Dual certificate: the replayed coefficient chain, plus a Sturm count
    showing the derivative numerator has no roots beyond 6/5 (up to an
    explicit root bound) and is positive at 6/5.
    """
    diag = restrict_diagonal()
    chain_report = verify_inequality_chain("prime2_bound")
    p_coeffs = univar.from_multipoly(diag.p)
    chain = sturm_chain(p_coeffs)
    bound = univar.cauchy_root_bound(p_coeffs)
    roots_beyond = count_roots(chain, Fraction(6, 5), bound)
    value_at_1 = diag.p.evaluate((Fraction(1),))
    value_at_6_5 = diag.p.evaluate((Fraction(6, 5),))
    ok = (
        chain_report.status == "PASS"
        and roots_beyond == 0
        and value_at_6_5 > 0
        and value_at_1 == -288
    )
    witnesses = {
        "chain": chain_report.witnesses,
        "sturm_roots_in_(6/5,root_bound]": roots_beyond,
        "root_bound": str(bound),
        "P(1)": str(value_at_1),
        "P(6/5)": str(value_at_6_5),
    }
    return LemmaReport("prime2", "PASS" if ok else "FAIL", witnesses)


def verify_doubleprime2() -> LemmaReport:
    """Second-derivative sign: positive on (0, 6/5].

    Dual certificate: both replayed coefficient chains, plus a Sturm count of
    zero roots of Q on (0, 6/5] together with Q(0) = 9 > 0.
    """
    diag = restrict_diagonal()
    low = verify_inequality_chain("doubleprime2_bound_low")
    high = verify_inequality_chain("doubleprime2_bound_high")
    q_coeffs = univar.from_multipoly(diag.q)
    chain = sturm_chain(q_coeffs)
    roots = count_roots(chain, Fraction(0), Fraction(6, 5))
    q_at_0 = diag.q.evaluate((Fraction(0),))
    ok = (
        low.status == "PASS"
        and high.status == "PASS"
        and roots == 0
        and q_at_0 == 9
    )
    witnesses = {
        "chain_low": low.witnesses,
        "chain_high": high.witnesses,
        "sturm_roots_in_(0,6/5]": roots,
        "Q(0)": str(q_at_0),
    }
    return LemmaReport("doubleprime2", "PASS" if ok else "FAIL", witnesses)


def _objective_forms_identity() -> bool:
    """The objective's two forms agree on every polygon: in the polynomial
    ring of the nine integrals that both read (area, the first and second
    moments, the perimeter and the boundary's first moments), the structured
    form of ``objective_parts``, built from the obstruction numerators q_i and
    the central numerators, is 4*V^2 times the Gram form of ``gram_parts``,
    numerator and denominator.  Both are operators on those integrals, so the
    identity carries over to the ABCD polygon, every chart and every numeric
    polygon by substitution."""
    integrals = MultiPoly.gens(
        ("area", "m10", "m01", "m20", "m11", "m02", "perimeter", "b10", "b01")
    )
    interior, boundary = integrals[:6], integrals[6:]
    central = central_moment_numerators(*interior)
    volume = interior[0]
    q1, q2 = _obstruction_numerators(interior, boundary)
    *_, numerator, denominator = objective_parts(boundary[0], volume, *central, q1, q2)
    factor = volume * volume * 4
    forms = zip((numerator, denominator), gram_parts(interior, boundary, *central))
    return all(structured == gram * factor for structured, gram in forms)


def verify_veritas() -> LemmaReport:
    """The obstruction's two routes agree, it vanishes on both invariant
    subspaces, and the objective's two forms agree.

    Three polynomial identities over ABCD, on ``_cone_ingredients`` alone: the
    boundary route's numerators are q_i = delta * b_i, with b_i the transcribed
    closed-form brackets; on W (equal exceptional areas) the q_i vanish at
    alpha = beta = gamma, for every delta; on the hyperplane V they vanish at
    delta = 0 (the polygons there are centrally symmetric).  The edge sums are
    polynomials in the vertices and lengths, so the q_i at delta = 0 are those
    of the delta = 0 polygon.  A fourth, over the polygon's integrals
    (``_objective_forms_identity``), ties the structured form, which
    ``evaluate_calA_on_areas`` and gaudete's minimality deduction read, to the
    Gram form that every chart's bundle holds.
    """
    *_, b1, b2, q1, q2 = _cone_ingredients()
    alpha, beta, gamma, delta = MultiPoly.gens(ABCD)
    routes = q1 == delta * b1 and q2 == delta * b2

    def vanishes(*images) -> bool:
        return not any(q.substitute(dict(zip(ABCD, images)), ABCD) for q in (q1, q2))

    w_zero = vanishes(alpha, alpha, alpha, delta)
    v_zero = vanishes(alpha, beta, gamma, 0)
    witnesses = {
        "obstruction_routes_identity": routes,
        "objective_forms_identity": _objective_forms_identity(),
        "W_identity": w_zero,
        "V_identity": v_zero,
    }
    return LemmaReport("veritas", "PASS" if all(witnesses.values()) else "FAIL", witnesses)


def _cremona_facts() -> dict:
    """Exact structural facts about the Cremona involution, each an identity
    over generic classes or over (alpha, beta, gamma, delta)."""
    names = ("h", "e1", "e2", "e3")
    h, e1, e2, e3 = MultiPoly.gens(names)
    generic = CohClass(h, e1, e2, e3, 3)
    transformed = cremona(generic)
    involution = cremona(transformed) == generic
    isometry = pair(transformed, transformed) == pair(generic, generic)
    fixes_c1 = cremona(c1_class(3)) == c1_class(3)
    alpha, beta, gamma, delta = MultiPoly.gens(ABCD)
    areas = AreaVector.from_abcd(alpha, beta, gamma, delta)
    image = cremona(areas)
    a2, b2, g2, d2 = image.to_abcd()
    delta_flip = (
        a2 == alpha + delta
        and b2 == beta + delta
        and g2 == gamma + delta
        and d2 == -delta
    )
    return {
        "involution_identity": involution,
        "pairing_preserved_identity": isometry,
        "fixes_c1": fixes_c1,
        "delta_negated_identity": delta_flip,
    }


def _reverse_cauchy_schwarz_identity() -> bool:
    """h^2 ((x.y)^2 - x^2 y^2) = x^2 |hb - ka|^2 + (a.(hb - ka))^2 for generic
    classes x = (h, a) and y = (k, b), with |.| and . Euclidean on the
    exceptional parts.  For timelike x the right side is >= 0, and 0 only when
    hb = ka, that is when y is proportional to x."""
    gens = MultiPoly.gens(("h", "a1", "a2", "a3", "k", "b1", "b2", "b3"))
    h, a, k, b = gens[0], gens[1:4], gens[4], gens[5:]
    x, y = CohClass(h, *a), CohClass(k, *b)
    u = [h * bi - k * ai for ai, bi in zip(a, b)]
    gap = pair(x, y) ** 2 - pair(x, x) * pair(y, y)
    u_sq = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
    a_dot_u = a[0] * u[0] + a[1] * u[1] + a[2] * u[2]
    return h * h * gap == pair(x, x) * u_sq + a_dot_u * a_dot_u


def verify_claritas() -> LemmaReport:
    """Record the critical-point location deduction and its inputs.

    The verified ingredients are the transposition symmetries, the segment
    convexity, and the invariance facts above; the remaining input, that the
    reduced cone is covered by the delta > 0 chart, its involution image, and
    the delta = 0 interface, is assumed geometry, so the deduction is recorded
    as a NOTE rather than claimed as machine-verified.
    """
    witnesses = {
        "statement": "critical classes lie in the delta=0 hyperplane or the "
        "equal-areas plane",
        "verified_ingredients": ["symmetry3a", "symmetry3b", "convex3", "cremona facts"],
        "assumed": "cone decomposition into the chart, its Cremona image, and "
        "the delta=0 interface (not machine-verified)",
    }
    return LemmaReport("claritas", "NOTE", witnesses)


def _value_enclosure(diag: DiagonalRestriction, a: Fraction, b: Fraction) -> tuple:
    """Bounds (lower, upper) on the diagonal objective's minimum over (a, b],
    which holds its one critical point, and whether they place it strictly
    between 7 and 2919/409, the value at the symmetric class (1, 1).  From
    below: the tangent at the end where the slope is negative (a, else b);
    from above: the smaller end value."""
    fa, fb = diag.f_at(a), diag.f_at(b)
    dfa = diag.df_at(a)
    lower = fa + dfa * (b - a) if dfa < 0 else fb + diag.df_at(b) * (a - b)
    upper = min(fa, fb)
    return (lower, upper), Fraction(7) < lower and upper < Fraction(2919, 409)


def _composite(
    lemma_id: str, ingredients: list[LemmaReport], failures: dict, witnesses: dict
) -> LemmaReport:
    """A composite lemma's report: PASS unless an ingredient or one of its own
    checks failed.  The failed ingredients' witnesses lead ``failures``; the
    ingredient statuses, then any failures, are the last two witnesses."""
    failed = {r.lemma_id: r.witnesses for r in ingredients if r.status == "FAIL"}
    failures = {**failed, **failures}
    witnesses["ingredients"] = {r.lemma_id: r.status for r in ingredients}
    if failures:
        witnesses["failures"] = failures
    return LemmaReport(lemma_id, "FAIL" if failures else "PASS", witnesses)


def verify_uniqueness_k2(
    isolation_width: Fraction = DEFAULT_ISOLATION_WIDTH, fixtures_dir: Path | None = None
) -> LemmaReport:
    """Exactly one critical point for k = 2, an absolute minimum.

    Assembles the swap symmetry, the segment convexity certificate, the Sturm
    isolation of the unique positive derivative root inside (1, 6/5) and the
    endpoint data; emits the isolating interval, an enclosure of the objective
    value there, and the deduction by which those make the enclosure's lower
    end a bound on the whole chart.  Nothing is sampled.
    """
    ingredients = [
        run_lemma(lemma_id, fixtures_dir=fixtures_dir)
        for lemma_id in ("symmetry2", "convex2", "prime2", "doubleprime2")
    ]
    failures = {}

    diag = restrict_diagonal()
    intervals, p_chain = sturm_isolate(
        diag.p, (Fraction(0), Fraction(2)), isolation_width
    )
    one_root = len(intervals) == 1
    f_interval, encloses = None, False
    if one_root:
        # a coarse isolation is bisected on the same chain until the interval
        # lies in [1, 6/5] and its enclosure decides, or is as narrow as the default
        (a, b), floor = intervals[0], min(isolation_width, DEFAULT_ISOLATION_WIDTH)
        f_interval, encloses = _value_enclosure(diag, a, b)
        while b - a > floor and not (1 <= a and b <= Fraction(6, 5) and encloses):
            mid = (a + b) / 2
            a, b = (a, mid) if count_roots(p_chain, a, mid) else (mid, b)
            f_interval, encloses = _value_enclosure(diag, a, b)
        intervals = [(a, b)]
    inside = one_root and Fraction(1) <= intervals[0][0] and intervals[0][1] <= Fraction(6, 5)
    total_positive = count_roots(p_chain, Fraction(0), Fraction(2))
    # the emitted interval, recounted: one query rechecks the isolation
    recount = count_roots(p_chain, *intervals[0]) if one_root else None
    slope_at_0 = diag.df_at(Fraction(0))
    slope_at_6_5 = diag.df_at(Fraction(6, 5))
    if not (one_root and inside and recount == 1 and total_positive == 1):
        failures["sturm"] = {
            "intervals": [[str(a), str(b)] for a, b in intervals],
            "count_(0,2]": total_positive,
            "recount": recount,
        }
    if slope_at_0 != -12:
        failures["slope_at_0"] = str(slope_at_0)
    if slope_at_6_5 <= 0:
        failures["slope_at_6/5"] = str(slope_at_6_5)

    if f_interval is not None and not encloses:
        failures["value_enclosure"] = [str(x) for x in f_interval]

    witnesses = {
        "critical_interval": [str(x) for x in intervals[0]] if one_root else None,
        "interval_width": str(intervals[0][1] - intervals[0][0]) if one_root else None,
        "value_interval": [str(x) for x in f_interval] if f_interval else None,
        "positive_roots_of_P": total_positive,
        "slope_at_0": str(slope_at_0),
        "slope_at_6/5": str(slope_at_6_5),
        # why value_interval[0] bounds the whole chart: the deduction is the
        # witness, and each of its steps is a check above or an ingredient
        "minimality_deduction": [
            "convex2 and symmetry2: on each antidiagonal beta + gamma = 2x the "
            "least value is at beta = gamma = x",
            "P has one positive root, in critical_interval: the Sturm count on "
            "(0, 2] is 1, prime2 leaves no root past 6/5, and the slope at 0 is -12",
            "doubleprime2: the diagonal is convex on (0, 6/5], so value_interval[0] "
            "bounds the chart's minimum from below",
        ],
    }
    return _composite("laudate", ingredients, failures, witnesses)


def verify_uniqueness_k3(fixtures_dir: Path | None = None) -> LemmaReport:
    """The anticanonical class is the unique critical point for k = 3.

    Assembles the transposition symmetries, the segment convexity certificate,
    obstruction vanishing on both invariant subspaces, the Cremona facts and
    the reverse Cauchy-Schwarz identity, all exact.  From veritas and that
    identity, the sign of the first variation along the anticanonical
    direction is a deduction, recorded as the ``first_variation_deduction``
    witness; with the objective's parts, so is global minimality (objective
    >= 6, with equality only on the anticanonical ray), recorded as the
    ``minimality_deduction`` witness.  Nothing is sampled.
    """
    ingredients = [
        run_lemma(lemma_id, fixtures_dir=fixtures_dir)
        for lemma_id in ("symmetry3a", "symmetry3b", "convex3", "veritas")
    ]
    failures = {}

    facts = _cremona_facts()
    if not all(fact is True for fact in facts.values()):
        failures["cremona"] = facts

    spot = first_variation_along_c1(
        AreaVector.from_abcd(2, 1, 1, 0).to_coh(3)
    )
    if spot != Fraction(-16, 25):
        failures["first_variation_spot"] = str(spot)
    if first_variation_along_c1(c1_class(3)) != 0:
        failures["first_variation_at_c1"] = "nonzero"
    identity = _reverse_cauchy_schwarz_identity()
    if not identity:
        failures["reverse_cauchy_schwarz"] = (
            "h^2((x.y)^2 - x^2 y^2) differs from x^2|hb - ka|^2 + (a.(hb - ka))^2"
        )

    value_at_c1 = evaluate_calA_on_areas([Fraction(1)] * 6)
    if value_at_c1 != 6:
        failures["value_at_c1"] = str(value_at_c1)

    witnesses = {
        "value_at_c1": str(value_at_c1),
        "first_variation_spot_(2,1,1,0)": str(spot),
        "cremona": facts,
        "reverse_cauchy_schwarz_identity": identity,
        # why the first variation is negative on V and W away from c1: the
        # deduction is the witness, and each of its steps is a check above or
        # an ingredient
        "first_variation_deduction": [
            "veritas: the obstruction vanishes on V and on W, and c1 lies in both, "
            "so along Omega + t*c1 the objective is (c1.Omega)^2 / Omega^2 and its "
            "first variation is 2(c1.Omega)(Omega^2 c1^2 - (c1.Omega)^2) / (Omega^2)^2",
            "reverse_cauchy_schwarz_identity at x = c1 (h = 3, c1^2 = 6 > 0): "
            "(c1.Omega)^2 >= c1^2 Omega^2, with equality only for Omega proportional to c1",
            "on the Kahler cone c1.Omega is the lattice perimeter and Omega^2 twice "
            "the area, both > 0, so the first variation is < 0 unless Omega is "
            "proportional to c1, where it is 0 (first_variation_at_c1)",
        ],
        # why the objective is >= 6 on the whole Kahler cone, with equality only
        # on the c1 ray: the same identity, and the objective's two parts
        "minimality_deduction": [
            "objective_parts: the objective is perimeter^2 / (2V) + N_F / (8 V det), "
            "and perimeter^2 / (2V) = (c1.Omega)^2 / Omega^2; (puu, puv; puv, pvv) is "
            "area^2 times the moment polygon's covariance matrix, positive definite for "
            "area > 0, so det > 0 and N_F, the obstruction's quadratic form under its "
            "adjugate, is >= 0",
            "reverse_cauchy_schwarz_identity at x = c1 (h = 3, c1^2 = 6 > 0): "
            "(c1.Omega)^2 >= 6 Omega^2, with equality only for Omega proportional to c1, "
            "and Omega^2, twice the area, is > 0 on the Kahler cone, so the first term "
            "is >= 6",
            "veritas and value_at_c1: the objective is >= 6 on the whole Kahler cone, "
            "delta > 0, delta = 0 and delta < 0 alike, and equals 6 only on the c1 ray, "
            "where F vanishes and the value is 6",
        ],
    }
    return _composite("gaudete", ingredients, failures, witnesses)


def _lemma_calls(isolation_width: Fraction, fixtures_dir: Path | None) -> dict[str, tuple]:
    """Each lemma id in report order, with its verifier and the arguments it
    receives.  The verifiers are looked up when this is called, so that a
    wrapped verifier is the one called."""
    return {
        "convex2": (verify_convexity, ("k2", fixtures_dir)),
        "symmetry2": (verify_symmetry, ("symmetry2",)),
        "prime2": (verify_prime2, ()),
        "doubleprime2": (verify_doubleprime2, ()),
        "laudate": (verify_uniqueness_k2, (isolation_width, fixtures_dir)),
        "convex3": (verify_convexity, ("k3", fixtures_dir)),
        "symmetry3a": (verify_symmetry, ("symmetry3a",)),
        "symmetry3b": (verify_symmetry, ("symmetry3b",)),
        "veritas": (verify_veritas, ()),
        "claritas": (verify_claritas, ()),
        "gaudete": (verify_uniqueness_k3, (fixtures_dir,)),
    }


LEMMA_IDS = tuple(_lemma_calls(DEFAULT_ISOLATION_WIDTH, None))

# lemma reports of this process, keyed by (lemma id, *the verifier's arguments)
_REPORTS: dict[tuple, LemmaReport] = {}


def run_lemma(
    lemma_id: str,
    isolation_width: Fraction = DEFAULT_ISOLATION_WIDTH,
    fixtures_dir: Path | None = None,
) -> LemmaReport:
    """The lemma's report, from its verifier once per process for each key.

    The key is the arguments the verifier receives, not the call form, so the
    CLI and the composite lemmas share one report, and a setting a lemma does
    not use (``isolation_width`` for every lemma but laudate) does not split
    it.
    The report is stored with the verifier call's wall time as its
    ``seconds``; a verifier called directly leaves it 0.0.
    """
    calls = _lemma_calls(isolation_width, fixtures_dir)
    if lemma_id not in calls:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    verifier, args = calls[lemma_id]
    key = (lemma_id, *args)
    if key not in _REPORTS:
        start = time.perf_counter()
        report = verifier(*args)
        _REPORTS[key] = report._replace(seconds=time.perf_counter() - start)
    return _REPORTS[key]
