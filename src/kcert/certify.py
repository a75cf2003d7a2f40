"""Machine-checkable certificates for the convexity and uniqueness claims.

Each lemma-level claim is reduced to exact, re-checkable evidence:

  * convexity on antidiagonal segments: the structural second derivative has
    an all-nonnegative, nonzero numerator over D^3 with D all-positive
    (a positivity certificate on the positive orthant);
  * one-variable derivative signs: Sturm chains count roots exactly, and the
    classical coefficient-splitting inequality chains are replayed digit by
    digit (dual certification: the chains are faithful, the Sturm counts are
    independent);
  * symmetry and invariance statements: cross-multiplied polynomial
    identities, plus deterministic exact sampling where a full semialgebraic
    proof is out of scope (those criteria are labelled "sampled").

Reports carry PASS/FAIL/NOTE, witnesses, and timings; FAIL always carries a
concrete witness.  NOTE marks recorded deductions whose geometric input
(the cone decomposition) is assumed rather than machine-verified.  Each lemma
runs once per process: the composites (laudate, gaudete) take their
ingredients' reports from ``run_lemma``'s memo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import univar
from .delpezzo import (
    AreaVector,
    CohClass,
    K2_CHART,
    K3_CHART,
    c1_class,
    cremona,
    pair,
)
from .exprparse import compare_against_fixture, load_fixture
from .functional import (
    build_bundle,
    evaluate_calA_on_areas,
    evaluate_futaki_on_areas,
    first_variation_along_c1,
    restrict_diagonal,
)
from .poly import (
    MultiPoly,
    RatFunc,
    coefficients_all_nonneg,
    directional_second_derivative,
)
from .sampling import DEFAULT_SEED, SplitMix64
from .sturm import count_roots, sturm_chain, sturm_isolate

DEFAULT_ISOLATION_WIDTH = Fraction(1, 2 ** 30)

FIXTURES_DIR = Path(__file__).parent / "fixtures"

LEMMA_IDS = (
    "convex2",
    "symmetry2",
    "prime2",
    "doubleprime2",
    "laudate",
    "convex3",
    "symmetry3a",
    "symmetry3b",
    "veritas",
    "claritas",
    "gaudete",
)


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    status: str  # PASS | FAIL | NOTE
    witnesses: dict
    seconds: float = 0.0

    def as_dict(self, include_timing: bool = True) -> dict:
        out = {"id": self.lemma_id, "status": self.status, "witnesses": self.witnesses}
        if include_timing:
            out["seconds"] = round(self.seconds, 3)
        return out


@dataclass(frozen=True)
class PositivityCertificate:
    """Positivity of a rational function on the positive orthant.

    PASS means: numerator nonzero with every coefficient >= 0, denominator of
    the exact form D^3 with every coefficient of D > 0, plus exact positive
    spot values at 20 strictly positive sample points.  The certificate
    re-validates from its own payload without recomputing the symbolic data.
    """

    description: str
    direction: tuple[int, ...]
    verdict: str  # PASS | FAIL
    numerator_terms: int
    numerator_min_coeff: Fraction
    denominator_base_terms: int
    denominator_base_min_coeff: Fraction
    witness_monomial: str | None = None
    samples: tuple[tuple[tuple[Fraction, ...], Fraction], ...] = ()

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
            and all(value > 0 for _, value in self.samples)
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
            "sample_values_positive": bool(self.samples) and all(v > 0 for _, v in self.samples),
        }
        if self.witness_monomial is not None:
            out["witness_monomial"] = self.witness_monomial
        return out


def positivity_certificate(
    f: RatFunc,
    denominator_base: MultiPoly,
    direction: tuple[int, ...],
    description: str,
    seed: int = DEFAULT_SEED,
    sample_count: int = 20,
) -> PositivityCertificate:
    """Certify f > 0 on the positive orthant from coefficient signs.

    ``f`` must be given over the structural denominator denominator_base^3.
    """
    nonneg, witness = coefficients_all_nonneg(f.num)
    den_min = min(denominator_base.terms.values(), default=Fraction(0))
    ok = nonneg and not f.num.is_zero and den_min > 0
    rng = SplitMix64(seed)
    samples: list[tuple[tuple[Fraction, ...], Fraction]] = []
    if ok:
        for _ in range(sample_count):
            point = rng.point(len(f.variables))
            samples.append((point, f.evaluate(point)))
        ok = all(value > 0 for _, value in samples)
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
        samples=tuple(samples),
    )


def _named_fixture(chart_id: str, name: str, fixtures_dir: Path | None):
    base = Path(fixtures_dir) if fixtures_dir is not None else FIXTURES_DIR
    return load_fixture(base / chart_id / f"{name}.fix")


@lru_cache(maxsize=None)
def _second_derivative(chart_id: str, direction: tuple[int, ...]) -> RatFunc:
    chart = K2_CHART if chart_id == "k2" else K3_CHART
    return directional_second_derivative(build_bundle(chart).calA, direction)


FIXTURE_NAMES = {
    "k2": ("calA", "d2_antidiag", "F_beta", "P", "Q"),
    "k3": ("F1", "F2", "A", "B", "C", "calA", "d2_alphabeta"),
}


def _fixture_target(chart_id: str, name: str) -> RatFunc:
    """The pipeline object a fixture is compared against."""
    if name == "d2_antidiag":
        return _second_derivative("k2", (1, -1))
    if name == "d2_alphabeta":
        return _second_derivative("k3", (1, -1, 0))
    if chart_id == "k2":
        diag = restrict_diagonal()
        if name == "F_beta":
            return diag.f
        if name == "P":
            return RatFunc.from_poly(diag.p)
        if name == "Q":
            return RatFunc.from_poly(diag.q)
        return build_bundle(K2_CHART).calA
    bundle = build_bundle(K3_CHART)
    if name in ("A", "B", "C"):
        # fixtures store the pi-free parts (display bracket over 288V or 576V)
        return {"A": bundle.a, "B": bundle.b, "C": bundle.c}[name].value
    return {"F1": bundle.f1, "F2": bundle.f2, "calA": bundle.calA}[name]


@lru_cache(maxsize=None)
def fixture_comparison(chart_id: str, name: str, fixtures_dir: str | None = None):
    """Compare one shipped fixture against its pipeline target (cached)."""
    directory = Path(fixtures_dir) if fixtures_dir is not None else None
    meta, fixture_rf = _named_fixture(chart_id, name, directory)
    computed = _fixture_target(chart_id, name)
    return meta, compare_against_fixture(computed, fixture_rf)


def check_all_fixtures(fixtures_dir: str | None = None) -> list[tuple[str, object]]:
    """(fixture name, verdict) for every shipped fixture, in a fixed order."""
    results = []
    for chart_id in ("k2", "k3"):
        for name in FIXTURE_NAMES[chart_id]:
            meta, verdict = fixture_comparison(chart_id, name, fixtures_dir)
            results.append((meta.name, verdict))
    return results


def verify_convexity(
    chart_id: str,
    direction: tuple[int, ...] | None = None,
    fixtures_dir: Path | None = None,
    seed: int = DEFAULT_SEED,
) -> LemmaReport:
    """Positivity certificate for the antidiagonal second derivative.

    Also compares the structural numerator against the transcribed display:
    the k=3 display is SCALED by its printed overall constant 12, while the
    k=2 display is recorded as a MISMATCH (no positive constant, 24 included,
    makes it match), so for k=2 the certificate alone carries the claim.
    """
    start = time.perf_counter()
    if direction is None:
        direction = (1, -1) if chart_id == "k2" else (1, -1, 0)
    chart = K2_CHART if chart_id == "k2" else K3_CHART
    bundle = build_bundle(chart)
    d2 = _second_derivative(chart_id, tuple(direction))
    certificate = positivity_certificate(
        d2,
        bundle.calA.den,
        tuple(direction),
        f"second derivative of the {chart_id} objective along {tuple(direction)}",
        seed=seed,
    )
    fixture_name = "d2_antidiag" if chart_id == "k2" else "d2_alphabeta"
    _, comparison = fixture_comparison(
        chart_id, fixture_name, str(fixtures_dir) if fixtures_dir else None
    )
    # The convexity claim stands or falls with the positivity certificate; the
    # pipeline, not the transcribed display, is the source of truth.  A
    # non-matching display is recorded as a discrepancy, never patched.
    status = certificate.verdict
    witnesses = {
        "certificate": certificate.as_dict(),
        "fixture": {fixture_name: comparison.as_dict()},
    }
    if comparison.kind not in ("EXACT", "SCALED"):
        witnesses["recorded_discrepancy"] = (
            f"transcribed display {fixture_name} disagrees with the computed "
            f"second derivative ({comparison.kind}); kept as transcribed"
        )
    lemma_id = "convex2" if chart_id == "k2" else "convex3"
    return LemmaReport(lemma_id, status, witnesses, time.perf_counter() - start)


def _symmetry_identity(chart_id: str, swap: dict[str, str]) -> bool:
    chart = K2_CHART if chart_id == "k2" else K3_CHART
    cal_a = build_bundle(chart).calA
    gens = {name: MultiPoly.variable(chart.variables, name) for name in chart.variables}
    images = {name: gens[swap.get(name, name)] for name in chart.variables}
    swapped = RatFunc.make(
        cal_a.num.substitute(images, chart.variables),
        cal_a.den.substitute(images, chart.variables),
    )
    return cal_a.equals(swapped)


def verify_symmetry(lemma_id: str) -> LemmaReport:
    """Cross-multiplied invariance of the objective under a transposition."""
    start = time.perf_counter()
    swaps = {
        "symmetry2": ("k2", {"beta": "gamma", "gamma": "beta"}),
        "symmetry3a": ("k3", {"alpha": "beta", "beta": "alpha"}),
        "symmetry3b": ("k3", {"beta": "gamma", "gamma": "beta"}),
    }
    chart_id, swap = swaps[lemma_id]
    ok = _symmetry_identity(chart_id, swap)
    witnesses = {"identity": f"objective invariant under {swap} on {chart_id}",
                 "symbolic": ok}
    return LemmaReport(
        lemma_id, "PASS" if ok else "FAIL", witnesses, time.perf_counter() - start
    )


def _coefficient_split(
    poly: MultiPoly, split_degree: int, low_sign: int
) -> tuple[bool, Fraction, Fraction]:
    """Check signs below/above a degree split; return the two absolute sums.

    low_sign = -1 expects coefficients of degree <= split_degree nonpositive
    and the rest nonnegative; +1 expects the reverse.
    """
    coeffs = univar.from_multipoly(poly)
    low_total = Fraction(0)
    high_total = Fraction(0)
    ok = True
    for i, c in enumerate(coeffs):
        if i <= split_degree:
            ok = ok and (c * low_sign >= 0)
            low_total += abs(c)
        else:
            ok = ok and (c * low_sign <= 0)
            high_total += abs(c)
    return ok, low_total, high_total


def verify_inequality_chain(kind: str) -> LemmaReport:
    """Replay one of the hand coefficient-splitting bounds exactly.

    prime2_bound:          P(x) > x^6 (1680 x - 1968) for x > 1, 6/5 > 1968/1680
    doubleprime2_bound_low:  Q(x) >= (3002509 - 131832 x) x^10 on (0, 1]
    doubleprime2_bound_high: Q(x) > 3002509 - 131832 x^15 for x > 1,
                             with (6/5)^15 < 16 < 3002509/131832
    """
    start = time.perf_counter()
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
    return LemmaReport(
        f"chain:{kind}",
        "PASS" if ok else "FAIL",
        checks,
        time.perf_counter() - start,
    )


def _cauchy_root_bound(coeffs) -> Fraction:
    lead = abs(coeffs[-1])
    biggest = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else Fraction(0)
    return 1 + biggest / lead


def verify_prime2() -> LemmaReport:
    """First-derivative sign: positive for all x >= 6/5.

    Dual certificate: the replayed coefficient chain, plus a Sturm count
    showing the derivative numerator has no roots beyond 6/5 (up to an
    explicit root bound) and is positive at 6/5.
    """
    start = time.perf_counter()
    diag = restrict_diagonal()
    chain_report = verify_inequality_chain("prime2_bound")
    p_coeffs = univar.from_multipoly(diag.p)
    chain = sturm_chain(p_coeffs)
    bound = _cauchy_root_bound(p_coeffs)
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
    return LemmaReport(
        "prime2", "PASS" if ok else "FAIL", witnesses, time.perf_counter() - start
    )


def verify_doubleprime2() -> LemmaReport:
    """Second-derivative sign: positive on (0, 6/5].

    Dual certificate: both replayed coefficient chains, plus a Sturm count of
    zero roots of Q on (0, 6/5] together with Q(0) = 9 > 0.
    """
    start = time.perf_counter()
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
    return LemmaReport(
        "doubleprime2", "PASS" if ok else "FAIL", witnesses, time.perf_counter() - start
    )


def verify_veritas(sample_count: int = 50, seed: int = DEFAULT_SEED) -> LemmaReport:
    """Vanishing of the obstruction on both invariant subspaces.

    On W (equal exceptional areas) the vanishing is a polynomial identity; on
    the hyperplane V (delta = 0) it is sampled exactly through the polygon
    pipeline (the polygons there are centrally symmetric).
    """
    start = time.perf_counter()
    bundle = build_bundle(K3_CHART)
    t = MultiPoly.variable(("t",), "t")
    images = {"alpha": t, "beta": t, "gamma": t}
    w_zero = (
        bundle.f1.num.substitute(images, ("t",)).is_zero
        and bundle.f2.num.substitute(images, ("t",)).is_zero
    )
    rng = SplitMix64(seed)
    v_failures: list[list[str]] = []
    for _ in range(sample_count):
        alpha, beta, gamma = rng.point(3)
        areas = AreaVector.from_abcd(alpha, beta, gamma, Fraction(0))
        f1, f2 = evaluate_futaki_on_areas(areas)
        if f1 != 0 or f2 != 0:
            v_failures.append([str(alpha), str(beta), str(gamma), str(f1), str(f2)])
    ok = w_zero and not v_failures
    witnesses = {
        "W_identity": w_zero,
        "V_samples": sample_count,
        "V_failures": v_failures,
    }
    return LemmaReport(
        "veritas", "PASS" if ok else "FAIL", witnesses, time.perf_counter() - start
    )


def _proportional(x: CohClass, y: CohClass) -> bool:
    coords_x = (x.h, x.e1, x.e2, x.e3)
    coords_y = (y.h, y.e1, y.e2, y.e3)
    for i in range(4):
        for j in range(i + 1, 4):
            if coords_x[i] * coords_y[j] != coords_x[j] * coords_y[i]:
                return False
    return True


def _cremona_facts(sample_count: int, seed: int) -> dict:
    """Exact structural facts about the Cremona involution."""
    names = ("h", "e1", "e2", "e3")
    h, e1, e2, e3 = MultiPoly.gens(names)
    generic = CohClass(h, e1, e2, e3, 3)
    transformed = cremona(generic)
    involution = cremona(transformed) == generic
    isometry = pair(transformed, transformed) == pair(generic, generic)
    fixes_c1 = cremona(c1_class(3)) == c1_class(3)
    abcd = ("alpha", "beta", "gamma", "delta")
    alpha, beta, gamma, delta = MultiPoly.gens(abcd)
    areas = AreaVector.from_abcd(alpha, beta, gamma, delta)
    image = cremona(areas)
    a2, b2, g2, d2 = image.to_abcd()
    delta_flip = (
        a2 == alpha + delta
        and b2 == beta + delta
        and g2 == gamma + delta
        and d2 == -delta
    )
    rng = SplitMix64(seed)
    sign_swaps = 0
    for _ in range(sample_count):
        alpha_v, beta_v, gamma_v, delta_v = (rng.rational() for _ in range(4))
        av = AreaVector.from_abcd(alpha_v, beta_v, gamma_v, delta_v)
        if cremona(av).to_abcd()[3] == -delta_v:
            sign_swaps += 1
    return {
        "involution_identity": involution,
        "pairing_preserved_identity": isometry,
        "fixes_c1": fixes_c1,
        "delta_negated_identity": delta_flip,
        "delta_sign_swapped_samples": sign_swaps,
        "samples": sample_count,
    }


def verify_claritas() -> LemmaReport:
    """Record the critical-point location deduction and its inputs.

    The verified ingredients are the transposition symmetries, the segment
    convexity, and the invariance facts above; the remaining input, that the
    reduced cone is covered by the delta > 0 chart, its involution image, and
    the delta = 0 interface, is assumed geometry, so the deduction is recorded
    as a NOTE rather than claimed as machine-verified.
    """
    start = time.perf_counter()
    witnesses = {
        "statement": "critical classes lie in the delta=0 hyperplane or the "
        "equal-areas plane",
        "verified_ingredients": ["symmetry3a", "symmetry3b", "convex3", "cremona facts"],
        "assumed": "cone decomposition into the chart, its Cremona image, and "
        "the delta=0 interface (not machine-verified)",
    }
    return LemmaReport("claritas", "NOTE", witnesses, time.perf_counter() - start)


def verify_uniqueness_k2(
    sample_count: int = 100,
    isolation_width: Fraction = DEFAULT_ISOLATION_WIDTH,
    seed: int = DEFAULT_SEED,
    fixtures_dir: Path | None = None,
) -> LemmaReport:
    """Exactly one critical point for k = 2, an absolute minimum.

    Assembles the swap symmetry, the segment convexity certificate, the Sturm
    isolation of the unique positive derivative root inside (1, 6/5), the
    endpoint data, and the sampled averaging/minimality inequalities; emits
    the isolating interval and an enclosure of the objective value there.
    """
    start = time.perf_counter()
    ingredients = [
        run_lemma(lemma_id, sample_count, isolation_width, seed, fixtures_dir)
        for lemma_id in ("symmetry2", "convex2", "prime2", "doubleprime2")
    ]
    failures = {r.lemma_id: r.witnesses for r in ingredients if r.status == "FAIL"}

    diag = restrict_diagonal()
    intervals, sturm_data = sturm_isolate(
        diag.p, (Fraction(0), Fraction(2)), isolation_width
    )
    one_root = len(intervals) == 1
    inside = one_root and Fraction(1) <= intervals[0][0] and intervals[0][1] <= Fraction(6, 5)
    p_chain = sturm_data.chain
    total_positive = count_roots(p_chain, Fraction(0), Fraction(2))
    slope_at_0 = diag.df_at(Fraction(0))
    slope_at_6_5 = diag.df_at(Fraction(6, 5))
    if not (one_root and inside and total_positive == 1):
        failures["sturm"] = {
            "intervals": [[str(a), str(b)] for a, b in intervals],
            "count_(0,2]": total_positive,
        }
    if slope_at_0 != -12:
        failures["slope_at_0"] = str(slope_at_0)
    if slope_at_6_5 <= 0:
        failures["slope_at_6/5"] = str(slope_at_6_5)

    f_interval: tuple[Fraction, Fraction] | None = None
    if one_root:
        a, b = intervals[0]
        fa, fb = diag.f_at(a), diag.f_at(b)
        dfa = diag.df_at(a)
        lower = fa + dfa * (b - a) if dfa < 0 else fb + diag.df_at(b) * (a - b)
        upper = min(fa, fb)
        f_interval = (lower, upper)
        if not (Fraction(7) < lower and upper < Fraction(2919, 409)):
            failures["value_enclosure"] = [str(lower), str(upper)]

    rng = SplitMix64(seed)
    cal_a = build_bundle(K2_CHART).calA
    averaging_failures = 0
    minimality_failures = 0
    for _ in range(sample_count):
        beta, gamma = rng.point(2)
        value = cal_a.evaluate((beta, gamma))
        if value < diag.f_at((beta + gamma) / 2):
            averaging_failures += 1
        if f_interval is not None and value < f_interval[0]:
            minimality_failures += 1
    if averaging_failures or minimality_failures:
        failures["sampling"] = {
            "averaging_failures": averaging_failures,
            "minimality_failures": minimality_failures,
        }

    status = "PASS" if not failures else "FAIL"
    witnesses = {
        "critical_interval": [str(x) for x in intervals[0]] if one_root else None,
        "interval_width": str(intervals[0][1] - intervals[0][0]) if one_root else None,
        "value_interval": [str(x) for x in f_interval] if f_interval else None,
        "positive_roots_of_P": total_positive,
        "slope_at_0": str(slope_at_0),
        "slope_at_6/5": str(slope_at_6_5),
        "sampled_points": sample_count,
        "ingredients": {ingredient.lemma_id: ingredient.status for ingredient in ingredients},
    }
    if failures:
        witnesses["failures"] = failures
    return LemmaReport("laudate", status, witnesses, time.perf_counter() - start)


def verify_uniqueness_k3(
    sample_count: int = 100,
    seed: int = DEFAULT_SEED,
    fixtures_dir: Path | None = None,
) -> LemmaReport:
    """The anticanonical class is the unique critical point for k = 3.

    Assembles the transposition symmetries, the segment convexity certificate,
    obstruction vanishing on both invariant subspaces, the Cremona facts, the
    sign of the first variation along the anticanonical direction, the reverse
    Cauchy-Schwarz inequality on timelike samples, and sampled global
    minimality (objective >= 6 with equality at the anticanonical class).
    """
    start = time.perf_counter()
    ingredients = [
        run_lemma(lemma_id, sample_count, DEFAULT_ISOLATION_WIDTH, seed, fixtures_dir)
        for lemma_id in ("symmetry3a", "symmetry3b", "convex3", "veritas")
    ]
    failures = {r.lemma_id: r.witnesses for r in ingredients if r.status == "FAIL"}

    facts = _cremona_facts(max(1, sample_count // 5), seed)
    if not all(
        facts[key] is True
        for key in (
            "involution_identity",
            "pairing_preserved_identity",
            "fixes_c1",
            "delta_negated_identity",
        )
    ):
        failures["cremona"] = facts

    c1 = c1_class(3)
    rng = SplitMix64(seed)
    variation_failures: list[str] = []
    first_variation_samples = max(1, sample_count // 2)
    spot = first_variation_along_c1(
        AreaVector.from_abcd(2, 1, 1, 0).to_coh(3)
    )
    if spot != Fraction(-16, 25):
        failures["first_variation_spot"] = str(spot)
    if first_variation_along_c1(c1) != 0:
        failures["first_variation_at_c1"] = "nonzero"
    for i in range(first_variation_samples):
        if i % 2 == 0:
            alpha, beta, gamma = rng.point(3)
            if alpha == beta == gamma:
                continue
            omega = AreaVector.from_abcd(alpha, beta, gamma, Fraction(0)).to_coh(3)
        else:
            # equal-areas plane: delta > 0 or delta in (-t, 0), all areas positive
            t = rng.rational()
            r = rng.rational()
            delta = r if i % 4 == 1 else -t * r / (1 + r)
            omega = AreaVector.from_abcd(t, t, t, delta).to_coh(3)
        value = first_variation_along_c1(omega)
        if value >= 0:
            variation_failures.append(str(value))
    if variation_failures:
        failures["first_variation_samples"] = variation_failures

    cs_failures = 0
    for i in range(sample_count):
        e = [rng.rational() for _ in range(3)]
        x = CohClass(e[0] + e[1] + e[2] + 1, e[0], e[1], e[2], 3)
        if i % 5 == 4:
            # constructed proportional pair: equality case, exactly
            y = x.scale(rng.rational())
            expect_equality = True
        else:
            f = [rng.rational() for _ in range(3)]
            y = CohClass(f[0] + f[1] + f[2] + 1, f[0], f[1], f[2], 3)
            expect_equality = _proportional(x, y)
        gap = pair(x, y) ** 2 - pair(x, x) * pair(y, y)
        if gap < 0 or (gap == 0) != expect_equality:
            cs_failures += 1
    if cs_failures:
        failures["reverse_cauchy_schwarz"] = {"strict_failures": cs_failures}

    value_at_c1 = evaluate_calA_on_areas([Fraction(1)] * 6)
    if value_at_c1 != 6:
        failures["value_at_c1"] = str(value_at_c1)
    minimality_failures: list[str] = []
    for i in range(sample_count):
        alpha, beta, gamma = rng.point(3)
        region = i % 3
        if region == 0:
            areas = AreaVector.from_abcd(alpha, beta, gamma, rng.rational())
        elif region == 1:
            areas = cremona(AreaVector.from_abcd(alpha, beta, gamma, rng.rational()))
        else:
            areas = AreaVector.from_abcd(alpha, beta, gamma, Fraction(0))
        value = evaluate_calA_on_areas(areas)
        proportional = len(set(areas.as_tuple())) == 1
        if value < 6 or (value == 6 and not proportional):
            minimality_failures.append(str(value))
    if minimality_failures:
        failures["minimality_samples"] = minimality_failures

    status = "PASS" if not failures else "FAIL"
    witnesses = {
        "value_at_c1": str(value_at_c1),
        "first_variation_spot_(2,1,1,0)": str(spot),
        "cremona": facts,
        "reverse_cauchy_schwarz": {
            "timelike_pairs": sample_count,
            "strict_failures": cs_failures,
            "note": "the verified direction is (x.y)^2 >= x^2 y^2 for timelike "
            "classes (equality iff proportional), the direction consistent "
            "with the sign of the first variation",
        },
        "sampled_points": sample_count,
        "ingredients": {ingredient.lemma_id: ingredient.status for ingredient in ingredients},
    }
    if failures:
        witnesses["failures"] = failures
    return LemmaReport("gaudete", status, witnesses, time.perf_counter() - start)


# lemma reports of this process, keyed by (lemma id, *the verifier's arguments)
_REPORTS: dict[tuple, LemmaReport] = {}


def run_lemma(
    lemma_id: str,
    sample_count: int = 100,
    isolation_width: Fraction = DEFAULT_ISOLATION_WIDTH,
    seed: int = DEFAULT_SEED,
    fixtures_dir: Path | str | None = None,
) -> LemmaReport:
    """Dispatch a lemma id to its verifier, once per process for each key.

    The key is the arguments the verifier receives, normalised (the fixtures
    directory as a Path, the veritas sample count halved), not the call form,
    so the CLI and the composite lemmas share one report.
    """
    directory = Path(fixtures_dir) if fixtures_dir else None
    # looked up at call time, so that a wrapped verifier is the one called
    calls = {
        "convex2": (verify_convexity, ("k2", None, directory, seed)),
        "convex3": (verify_convexity, ("k3", None, directory, seed)),
        "symmetry2": (verify_symmetry, ("symmetry2",)),
        "symmetry3a": (verify_symmetry, ("symmetry3a",)),
        "symmetry3b": (verify_symmetry, ("symmetry3b",)),
        "prime2": (verify_prime2, ()),
        "doubleprime2": (verify_doubleprime2, ()),
        "veritas": (verify_veritas, (max(1, sample_count // 2), seed)),
        "claritas": (verify_claritas, ()),
        "laudate": (verify_uniqueness_k2, (sample_count, isolation_width, seed, directory)),
        "gaudete": (verify_uniqueness_k3, (sample_count, seed, directory)),
    }
    if lemma_id not in calls:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    verifier, args = calls[lemma_id]
    key = (lemma_id, *args)
    if key not in _REPORTS:
        _REPORTS[key] = verifier(*args)
    return _REPORTS[key]
