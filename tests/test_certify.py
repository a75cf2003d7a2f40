from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

import pytest

from kcert import certify
from kcert.certify import (
    check_all_fixtures,
    positivity_certificate,
    run_lemma,
    verify_claritas,
    verify_convexity,
    verify_doubleprime2,
    verify_inequality_chain,
    verify_prime2,
    verify_symmetry,
    verify_uniqueness_k2,
    verify_uniqueness_k3,
    verify_veritas,
)
from kcert.exprparse import compare_against_fixture
from kcert.poly import MultiPoly, RatFunc
from kcert.sampling import DEFAULT_SEED, SplitMix64


def test_convexity_certificates_pass():
    report2 = verify_convexity("k2")
    report3 = verify_convexity("k3")
    for report in (report2, report3):
        assert report.status == "PASS"
        cert = report.witnesses["certificate"]
        assert cert["numerator_terms"] > 0
        assert Fraction(cert["numerator_min_coeff"]) >= 0
        assert Fraction(cert["denominator_base_min_coeff"]) > 0
        # coefficient signs prove positivity on the orthant; nothing is sampled
        assert "sample_values_positive" not in cert
    assert report3.witnesses["fixture"]["d2_alphabeta"]["verdict"] == "SCALED"
    assert report3.witnesses["fixture"]["d2_alphabeta"]["constant"] == "12"


def test_k2_display_discrepancy_is_recorded_not_patched():
    report = verify_convexity("k2")
    fixture = report.witnesses["fixture"]["d2_antidiag"]
    assert fixture["verdict"] == "MISMATCH"
    assert "witness_point" in fixture
    assert "recorded_discrepancy" in report.witnesses
    # the mathematical claim itself is unaffected
    assert report.status == "PASS"


def test_negative_control_positivity():
    beta, gamma = MultiPoly.gens(("beta", "gamma"))
    f = RatFunc(-(beta ** 2), MultiPoly.const(("beta", "gamma"), 1))
    cert = positivity_certificate(
        f, MultiPoly.const(("beta", "gamma"), 1), (1, 0), "negative control"
    )
    assert cert.verdict == "FAIL"
    assert cert.numerator_min_coeff == -1
    assert cert.witness_monomial == "-1*beta^2"
    assert cert.recheck()
    assert "sample_values_positive" not in cert.as_dict()


def test_zero_numerator_fail_certificate_rechecks():
    variables = ("beta", "gamma")
    zero = RatFunc(MultiPoly.zero(variables), MultiPoly.const(variables, 1))
    cert = positivity_certificate(zero, MultiPoly.const(variables, 1), (1, 0), "zero")
    assert cert.verdict == "FAIL"
    assert cert.numerator_terms == 0
    assert cert.recheck()


def test_positivity_certificate_requires_the_cube_denominator():
    """D > 0 on the orthant makes the denominator positive only when it is
    D^3 exactly."""
    beta, gamma = MultiPoly.gens(("beta", "gamma"))
    base = 1 + beta + gamma
    numerator = 1 + beta * gamma
    for den in (base ** 2, base ** 3 + 1, 2 * base ** 3):
        with pytest.raises(ValueError, match="cube of denominator_base"):
            positivity_certificate(RatFunc(numerator, den), base, (1, 0), "wrong denominator")
    cert = positivity_certificate(RatFunc(numerator, base ** 3), base, (1, 0), "cube")
    assert cert.verdict == "PASS"


def test_positivity_certificate_recheck_is_self_contained():
    from kcert.certify import _second_derivative
    from kcert.delpezzo import K2_CHART
    from kcert.functional import build_bundle

    cert = positivity_certificate(
        _second_derivative("k2", (1, -1)),
        build_bundle(K2_CHART).calA.den,
        (1, -1),
        "recheck probe",
    )
    assert cert.verdict == "PASS" and cert.recheck()
    broken = cert._replace(numerator_min_coeff=Fraction(-1))
    assert not broken.recheck()


def test_tampered_certificate_fails_convexity(monkeypatch):
    real = certify.positivity_certificate

    def tampered(*args, **kwargs):
        return real(*args, **kwargs)._replace(numerator_min_coeff=Fraction(-1))

    monkeypatch.setattr(certify, "positivity_certificate", tampered)
    report = verify_convexity("k2")
    assert report.witnesses["certificate"]["verdict"] == "PASS"
    assert report.status == "FAIL"
    assert report.witnesses["certificate"]["numerator_min_coeff"] == "-1"
    assert report.witnesses["recheck_failure"] == (
        "the PASS verdict does not follow from the certificate's payload"
    )


def test_laudate_interval_recounts_to_one_root(monkeypatch):
    from kcert import univar
    from kcert.functional import restrict_diagonal
    from kcert.sturm import count_roots, sturm_chain

    report = verify_uniqueness_k2()
    lo, hi = (Fraction(x) for x in report.witnesses["critical_interval"])
    chain = sturm_chain(univar.from_multipoly(restrict_diagonal().p))
    assert count_roots(chain, lo, hi) == 1
    # an isolation that emits the interval just below the root fails the recount
    real = certify.sturm_isolate

    def shifted(*args):
        intervals, chain = real(*args)
        return [(2 * a - b, a) for a, b in intervals], chain

    monkeypatch.setattr(certify, "sturm_isolate", shifted)
    report = verify_uniqueness_k2()
    assert report.status == "FAIL"
    assert report.witnesses["failures"]["sturm"]["recount"] == 0


@pytest.mark.parametrize("width", ["1/2", "1/4", "1/8", "1/16"])
def test_laudate_verdict_does_not_depend_on_the_width(width):
    """A coarse isolation is bisected on the same chain until the interval
    lies in [1, 6/5] and its value enclosure decides."""
    report = verify_uniqueness_k2(isolation_width=Fraction(width))
    assert report.status == "PASS", report.witnesses.get("failures")
    assert report.witnesses["critical_interval"] == ["1", "17/16"]
    assert report.witnesses["interval_width"] == "1/16"


def test_laudate_refinement_stops_at_the_default_width(monkeypatch):
    """An enclosure that never decides is refined no further than the default
    isolation width, and is a FAIL there."""
    real = certify._value_enclosure
    monkeypatch.setattr(certify, "_value_enclosure", lambda *args: (real(*args)[0], False))
    report = verify_uniqueness_k2(isolation_width=Fraction(1, 2))
    assert report.status == "FAIL"
    assert set(report.witnesses["failures"]) == {"value_enclosure"}
    assert Fraction(report.witnesses["interval_width"]) == certify.DEFAULT_ISOLATION_WIDTH


def test_convexity_samples_positive():
    """The certificate samples nothing, so spot values taken here confirm
    its claim from outside: the k=3 second derivative is positive at seeded
    points of the open orthant."""
    report = verify_convexity("k3")
    assert report.status == "PASS"
    _, direction, _ = certify.CONVEXITY["k3"]
    d2 = certify._second_derivative("k3", direction)
    rng = SplitMix64(DEFAULT_SEED)
    for _ in range(20):
        assert d2.evaluate(rng.point(len(d2.variables))) > 0


def test_symmetries():
    for lemma_id in ("symmetry2", "symmetry3a", "symmetry3b"):
        assert verify_symmetry(lemma_id).status == "PASS"


def test_inequality_chains_exact_constants():
    prime = verify_inequality_chain("prime2_bound")
    assert prime.status == "PASS"
    assert prime.witnesses["negative_coefficient_total"] == "1968"
    assert prime.witnesses["positive_coefficient_total"] == "1680"
    low = verify_inequality_chain("doubleprime2_bound_low")
    assert low.status == "PASS"
    assert low.witnesses["positive_coefficient_total"] == "3002509"
    assert low.witnesses["negative_coefficient_total"] == "131832"
    high = verify_inequality_chain("doubleprime2_bound_high")
    assert high.status == "PASS"
    with pytest.raises(ValueError):
        verify_inequality_chain("bogus")


def test_coefficient_split_needs_integer_coefficients():
    # the totals are printed as the polynomial's own coefficients
    ok, low, high = certify._coefficient_split(MultiPoly(("x",), {(0,): -3, (2,): 2}), 0, -1)
    assert (ok, low, high) == (True, 3, 2) and type(low) is int
    halves = MultiPoly(("x",), {(0,): Fraction(-3, 2), (2,): 1})
    with pytest.raises(ValueError, match="integer coefficients"):
        certify._coefficient_split(halves, 0, -1)


def test_derivative_sign_lemmas():
    prime = verify_prime2()
    assert prime.status == "PASS"
    assert prime.witnesses["P(1)"] == "-288"
    assert prime.witnesses["sturm_roots_in_(6/5,root_bound]"] == 0
    double = verify_doubleprime2()
    assert double.status == "PASS"
    assert double.witnesses["Q(0)"] == "9"
    assert double.witnesses["sturm_roots_in_(0,6/5]"] == 0


def test_veritas():
    report = verify_veritas()
    assert report.status == "PASS"
    assert report.witnesses == {"W_identity": True, "V_identity": True}


def test_veritas_v_identity_is_not_vacuous():
    """Off V the boundary route's numerators are nonzero: the k3 chart itself
    is the delta = 1 face."""
    from kcert.delpezzo import K3_CHART
    from kcert.functional import futaki_boundary

    f1, f2 = futaki_boundary(K3_CHART.area_vector(), K3_CHART.variables)
    assert not f1.num.is_zero and not f2.num.is_zero


def test_veritas_fails_on_a_nonzero_obstruction_on_v(monkeypatch):
    real = certify.futaki_boundary

    def shifted(*args):
        f1, f2 = real(*args)
        return f1, f2 + 1

    monkeypatch.setattr(certify, "futaki_boundary", shifted)
    report = verify_veritas()
    assert report.status == "FAIL"
    assert report.witnesses == {"W_identity": True, "V_identity": False}


def test_claritas_is_a_note():
    report = verify_claritas()
    assert report.status == "NOTE"
    assert "assumed" in report.witnesses


def test_uniqueness_k2():
    report = verify_uniqueness_k2()
    assert report.status == "PASS", report.witnesses.get("failures")
    lo, hi = (Fraction(x) for x in report.witnesses["critical_interval"])
    assert Fraction(1) < lo < hi < Fraction(6, 5)
    assert hi - lo <= Fraction(1, 2 ** 30)
    value_lo, value_hi = (Fraction(x) for x in report.witnesses["value_interval"])
    assert Fraction(7) < value_lo <= value_hi < Fraction(2919, 409)
    assert report.witnesses["positive_roots_of_P"] == 1
    assert report.witnesses["slope_at_0"] == "-12"
    # minimality is deduced from the ingredients, not sampled
    assert "sampled_points" not in report.witnesses
    deduction = report.witnesses["minimality_deduction"]
    assert [step.split(":")[0] for step in deduction] == [
        "convex2 and symmetry2",
        "P has one positive root, in critical_interval",
        "doubleprime2",
    ]


@pytest.mark.parametrize(
    "lemma_id, verifier", [("convex2", "verify_convexity"), ("symmetry2", "verify_symmetry")]
)
def test_laudate_fails_with_a_failed_deduction_ingredient(monkeypatch, lemma_id, verifier):
    """No samples stand behind the minimality deduction: a FAIL ingredient in
    the memo is a FAIL laudate, named under its failures."""
    monkeypatch.setattr(certify, "_REPORTS", {})
    witnesses = {"probe": "failed"}
    monkeypatch.setattr(
        certify, verifier, lambda *args: certify.LemmaReport(lemma_id, "FAIL", witnesses)
    )
    assert run_lemma(lemma_id).status == "FAIL"
    report = run_lemma("laudate")
    assert report.status == "FAIL"
    assert report.witnesses["ingredients"][lemma_id] == "FAIL"
    assert report.witnesses["failures"] == {lemma_id: witnesses}


def test_uniqueness_k3():
    report = verify_uniqueness_k3()
    assert report.status == "PASS", report.witnesses.get("failures")
    assert report.witnesses["value_at_c1"] == "6"
    assert report.witnesses["first_variation_spot_(2,1,1,0)"] == "-16/25"
    facts = report.witnesses["cremona"]
    assert facts["involution_identity"] and facts["pairing_preserved_identity"]
    assert facts["fixes_c1"] and facts["delta_negated_identity"]
    # every Cremona fact is an identity; none is sampled
    assert set(facts) == {"involution_identity", "pairing_preserved_identity",
                          "fixes_c1", "delta_negated_identity"}
    # minimality is deduced from the identity and the objective's parts, not sampled
    assert "sampled_points" not in report.witnesses
    deduction = report.witnesses["minimality_deduction"]
    assert [step.split(":")[0] for step in deduction] == [
        "objective_parts",
        "reverse_cauchy_schwarz_identity at x = c1 (h = 3, c1^2 = 6 > 0)",
        "veritas and value_at_c1",
    ]


def test_uniqueness_k3_evaluates_the_objective_once(monkeypatch):
    """gaudete draws no class: its one objective value is value_at_c1."""
    monkeypatch.setattr(certify, "_REPORTS", {})
    calls = []
    evaluate = certify.evaluate_calA_on_areas
    monkeypatch.setattr(
        certify, "evaluate_calA_on_areas", lambda areas: calls.append(areas) or evaluate(areas)
    )
    assert verify_uniqueness_k3().status == "PASS"
    assert calls == [[Fraction(1)] * 6]


def test_reverse_cauchy_schwarz_identity_needs_the_lorentzian_pairing(monkeypatch):
    assert certify._reverse_cauchy_schwarz_identity()

    def euclidean(x, y):
        return x.h * y.h + x.e1 * y.e1 + x.e2 * y.e2 + x.e3 * y.e3

    monkeypatch.setattr(certify, "pair", euclidean)
    assert not certify._reverse_cauchy_schwarz_identity()


def test_uniqueness_k3_fails_without_the_identity(monkeypatch):
    monkeypatch.setattr(certify, "_REPORTS", {})
    monkeypatch.setattr(certify, "_reverse_cauchy_schwarz_identity", lambda: False)
    report = verify_uniqueness_k3()
    assert report.status == "FAIL"
    assert report.witnesses["reverse_cauchy_schwarz_identity"] is False
    assert set(report.witnesses["failures"]) == {"reverse_cauchy_schwarz"}


def test_run_lemma_dispatch():
    assert run_lemma("claritas").status == "NOTE"
    with pytest.raises(ValueError):
        run_lemma("nonsense")


def test_run_lemma_times_the_report_it_memoizes(monkeypatch):
    monkeypatch.setattr(certify, "_REPORTS", {})
    cold = run_lemma("convex2")
    assert cold.seconds > 0
    direct = verify_convexity("k2")
    assert direct.seconds == 0.0
    assert direct == cold._replace(seconds=0.0)
    assert run_lemma("convex2") is cold


def test_lemma_ids_are_the_published_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    published = re.search(r"Lemma ids: `([^`]*)`", readme).group(1).split()
    assert certify.LEMMA_IDS == tuple(published)


def test_composite_lemmas_reuse_ingredient_reports(monkeypatch):
    monkeypatch.setattr(certify, "_REPORTS", {})
    # ingredients by position, composites by keyword: the memo keys on the
    # normalised arguments, not on the call form
    for lemma_id in ("symmetry2", "convex2", "prime2", "doubleprime2",
                     "symmetry3a", "symmetry3b", "convex3"):
        run_lemma(lemma_id, Fraction(1, 12))
    run_lemma("veritas", Fraction(1, 13))  # veritas takes no setting: one report for any width
    assert run_lemma("convex2", fixtures_dir=None) is run_lemma("convex2", Fraction(1, 5))

    def refuse(*args, **kwargs):
        raise AssertionError("an ingredient verifier ran again")

    for name in ("verify_convexity", "verify_symmetry", "verify_prime2",
                 "verify_doubleprime2", "verify_veritas"):
        monkeypatch.setattr(certify, name, refuse)
    laudate = run_lemma("laudate", isolation_width=Fraction(1, 12))
    gaudete = run_lemma("gaudete", Fraction(1, 12), fixtures_dir=None)
    assert laudate.status == "PASS" and gaudete.status == "PASS"
    assert set(laudate.witnesses["ingredients"].values()) == {"PASS"}
    assert set(gaudete.witnesses["ingredients"].values()) == {"PASS"}


@pytest.mark.parametrize("lemma_id", ["convex2", "laudate"])
def test_seed_splits_no_report_but_gaudete(monkeypatch, lemma_id):
    """The seed once reached gaudete's minimality samples alone.  gaudete now
    deduces its minimality, so no verifier takes a seed and each lemma,
    gaudete included, has one report for any seed."""
    monkeypatch.setattr(certify, "_REPORTS", {})
    for name in (lemma_id, "gaudete"):
        with pytest.raises(TypeError, match="seed"):
            run_lemma(name, seed=5)
    assert run_lemma(lemma_id) is run_lemma(lemma_id, fixtures_dir=None)
    assert run_lemma("gaudete") is run_lemma("gaudete", Fraction(1, 3))


def test_fixture_battery():
    expected = {
        "calA_k2": "EXACT",
        "d2_antidiag_k2": "MISMATCH",
        "F_beta_k2": "EXACT",
        "P_k2": "EXACT",
        "Q_k2": "EXACT",
        "F1_k3": "EXACT",
        "F2_k3": "EXACT",
        "A_k3": "EXACT",
        "B_k3": "EXACT",
        "C_k3": "EXACT",
        "calA_k3": "EXACT",
        "d2_alphabeta_k3": "SCALED",
    }
    results = dict(check_all_fixtures())
    assert {name: v.kind for name, v in results.items()} == expected
    assert results["d2_alphabeta_k3"].constant == 12


def test_fixture_comparisons_stop_sampling_once_decided(monkeypatch):
    """An EXACT fixture needs one sample point, the k2 MISMATCH at most three."""
    evaluations = 0
    evaluate = RatFunc.evaluate

    def counting_evaluate(self, point):
        nonlocal evaluations
        evaluations += 1
        return evaluate(self, point)

    # every fixture but the two second-derivative displays is EXACT
    budgets = {
        ("k2", "d2_antidiag"): 6,
        **{("k2", name): 2 for name in ("calA", "F_beta", "P", "Q")},
        **{("k3", name): 2 for name in ("F1", "F2", "A", "B", "C", "calA")},
    }
    monkeypatch.setattr(RatFunc, "evaluate", counting_evaluate)
    for (chart_id, name), budget in budgets.items():
        _, fixture = certify._named_fixture(chart_id, name, None)
        computed = certify._fixture_target(chart_id, name)
        evaluations = 0
        compare_against_fixture(computed, fixture)
        assert evaluations <= budget, (chart_id, name, evaluations)
