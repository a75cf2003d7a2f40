from __future__ import annotations

from fractions import Fraction

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
from kcert.poly import MultiPoly, RatFunc


def test_convexity_certificates_pass():
    report2 = verify_convexity("k2")
    assert report2.status == "PASS"
    cert = report2.witnesses["certificate"]
    assert cert["numerator_terms"] > 0
    assert Fraction(cert["numerator_min_coeff"]) >= 0
    assert Fraction(cert["denominator_base_min_coeff"]) > 0
    report3 = verify_convexity("k3")
    assert report3.status == "PASS"
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
    # no samples are drawn for a FAIL certificate, so none can be positive
    assert cert.as_dict()["sample_values_positive"] is False


def test_positivity_certificate_recheck_is_self_contained():
    from dataclasses import replace

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
    broken = replace(cert, numerator_min_coeff=Fraction(-1))
    assert not broken.recheck()


def test_convexity_samples_positive():
    report = verify_convexity("k3")
    assert report.witnesses["certificate"]["sample_values_positive"]


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
    report = verify_veritas(50)
    assert report.status == "PASS"
    assert report.witnesses["W_identity"] is True
    assert report.witnesses["V_failures"] == []


def test_veritas_deterministic():
    assert verify_veritas(10).witnesses == verify_veritas(10).witnesses


def test_claritas_is_a_note():
    report = verify_claritas()
    assert report.status == "NOTE"
    assert "assumed" in report.witnesses


def test_uniqueness_k2():
    report = verify_uniqueness_k2(sample_count=60)
    assert report.status == "PASS", report.witnesses.get("failures")
    lo, hi = (Fraction(x) for x in report.witnesses["critical_interval"])
    assert Fraction(1) < lo < hi < Fraction(6, 5)
    assert hi - lo <= Fraction(1, 2 ** 30)
    value_lo, value_hi = (Fraction(x) for x in report.witnesses["value_interval"])
    assert Fraction(7) < value_lo <= value_hi < Fraction(2919, 409)
    assert report.witnesses["positive_roots_of_P"] == 1
    assert report.witnesses["slope_at_0"] == "-12"


def test_uniqueness_k3():
    report = verify_uniqueness_k3(sample_count=60)
    assert report.status == "PASS", report.witnesses.get("failures")
    assert report.witnesses["value_at_c1"] == "6"
    assert report.witnesses["first_variation_spot_(2,1,1,0)"] == "-16/25"
    facts = report.witnesses["cremona"]
    assert facts["involution_identity"] and facts["pairing_preserved_identity"]
    assert facts["fixes_c1"] and facts["delta_negated_identity"]


def test_run_lemma_dispatch():
    assert run_lemma("claritas").status == "NOTE"
    with pytest.raises(ValueError):
        run_lemma("nonsense")


def test_composite_lemmas_reuse_ingredient_reports(monkeypatch):
    monkeypatch.setattr(certify, "_REPORTS", {})
    # ingredients by position, composites by keyword: the memo keys on the
    # normalised arguments, not on the call form
    for lemma_id in ("symmetry2", "convex2", "prime2", "doubleprime2",
                     "symmetry3a", "symmetry3b", "convex3"):
        run_lemma(lemma_id, 12)
    run_lemma("veritas", 13)  # halved to 6 samples, as for sample_count=12
    assert run_lemma("convex2", seed=certify.DEFAULT_SEED) is run_lemma("convex2", 5)

    def refuse(*args, **kwargs):
        raise AssertionError("an ingredient verifier ran again")

    for name in ("verify_convexity", "verify_symmetry", "verify_prime2",
                 "verify_doubleprime2", "verify_veritas"):
        monkeypatch.setattr(certify, name, refuse)
    laudate = run_lemma("laudate", sample_count=12)
    gaudete = run_lemma("gaudete", sample_count=12, fixtures_dir=None)
    assert laudate.status == "PASS" and gaudete.status == "PASS"
    assert set(laudate.witnesses["ingredients"].values()) == {"PASS"}
    assert set(gaudete.witnesses["ingredients"].values()) == {"PASS"}


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
