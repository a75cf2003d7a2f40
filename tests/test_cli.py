from __future__ import annotations

import hashlib
import json
import shutil
from fractions import Fraction

import pytest

from kcert import certify
from kcert.cli import emit_report, parse_rational, run


def test_parse_rational_accepts_exact_only():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_rational("0.5")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_rational("1e-3")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_rational("1/0")


def test_zero_denominator_is_usage_error(tmp_path, monkeypatch, capsys):
    assert run(["eval", "--chart", "k2", "--point", "1/0,1", "--what", "V"]) == 2
    assert "zero denominator" in capsys.readouterr().err
    assert run(["isolate", "--chart", "k2", "--width", "1/0"]) == 2
    assert "zero denominator" in capsys.readouterr().err
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"isolation_width": "1/0"}))
    monkeypatch.setenv("KCERT_CONFIG", str(config_path))
    assert run(["verify", "--lemma", "claritas"]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["-1,1", "0,1", "1,-1/2"])
def test_eval_outside_positive_orthant_is_usage_error(point, capsys):
    assert run(["eval", "--chart", "k2", f"--point={point}", "--what", "calA"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be positive" in captured.err


def test_eval_objective(capsys):
    assert run(["eval", "--chart", "k2", "--point", "1,1", "--what", "calA"]) == 0
    assert capsys.readouterr().out.strip() == "2919/409"


def test_eval_obstruction_component(capsys):
    assert run(["eval", "--chart", "k3", "--point", "1,1,1", "--what", "F1"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_moment_entry_carries_pi(capsys):
    assert run(["eval", "--chart", "k2", "--point", "1,1", "--what", "A"]) == 0
    assert capsys.readouterr().out.strip() == "(265/1008)*pi^-2"


def test_eval_wrong_arity(capsys):
    assert run(["eval", "--chart", "k3", "--point", "1,1", "--what", "V"]) == 2


def test_eval_rejects_decimals():
    assert run(["eval", "--chart", "k2", "--point", "1.5,1", "--what", "V"]) == 2


def test_isolate(capsys):
    assert run(["isolate", "--chart", "k2", "--width", "1/4096"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("[") and out.endswith("]")
    lo, hi = (Fraction(part.strip()) for part in out[1:-1].split(","))
    assert hi - lo <= Fraction(1, 4096)
    assert 1 < lo < hi < Fraction(6, 5)


def test_verify_single_lemma_json(capsys):
    code = run(["verify", "--lemma", "symmetry2", "--format", "json", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["aggregate"] == "PASS"
    assert payload["lemmas"][0]["id"] == "symmetry2"
    assert payload["lemmas"][0]["status"] == "PASS"
    assert "seconds" not in payload["lemmas"][0]


def test_verify_unknown_lemma(capsys):
    assert run(["verify", "--lemma", "nonsense"]) == 2


def test_verify_requires_selection(capsys):
    assert run(["verify"]) == 2


def test_verify_report_is_deterministic_without_timing(capsys):
    args = ["verify", "--lemma", "veritas", "--format", "json", "--no-timing"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_fixture_check_reports_recorded_mismatch(capsys):
    code = run(["fixtures", "check", "--format", "json", "--no-timing"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    verdicts = {item["name"]: item["verdict"] for item in payload["fixtures"]}
    assert verdicts["calA_k2"] == "EXACT"
    assert verdicts["calA_k3"] == "EXACT"
    assert verdicts["d2_alphabeta_k3"] == "SCALED"
    assert verdicts["d2_antidiag_k2"] == "MISMATCH"
    # exit code is consistent with the aggregate verdict: the recorded
    # transcription discrepancy keeps the battery red by design
    assert payload["aggregate"] == "FAIL"
    assert code == 1


def test_markdown_rendering(capsys):
    code = run(["verify", "--lemma", "claritas", "--format", "markdown", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# verification report" in out
    assert "| claritas | NOTE |" in out


def test_empty_task_list_passes():
    from kcert.cli import Report, RunConfig

    report = Report("0", RunConfig(tasks=[]), [], [], 0.0)
    assert report.aggregate == "PASS"
    assert json.loads(emit_report(report, "json"))["aggregate"] == "PASS"


def test_jobs_flag_merges_deterministically(capsys):
    args = [
        "verify", "--lemma", "symmetry2", "--lemma", "claritas",
        "--lemma", "prime2", "--format", "json", "--no-timing",
    ]
    assert run(args) == 0
    sequential = capsys.readouterr().out
    assert run(args + ["--jobs", "3"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    sequential = json.loads(sequential)
    assert [l["id"] for l in parallel["lemmas"]] == [l["id"] for l in sequential["lemmas"]]
    assert parallel["lemmas"] == sequential["lemmas"]


def test_invalid_sample_count_is_usage_error(capsys):
    assert run(["verify", "--lemma", "claritas", "--samples", "0"]) == 2


def test_invalid_jobs_flag_is_usage_error(capsys):
    assert run(["verify", "--lemma", "claritas", "--jobs", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "jobs must be >= 1" in captured.err


def test_zero_fixture_denominator_is_usage_error(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(certify.FIXTURES_DIR, fixtures)
    path = fixtures / "k2" / "P.fix"
    head, _, _ = path.read_text(encoding="utf-8").partition("[denominator]")
    path.write_text(head + "[denominator]\n0\n", encoding="utf-8")
    assert run(["fixtures", "check", "--fixtures-dir", str(fixtures)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "P_k2: [denominator] is the zero polynomial" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, code, digest",
    [
        (["report"], 1, "4636664ddd59ed8dd78be1fad15b35b2"),
        (["verify", "--all"], 0, "2b20ae30882781dc0944422d5f8f8f80"),
        (["fixtures", "check"], 1, "0ca8cce540a802f69bff166716179909"),
    ],
    ids=["report", "verify-all", "fixtures-check"],
)
def test_report_bytes_are_unchanged(monkeypatch, capsys, command, code, digest):
    # the --no-timing output changes only when the mathematics does; a fresh
    # lemma memo makes each run compute every report itself
    monkeypatch.setattr(certify, "_REPORTS", {})
    assert run([*command, "--no-timing", "--format", "json"]) == code
    stdout = capsys.readouterr().out
    assert hashlib.md5(stdout.encode("utf-8")).hexdigest() == digest


def test_laudate_alone_matches_its_verify_all_entry(monkeypatch, capsys):
    def laudate_entry(selection: list[str]) -> dict:
        monkeypatch.setattr(certify, "_REPORTS", {})
        args = ["verify", *selection, "--samples", "10", "--no-timing", "--format", "json"]
        assert run(args) == 0
        lemmas = json.loads(capsys.readouterr().out)["lemmas"]
        return next(item for item in lemmas if item["id"] == "laudate")

    assert laudate_entry(["--lemma", "laudate"]) == laudate_entry(["--all"])


def test_report_includes_truncated_chart_summaries(capsys):
    code = run(["report", "--format", "markdown", "--no-timing", "--samples", "4"])
    out = capsys.readouterr().out
    assert "## chart summaries" in out
    assert "more terms)" in out  # long canonical polynomials are truncated
    assert code in (0, 1)
    # JSON carries the full canonical text
    assert run(["report", "--format", "json", "--no-timing", "--samples", "4"]) in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    k2 = next(b for b in payload["bundles"] if b["chart"] == "k2")
    assert k2["evaluations"]["1,1"]["calA"] == "2919/409"
    assert k2["evaluations"]["1,1"]["A"] == "(265/1008)*pi^-2"
    assert "...("  not in k2["calA"]


def test_env_config_override(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"sample_count": 7, "seed": 99}))
    monkeypatch.setenv("KCERT_CONFIG", str(config_path))
    assert run(["verify", "--lemma", "claritas", "--format", "json", "--no-timing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["sample_count"] == 7
    assert payload["config"]["seed"] == 99


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"jobs": "4"}', "'jobs' must be an integer, got '4'"),
        ("[1, 2]", "must hold a JSON object, got [1, 2]"),
        ('"seed"', "must hold a JSON object"),
        ('{"seed": true}', "'seed' must be an integer"),
        ('{"sample_count": 1.5}', "'sample_count' must be an integer"),
        ('{"isolation_width": 0.5}', "'isolation_width' must be a string or an integer"),
        ('{"fixtures_dir": 3}', "'fixtures_dir' must be a string or null"),
        ('{"format": "xml"}', "'format' must be json or markdown"),
        ('{"samples": 7}', "unknown KCERT_CONFIG key 'samples'"),
        ('{"sample_count": 0}', "sample_count must be >= 1"),
        ('{"jobs": 0}', "jobs must be >= 1"),
    ],
)
def test_bad_env_config_is_usage_error(text, message, tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    monkeypatch.setenv("KCERT_CONFIG", str(config_path))
    assert run(["verify", "--lemma", "claritas", "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_env_config_flags_override_and_width(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"sample_count": 7, "isolation_width": "1/1024", "jobs": 1, "fixtures_dir": None})
    )
    monkeypatch.setenv("KCERT_CONFIG", str(config_path))
    args = ["verify", "--lemma", "claritas", "--format", "json", "--no-timing"]
    assert run(args + ["--samples", "5"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["sample_count"] == 5
    assert config["isolation_width"] == "1/1024"
    assert config["fixtures_dir"] is None
