from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kcert
from kcert import certify
from kcert.cli import emit_report, parse_rational, run
from kcert.delpezzo import AreaVector
from kcert.exprparse import MAX_EXPANSION, MAX_WORD_PAIRS
from kcert.functional import evaluate_calA_on_areas
from kcert.poly import MultiPoly


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


@pytest.mark.parametrize("text", ["\u0663", "\uff13", "1/\u0663", "\u00b2", "3\u00a0/4"])
def test_parse_rational_is_ascii_only(text):
    import argparse

    with pytest.raises(argparse.ArgumentTypeError, match="non-ASCII"):
        parse_rational(text)


def test_non_ascii_point_is_usage_error(capsys):
    # an Arabic-Indic three: read as 3 by int(), it must not reach the pipeline
    assert run(["eval", "--chart", "k2", "--point", "\u0663,1", "--what", "calA"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-ASCII '\u0663' at column 1" in captured.err
    assert "Traceback" not in captured.err


def test_zero_denominator_is_usage_error(tmp_path, monkeypatch, capsys):
    assert run(["eval", "--chart", "k2", "--point", "1/0,1", "--what", "V"]) == 2
    assert "zero denominator" in capsys.readouterr().err
    assert run(["isolate", "--width", "1/0"]) == 2
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


@pytest.mark.parametrize(
    "chart, point, what, text",
    [
        ("k2", "1,2", "A", "(685/1584)*pi^-2"),
        ("k2", "1,2", "B", "(1477/1584)*pi^-2"),
        ("k2", "1,2", "C", "(-325/3168)*pi^-2"),
        ("k3", "1/2,2,3", "A", "(991/288)*pi^-2"),
        ("k3", "1/2,2,3", "B", "(46451/8352)*pi^-2"),
        ("k3", "1/2,2,3", "C", "(-53/72)*pi^-2"),
    ],
)
def test_eval_moment_entry_bytes_at_the_ci_points(capsys, chart, point, what, text):
    # the exact bytes of the points that CI evaluates in fresh processes
    assert run(["eval", "--chart", chart, "--point", point, "--what", what]) == 0
    assert capsys.readouterr().out == text + "\n"


def test_eval_wrong_arity(capsys):
    assert run(["eval", "--chart", "k3", "--point", "1,1", "--what", "V"]) == 2


def test_eval_rejects_decimals():
    assert run(["eval", "--chart", "k2", "--point", "1.5,1", "--what", "V"]) == 2


def test_isolate(capsys):
    assert run(["isolate", "--width", "1/4096"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("[") and out.endswith("]")
    lo, hi = (Fraction(part.strip()) for part in out[1:-1].split(","))
    assert hi - lo <= Fraction(1, 4096)
    assert 1 < lo < hi < Fraction(6, 5)
    # isolate has one chart, so it takes no --chart
    assert run(["isolate", "--chart", "k2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --chart k2" in captured.err
    assert "Traceback" not in captured.err


def test_verify_single_lemma_json(capsys):
    code = run(["verify", "--lemma", "symmetry2", "--format", "json", "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["aggregate"] == "PASS"
    assert payload["lemmas"][0]["id"] == "symmetry2"
    assert payload["lemmas"][0]["status"] == "PASS"
    assert "seconds" not in payload["lemmas"][0]


def test_verify_all_times_every_lemma(capsys):
    assert run(["verify", "--all", "--format", "json"]) == 0
    lemmas = json.loads(capsys.readouterr().out)["lemmas"]
    assert [item["id"] for item in lemmas] == list(certify.LEMMA_IDS)
    for item in lemmas:
        assert isinstance(item["seconds"], float) and item["seconds"] >= 0, item["id"]


def test_verify_unknown_lemma(capsys):
    assert run(["verify", "--lemma", "nonsense"]) == 2


def test_verify_requires_selection(capsys):
    assert run(["verify"]) == 2
    assert "verify requires --lemma ID or --all" in capsys.readouterr().err


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


def test_markdown_timing_follows_the_payload(capsys):
    args = ["verify", "--lemma", "claritas", "--format", "markdown"]
    assert run(args) == 0
    out = capsys.readouterr().out
    assert "| id | status | seconds |" in out
    assert re.search(r"^\| claritas \| NOTE \| \d+\.\d+ \|$", out, re.MULTILINE)
    assert re.search(r"^- total seconds: \d+\.\d+$", out, re.MULTILINE)
    assert run(args + ["--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "| id | status |\n" in out and "| claritas | NOTE |\n" in out
    assert "seconds" not in out


def test_empty_task_list_passes(capsys):
    from kcert.cli import RunConfig, _report

    assert _report(RunConfig(tasks=[]), ()) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aggregate"] == "PASS"
    assert payload["lemmas"] == payload["fixtures"] == []
    assert json.loads(emit_report(payload, "json")) == payload


def _assert_retired(flag: str, key: str, tmp_path, monkeypatch, capsys) -> None:
    """``flag 1`` and a KCERT_CONFIG naming ``key`` are each a usage error."""
    args = ["verify", "--lemma", "claritas", "--no-timing"]
    assert run(args + [flag, "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} 1" in captured.err
    assert "Traceback" not in captured.err
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: 1}))
    monkeypatch.setenv("KCERT_CONFIG", str(config_path))
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown KCERT_CONFIG key {key!r}" in captured.err
    assert "Traceback" not in captured.err


def test_invalid_sample_count_is_usage_error(tmp_path, monkeypatch, capsys):
    """No lemma's claim rests on a sample, so any sample count is a usage
    error: the ``--samples`` flag and the ``sample_count`` key alike."""
    _assert_retired("--samples", "sample_count", tmp_path, monkeypatch, capsys)


def test_jobs_setting_is_retired(tmp_path, monkeypatch, capsys):
    """``jobs`` reached no computation, so neither its flag nor its
    KCERT_CONFIG key is read: each is a usage error."""
    _assert_retired("--jobs", "jobs", tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("lemma", ["bogus", "convex2"])
def test_verify_all_with_lemma_is_usage_error(lemma, capsys):
    """--all and --lemma exclude each other: neither silently wins."""
    assert run(["verify", "--all", "--lemma", lemma, "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --lemma: not allowed with argument --all" in captured.err
    assert "Traceback" not in captured.err


def test_seed_changes_no_lemma(monkeypatch, capsys):
    """No lemma's claim rests on a sample, so the seed is echoed and reaches
    no report, gaudete's included."""
    args = ["verify", "--lemma", "gaudete", "--lemma", "laudate", "--no-timing"]
    payloads = []
    for seed in ("5", "6"):
        monkeypatch.setattr(certify, "_REPORTS", {})
        assert run(args + ["--seed", seed]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    assert payloads[0]["lemmas"] == payloads[1]["lemmas"]
    assert [item["id"] for item in payloads[0]["lemmas"]] == ["laudate", "gaudete"]
    assert [payload["config"]["seed"] for payload in payloads] == [5, 6]


def test_seed_changes_no_lemma_but_gaudete(monkeypatch, capsys):
    """The lemmas that never sampled keep their entries under any seed;
    gaudete, which once did, is held to the same in test_seed_changes_no_lemma."""
    monkeypatch.setattr(certify, "_REPORTS", {})
    args = ["verify", "--lemma", "convex2", "--lemma", "laudate", "--no-timing"]
    lemmas = []
    for seed in ("5", "6"):
        assert run(args + ["--seed", seed]) == 0
        lemmas.append(json.loads(capsys.readouterr().out)["lemmas"])
    assert lemmas[0] == lemmas[1]
    assert [item["id"] for item in lemmas[0]] == ["convex2", "laudate"]


def test_ci_config_step_gives_every_setting_its_default():
    """CI's "KCERT_CONFIG with every default" step writes one JSON object;
    it names each setting, in order, at its ``RunConfig`` default."""
    from kcert.cli import _ENV_CONFIG_TYPES, RunConfig

    ci = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"
    step = ci.read_text(encoding="utf-8").split("KCERT_CONFIG with every default", 1)[1]
    settings = json.loads(re.search(r"echo '(\{.*?\})'", step).group(1))
    assert list(settings) == list(_ENV_CONFIG_TYPES)
    defaults = RunConfig().as_dict()
    del defaults["tasks"]
    assert settings == defaults


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_out_of_range_seed_flag_is_usage_error(seed, capsys):
    # masking to 64 bits would run -1 as 2^64-1 while the report echoed -1
    assert run(["verify", "--lemma", "veritas", "--seed", seed, "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"seed must be in 0..2^64-1, got {seed}" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flag, text",
    [("--seed", "\u0663"), ("--seed", "1_0"), ("--seed", "\uff12"), ("--seed", "+2"),
     ("--seed", "0x10"), ("--seed", "")],
)
def test_integer_flags_take_ascii_digits_only(flag, text, capsys):
    # int() reads an Arabic-Indic three as 3 and 1_0 as 10; neither may run
    assert run(["verify", "--lemma", "veritas", flag, text, "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: expected an integer like 42, got {text.strip()!r}" in captured.err
    if not text.isascii():
        assert f"non-ASCII {text!r} at column 1" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_seed_range_ends_run(seed, capsys):
    args = ["verify", "--lemma", "veritas", "--seed", str(seed)]
    assert run(args + ["--no-timing", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["seed"] == seed
    assert payload["lemmas"][0]["witnesses"] == {
        "obstruction_routes_identity": True,
        "objective_forms_identity": True,
        "W_identity": True,
        "V_identity": True,
    }


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


def test_mislabelled_fixture_is_usage_error(tmp_path, capsys):
    """Reports list a fixture by its [meta] name, so k2/calA.fix relabelled as
    the k3 display must not stand in for calA_k2 under another name."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(certify.FIXTURES_DIR, fixtures)
    path = fixtures / "k2" / "calA.fix"
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("name = calA_k2", "name = d2_alphabeta_k3", 1), encoding="utf-8")
    assert run(["fixtures", "check", "--fixtures-dir", str(fixtures), "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "fixture error: k2/calA.fix: [meta] name is 'd2_alphabeta_k3', expected 'calA_k2'\n"
    )


@pytest.mark.parametrize(
    "numerator, column",
    [
        ("1 + beta +\n  3 " + "7" * 5000 + " beta", 5),
        ("1 +\n(((beta^64)^64)^64)^64", 21),
        # the 65th open '(' is refused before the recursive parser can overflow
        ("1 +\n" + "(" * 250 + "beta" + ")" * 250, 65),
    ],
    ids=["5000-digit-literal", "exponent-guard", "nesting-limit"],
)
def test_fixture_arithmetic_limits_are_positioned_errors(numerator, column, tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(certify.FIXTURES_DIR, fixtures)
    path = fixtures / "k2" / "P.fix"
    head, _, _ = path.read_text(encoding="utf-8").partition("[numerator]")
    path.write_text(head + "[numerator]\n" + numerator + "\n", encoding="utf-8")
    assert run(["fixtures", "check", "--fixtures-dir", str(fixtures)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fixture error: P_k2: [numerator] ")
    # the second line of the section, counted from the top of the file
    assert f"(line {head.count(chr(10)) + 3}, column {column})" in captured.err
    assert "Traceback" not in captured.err


def test_fixture_expansion_is_a_positioned_error(tmp_path, monkeypatch, capsys):
    """21 characters that would expand to 131,841 terms are refused at the
    exponent 8, before any product past ``MAX_EXPANSION`` is formed: the
    square of the 8,385 terms of (beta+gamma+1)^128 would fill a 257 x 257
    box in slots of 7 words, so the fourth power is never formed."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(certify.FIXTURES_DIR, fixtures)
    path = fixtures / "k2" / "calA.fix"
    head, _, _ = path.read_text(encoding="utf-8").partition("[numerator]")
    path.write_text(head + "[numerator]\n1 +\n((beta+gamma+1)^64)^8\n", encoding="utf-8")
    multiply, sizes = MultiPoly.__mul__, []

    def measuring(a, b):
        pairs = len(a.numerators) * len(b.numerators)
        box = 1
        for x, y in zip(zip(*a.numerators), zip(*b.numerators)):
            box *= max(x) + max(y) + 1
        bits = sum(max(map(abs, p.numerators.values()), default=0).bit_length() for p in (a, b))
        sizes.append(min(pairs, box * max(1, -(-bits // 64))))
        return multiply(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", measuring)
    assert run(["fixtures", "check", "--fixtures-dir", str(fixtures)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "fixture error: calA_k2: [numerator] expansion to "
        "min(term pairs, exponent box x coefficient words) = 462343 "
    )
    assert f"(line {head.count(chr(10)) + 3}, column 21)" in captured.err
    assert "Traceback" not in captured.err
    assert sizes and max(sizes) <= MAX_EXPANSION


@pytest.mark.parametrize("power", [4, 8])
def test_fixture_power_is_refused_before_its_fourth_power_is_formed(power, tmp_path):
    """In a fresh process, each 21-character input is refused in a fraction
    of a second: neither forms the fourth power of (beta+gamma+1)^64 (33,153
    terms of up to 398 bits)."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(certify.FIXTURES_DIR, fixtures)
    path = fixtures / "k2" / "calA.fix"
    head, _, _ = path.read_text(encoding="utf-8").partition("[numerator]")
    path.write_text(head + f"[numerator]\n((beta+gamma+1)^64)^{power}\n", encoding="utf-8")
    program = (
        "import sys, time\n"
        "from kcert import cli\n"
        "from kcert.poly import MultiPoly\n"
        "multiply, formed = MultiPoly.__mul__, [0]\n"
        "def counting(a, b):\n"
        "    product = multiply(a, b)\n"
        "    formed[0] = max(formed[0], len(product.numerators))\n"
        "    return product\n"
        "MultiPoly.__mul__ = counting\n"
        "start = time.perf_counter()\n"
        f"code = cli.run(['fixtures', 'check', '--fixtures-dir', {str(fixtures)!r}])\n"
        "print(code, formed[0], time.perf_counter() - start, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(kcert.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.stdout == ""
    assert "fixture error: calA_k2: [numerator] " in done.stderr
    assert f"(line {head.count(chr(10)) + 2}, column 21)" in done.stderr
    assert "Traceback" not in done.stderr
    code, formed, seconds = done.stderr.splitlines()[-1].split()
    assert code == "2"
    assert int(formed) == 8385  # (beta+gamma+1)^128, the largest product formed
    assert float(seconds) < 0.5


@pytest.mark.parametrize("nines", [40, 80])
def test_fixture_with_wide_coefficients_is_refused(nines, tmp_path):
    """In a fresh process, ((N beta^64 + 1)^64)^4 with N a literal of 40 or
    80 nines is refused at the exponent 4 in a fraction of a second: its
    squarings would multiply 65 or 129 terms of coefficients up to tens of
    thousands of bits, pair by pair (1.0 s and 3.1 s to parse without the
    bound), past ``MAX_WORD_PAIRS`` though under ``MAX_EXPANSION``."""
    fixtures = tmp_path / "fixtures"
    shutil.copytree(certify.FIXTURES_DIR, fixtures)
    path = fixtures / "k2" / "calA.fix"
    head, _, _ = path.read_text(encoding="utf-8").partition("[numerator]")
    text = f"(({'9' * nines} beta^64 + 1)^64)^4"
    path.write_text(head + f"[numerator]\n{text}\n", encoding="utf-8")
    program = (
        "import sys, time\n"
        "from kcert import cli\n"
        "start = time.perf_counter()\n"
        f"code = cli.run(['fixtures', 'check', '--fixtures-dir', {str(fixtures)!r}])\n"
        "print(code, time.perf_counter() - start, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(kcert.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.stdout == ""
    assert done.stderr.startswith(
        "fixture error: calA_k2: [numerator] term pairs x coefficient words = "
    )
    assert f"exceeds the {MAX_WORD_PAIRS} limit" in done.stderr
    assert f"(line {head.count(chr(10)) + 2}, column {len(text)})" in done.stderr
    assert "Traceback" not in done.stderr
    code, seconds = done.stderr.splitlines()[-1].split()
    assert code == "2"
    assert float(seconds) < 0.5


@pytest.mark.parametrize(
    "command", [["verify", "--all"], ["fixtures", "check"], ["report"]], ids=lambda c: c[0]
)
def test_missing_fixture_file_is_an_io_error(command, tmp_path, capsys):
    assert run([*command, "--fixtures-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ")
    assert f"{tmp_path}{os.sep}k2{os.sep}" in captured.err
    assert "Traceback" not in captured.err


UNEXPECTED = "P_k2: [numerator] unexpected character "


@pytest.mark.parametrize(
    "bad, column, message",
    [
        ("3 \u0663 beta", 3, UNEXPECTED),
        ("beta\u00b2", 5, UNEXPECTED),
        ("3 \uff42eta", 3, UNEXPECTED),
        ("3\u00a0beta", 2, UNEXPECTED),
        # written as the byte 0xff, which no UTF-8 text holds
        ("3 \udcff beta", 3, "P.fix: byte 0xff is not UTF-8 "),
    ],
    ids=["arabic-indic-digit", "superscript", "fullwidth-letter", "no-break-space", "not-utf-8"],
)
def test_non_ascii_fixture_text_is_a_positioned_error(bad, column, message, tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(certify.FIXTURES_DIR, fixtures)
    path = fixtures / "k2" / "P.fix"
    head, _, _ = path.read_text(encoding="utf-8").partition("[numerator]")
    text = head + "[numerator]\n\n1 + beta +\n" + bad + "\n"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert run(["fixtures", "check", "--fixtures-dir", str(fixtures)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fixture error: " + message)
    # the bad token's line of the file: header, a blank line, then two lines
    assert f"(line {head.count(chr(10)) + 4}, column {column})" in captured.err
    assert "Traceback" not in captured.err


def test_fixtures_dir_spellings_share_one_load_each(tmp_path, monkeypatch, capsys):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(certify.FIXTURES_DIR, fixtures)
    loads = []
    real_load = certify.load_fixture

    def counting_load(path):
        loads.append(path)
        return real_load(path)

    monkeypatch.setattr(certify, "load_fixture", counting_load)
    args = ["report", "--fixtures-dir", f"{fixtures}/", "--no-timing", "--format", "json"]
    assert run(args) == 1
    # the two convexity lemmas and the fixture check share each comparison
    assert len(loads) == 12 == len(set(loads))
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["fixtures_dir"] == str(fixtures)
    assert run(["fixtures", "check", "--fixtures-dir", ""]) == 2
    assert "fixtures_dir must name a directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, code, digest",
    [
        (["report", "--format", "json"], 1, "4f8fe60c590181d7801284ff2a4f389c"),
        (["verify", "--all", "--format", "json"], 0, "0d1b7751069114033bed0c89ce95e1bd"),
        (["fixtures", "check", "--format", "json"], 1, "81d5452ada4ddc76f1c3bcefbf93d038"),
        (["report", "--format", "markdown"], 1, "82a6fbab3332c4c33760ff60c760cac4"),
        # every setting's flag, at its default
        (
            ["verify", "--all", "--width", "1/1073741824", "--seed", "12648430"],
            0,
            "0d1b7751069114033bed0c89ce95e1bd",
        ),
    ],
    ids=["report", "verify-all", "fixtures-check", "report-markdown", "verify-all-flags"],
)
def test_report_bytes_are_unchanged(monkeypatch, capsys, command, code, digest):
    # the --no-timing output changes only when the mathematics does; a fresh
    # lemma memo makes each run compute every report itself
    monkeypatch.setattr(certify, "_REPORTS", {})
    assert run([*command, "--no-timing"]) == code
    stdout = capsys.readouterr().out
    assert hashlib.md5(stdout.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "chart, point, digest",
    [
        (
            "k3",
            "281474976710597/140737488355213,187649984473771/281474976710129,"
            "99999999999973/70368744177643",
            "bdcdc509ed3138c47f60c3c04592628d",
        ),
        (
            "k2",
            "281474976710597/140737488355213,187649984473771/281474976710129",
            "c57d2d31e8affa1b1c47e5ce5ae70c7d",
        ),
    ],
    ids=["k3", "k2"],
)
def test_eval_bytes_at_48_bit_heights_are_unchanged(capsys, chart, point, digest):
    # the objective's exact value at a point of 48-bit heights; CI runs the same
    # commands in fresh processes under two hash seeds
    assert run(["eval", "--chart", chart, "--point", point, "--what", "calA"]) == 0
    assert hashlib.md5(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "chart, point, value",
    [
        # the anchors of perfbench/oracle.json, recorded before the Gram form
        ("k2", "1,1", "2919/409"),
        ("k2", "1,2", "178725/23887"),
        ("k3", "1,1,1", "81/13"),
        ("k3", "1,2,3", "242569257/37689731"),
        # CI's points of 48-bit heights, whose bytes are pinned above
        ("k3", "281474976710597/140737488355213,187649984473771/281474976710129,"
               "99999999999973/70368744177643", None),
        ("k2", "281474976710597/140737488355213,187649984473771/281474976710129", None),
    ],
    ids=["k2-1,1", "k2-1,2", "k3-1,1,1", "k3-1,2,3", "k3-48", "k2-48"],
)
def test_eval_calA_agrees_with_the_structured_numeric_route(capsys, chart, point, value):
    """``eval --what calA`` reads the Gram form; it prints the recorded value,
    which is the structured form's on the numeric polygon of the same class."""
    assert run(["eval", "--chart", chart, "--point", point, "--what", "calA"]) == 0
    printed = capsys.readouterr().out
    coordinates = [Fraction(x) for x in point.split(",")]
    abcd = ([0] if chart == "k2" else []) + coordinates + [1]
    assert printed == f"{evaluate_calA_on_areas(AreaVector.from_abcd(*abcd))}\n"
    if value is not None:
        assert printed == f"{value}\n"


def test_laudate_alone_matches_its_verify_all_entry(monkeypatch, capsys):
    def laudate_entry(selection: list[str]) -> dict:
        monkeypatch.setattr(certify, "_REPORTS", {})
        args = ["verify", *selection, "--no-timing", "--format", "json"]
        assert run(args) == 0
        lemmas = json.loads(capsys.readouterr().out)["lemmas"]
        return next(item for item in lemmas if item["id"] == "laudate")

    assert laudate_entry(["--lemma", "laudate"]) == laudate_entry(["--all"])


def test_report_includes_truncated_chart_summaries(capsys):
    code = run(["report", "--format", "markdown", "--no-timing"])
    out = capsys.readouterr().out
    assert "## chart summaries" in out
    assert "more terms)" in out  # long canonical polynomials are truncated
    assert code in (0, 1)
    # JSON carries the full canonical text
    assert run(["report", "--format", "json", "--no-timing"]) in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    k2 = next(b for b in payload["bundles"] if b["chart"] == "k2")
    assert k2["evaluations"]["1,1"]["calA"] == "2919/409"
    assert k2["evaluations"]["1,1"]["A"] == "(265/1008)*pi^-2"
    assert "...("  not in k2["calA"]


def test_env_config_override(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"isolation_width": 7, "seed": 99}))
    monkeypatch.setenv("KCERT_CONFIG", str(config_path))
    assert run(["verify", "--lemma", "claritas", "--format", "json", "--no-timing"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["isolation_width"] == "7"
    assert payload["config"]["seed"] == 99


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"jobs": 1}', "unknown KCERT_CONFIG key 'jobs'"),
        ("[1, 2]", "must hold a JSON object, got [1, 2]"),
        ('"seed"', "must hold a JSON object"),
        ('{"seed": true}', "'seed' must be an integer"),
        ('{"isolation_width": 0.5}', "'isolation_width' must be a string or an integer"),
        ('{"fixtures_dir": 3}', "'fixtures_dir' must be a string or null"),
        ('{"format": "xml"}', "'format' must be json or markdown"),
        ('{"samples": 7}', "unknown KCERT_CONFIG key 'samples'"),
        ('{"sample_count": 7}', "unknown KCERT_CONFIG key 'sample_count'"),
        ('{"seed": -1}', "seed must be in 0..2^64-1, got -1"),
        ('{"seed": 18446744073709551616}', "seed must be in 0..2^64-1"),
        ("[" * 200_000, "KCERT_CONFIG nests too deeply to decode"),
        # the byte 0xff, which no UTF-8 text holds
        ('{"seed": 1}\udcff', "KCERT_CONFIG is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    ],
)
def test_bad_env_config_is_usage_error(text, message, tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    monkeypatch.setenv("KCERT_CONFIG", str(config_path))
    assert run(["verify", "--lemma", "claritas", "--no-timing"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_env_config_flags_override_and_width(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"seed": 7, "isolation_width": "1/1024", "fixtures_dir": None})
    )
    monkeypatch.setenv("KCERT_CONFIG", str(config_path))
    args = ["verify", "--lemma", "claritas", "--format", "json", "--no-timing"]
    assert run(args + ["--seed", "5"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["seed"] == 5
    assert config["isolation_width"] == "1/1024"
    assert config["fixtures_dir"] is None


def test_cold_verify_all_forms_no_hessian():
    """The CLI asks one direction of each objective per process, so a cold
    ``verify --all`` takes the direct route everywhere and forms no Hessian."""
    program = (
        "import contextlib, io\n"
        "from kcert import cli, poly\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(['verify', '--all', '--no-timing', '--format', 'json'])\n"
        "routes = list(poly._routes.values())\n"
        "direct = sum(isinstance(route, tuple) for route in routes)\n"
        "print(code, direct, sum(isinstance(route, poly._Hessian) for route in routes))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(kcert.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    # k2 and k3 calA along their antidiagonals, and the k = 2 diagonal objective
    assert done.stdout.split() == ["0", "3", "0"]


def test_cold_verify_convex3_forms_one_numerator():
    """A cold ``verify --lemma convex3`` forms the k3 structural numerator
    once: its certificate and its ``d2_alphabeta`` comparison share it."""
    program = (
        "import contextlib, io\n"
        "from kcert import cli, poly\n"
        "terms, calls = poly._structural_terms, []\n"
        "def counting(n, d, directions):\n"
        "    calls.append((n.variables, tuple(map(tuple, directions))))\n"
        "    return terms(n, d, directions)\n"
        "poly._structural_terms = counting\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(['verify', '--lemma', 'convex3', '--no-timing', '--format', 'json'])\n"
        "print(code, calls)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(kcert.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0 [(('alpha', 'beta', 'gamma'), ((1, -1, 0),))]"


def test_cold_verify_convex2_refutes_the_display_without_products():
    """A cold ``verify --lemma convex2`` keeps its bytes, and its comparison of
    the k2 display ``d2_antidiag`` forms no polynomial product: the display is
    refuted by the leading terms of the cross products."""
    program = (
        "import contextlib, hashlib, io\n"
        "from kcert import certify, cli\n"
        "from kcert.poly import MultiPoly\n"
        "multiply, compare = MultiPoly.__mul__, certify.compare_against_fixture\n"
        "products, comparisons = [], []\n"
        "def comparing(computed, fixture):\n"
        "    MultiPoly.__mul__ = lambda a, b: products.append(1) or multiply(a, b)\n"
        "    try:\n"
        "        return compare(computed, fixture)\n"
        "    finally:\n"
        "        MultiPoly.__mul__ = multiply\n"
        "        comparisons.append((computed.num.variables, len(products)))\n"
        "certify.compare_against_fixture = comparing\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = cli.run(['verify', '--lemma', 'convex2', '--no-timing', '--format', 'json'])\n"
        "print(code, hashlib.md5(out.getvalue().encode()).hexdigest(), comparisons)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(kcert.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    # one comparison, of the k2 display over (beta, gamma), with no product
    assert done.stdout.split(maxsplit=2) == [
        "0", "c1885a1eaf904d7c8a8d4c3900327ab3", "[(('beta', 'gamma'), 0)]\n"
    ]


def test_cold_import_loads_no_dataclasses_machinery():
    """A cold ``import kcert.cli`` loads neither ``dataclasses`` nor the
    modules it pulls in, nor ``string``; every CLI process would pay for
    them.  ``-S`` keeps site ``.pth`` files out of the child."""
    unwanted = ("dataclasses", "inspect", "ast", "dis", "tokenize", "string")
    program = f"import sys, kcert.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(kcert.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", program], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# the console script's entry point, as CI's hash-seed step and the benchmark run it
CLI_MAIN = "import sys; from kcert.cli import main; sys.argv[0] = 'kcert'; main()"


def _buffered_env() -> dict[str, str]:
    """A child environment with kcert importable and stdout block-buffered."""
    env = dict(os.environ, PYTHONPATH=str(Path(kcert.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize("sink", ["dev-full", "closed-pipe"])
def test_failed_stdout_write_exits_2(sink):
    """A short report stays in stdout's buffer until ``main()`` flushes it, so
    a failed write is an i/o error there (exit 2), not an exception ignored
    at interpreter shutdown (exit 120)."""
    if sink == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout = open("/dev/full", "wb")
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = os.fdopen(write_end, "wb")
    with stdout:
        done = subprocess.run(
            [sys.executable, "-c", CLI_MAIN, "verify", "--lemma", "symmetry2", "--no-timing"],
            stdout=stdout, stderr=subprocess.PIPE, env=_buffered_env(), text=True, timeout=120,
        )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("i/o error: ")
    assert "Exception ignored" not in done.stderr
    assert "Traceback" not in done.stderr


def test_no_stdout_keeps_the_exit_code():
    """A process started with its stdout closed has ``sys.stdout`` None; the
    report goes nowhere and the exit code is ``run()``'s, as before the flush."""
    done = subprocess.run(
        ["/bin/sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-c", CLI_MAIN,
         "verify", "--lemma", "symmetry2", "--no-timing"],
        stderr=subprocess.PIPE, env=_buffered_env(), text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_run_never_freezes_the_heap(capsys):
    """Tests and library callers call ``run()`` in process; their heap stays
    collectable."""
    before = gc.get_freeze_count()
    assert run(["verify", "--lemma", "symmetry2", "--no-timing", "--format", "json"]) == 0
    assert gc.get_freeze_count() == before
    assert json.loads(capsys.readouterr().out)["aggregate"] == "PASS"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--lemma", "symmetry2", "--no-timing", "--format", "json"], 0),
        (["eval", "--chart", "k2"], 2),
    ],
    ids=["pass", "usage"],
)
def test_main_freezes_the_heap_and_keeps_run_s_bytes(argv, code, capsys):
    """``main()`` freezes the heap before it exits, and its stdout and exit
    code are ``run()``'s."""
    program = (
        "import gc, sys\n"
        "from kcert import cli\n"
        "sys.argv[0] = 'kcert'\n"
        "try:\n"
        "    cli.main()\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program, *argv],
        env=_buffered_env(), capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.decode().splitlines()[-1] == f"{code} True"
    assert run(argv) == code
    assert done.stdout == capsys.readouterr().out.encode()
