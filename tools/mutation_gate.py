"""Mutation gate for the exact kernels: every listed mutant must be killed.

Usage, from the repository root:

    python3 tools/mutation_gate.py

Each mutant names a file under ``src/``, an old snippet that must occur in it
exactly once, the snippet that replaces it, and the test ids that must fail
once it is applied.  For each mutant the script copies ``src``, ``tests`` and
``pyproject.toml`` to a temporary directory, applies the mutant there and
runs its tests; the working tree is never touched.  The listed tests are
first run on an unmutated copy, where every one must pass.

Exit 0 when every mutant is killed; exit 1, naming the mutant, when one
survives (a listed test passes), when a listed test is not run, or when an
old snippet does not occur exactly once, so that the list fails loudly when
the code moves.  A surviving mutant calls for a test that kills it, never for
its removal from the list.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids that must fail under the mutant


MUTANTS = (
    Mutant(
        "_slot_width: a decimal slot one digit short",
        "src/kcert/poly.py",
        "    return digits + 1\n",
        "    return digits\n",
        ("tests/test_poly.py::test_mul_slot_width_edge",),
    ),
    Mutant(
        "_mul_dense: decimal operand offset added instead of subtracted",
        "src/kcert/poly.py",
        "factors.append(_EXACT.subtract(_decimal(digits), _decimal(zero * count)))",
        "factors.append(_EXACT.add(_decimal(digits), _decimal(zero * count)))",
        ("tests/test_poly.py::test_mul_slot_width_edge",),
    ),
    Mutant(
        "_mul_dense: decimal slots read bottom slot first",
        "src/kcert/poly.py",
        "exponents = product(*[range(top, -1, -1) for top in tops])",
        "exponents = product(*[range(top + 1) for top in tops])",
        ("tests/test_poly.py::test_mul_matches_termwise_reference",),
    ),
    Mutant(
        "_mul_dense: word operand offset added instead of subtracted",
        "src/kcert/poly.py",
        'pack(f"<{count}Q", *words), "little") - offset)',
        'pack(f"<{count}Q", *words), "little") + offset)',
        ("tests/test_poly.py::test_word_slots_match_decimal_slots_and_the_pair_loop",),
    ),
    Mutant(
        "__mul__: a coefficient bound of 2^63 fits a word slot",
        "src/kcert/poly.py",
        "if bound < 1 << 63 and box <= _WORD_MAX_BOX:",
        "if bound <= 1 << 63 and box <= _WORD_MAX_BOX:",
        ("tests/test_poly.py::test_word_slot_edges",),
    ),
    Mutant(
        "_mul_dense: word slots read top slot first",
        "src/kcert/poly.py",
        "exponents = compress(product(*[range(top + 1) for top in tops]), used)",
        "exponents = compress(product(*[range(top, -1, -1) for top in tops]), used)",
        ("tests/test_poly.py::test_word_slots_match_decimal_slots_and_the_pair_loop",),
    ),
    Mutant(
        "evaluate: the q-power of each weight dropped",
        "src/kcert/poly.py",
        "weights.append({e: p ** e * q ** (top - e) for e in exponents})",
        "weights.append({e: p ** e for e in exponents})",
        ("tests/test_poly.py::test_evaluate_matches_termwise_reference",),
    ),
    Mutant(
        "_grevlex_leading: the largest reversed exponents among the top degree",
        "src/kcert/poly.py",
        "    return min(map(tuple, map(reversed, compress(",
        "    return max(map(tuple, map(reversed, compress(",
        ("tests/test_poly.py::test_leading_coefficient_matches_the_grevlex_key",),
    ),
    Mutant(
        "_moment_sums: the v boundary sum given the u kernel",
        "src/kcert/polytope.py",
        "b01 + ell * sv",
        "b01 + ell * su",
        ("tests/test_polytope.py::test_boundary_moments_match_direct_oracle",),
    ),
    Mutant(
        "boundary_integral: degree 2 let through to the 3-entry boundary tuple",
        "src/kcert/polytope.py",
        "if i >= 3:",
        "if i >= 6:",
        ("tests/test_polytope.py::test_boundary_integral_refuses_degree_2",),
    ),
    Mutant(
        "_extreme_terms: coefficient without the denominators",
        "src/kcert/poly.py",
        "Fraction(a.numerators[ea] * b.numerators[eb], a.den * b.den)",
        "Fraction(a.numerators[ea] * b.numerators[eb])",
        ("tests/test_poly.py::test_equals_matches_cross_multiplication_reference",),
    ),
    Mutant(
        "_structural_terms: the sign of G_i flipped",
        "src/kcert/poly.py",
        "g = directional_derivative(n, v) * d + n * -d_partials[i]",
        "g = directional_derivative(n, v) * d + n * d_partials[i]",
        ("tests/test_poly.py::test_second_derivative_k3_matches_uncached_reference",),
    ),
    Mutant(
        "gram_parts: the sign of adj_01 flipped",
        "src/kcert/functional.py",
        "adj01 = m11 * m01 - m10 * m02",
        "adj01 = m10 * m02 - m11 * m01",
        (
            "tests/test_functional.py::test_structured_form_is_4v2_times_the_gram_form_over_abcd",
            "tests/test_certify.py::test_veritas",
        ),
    ),
    Mutant(
        "gram_parts: det M without its m01 * adj_02 term",
        "src/kcert/functional.py",
        "det = area * adj00 + m10 * adj01 + m01 * adj02",
        "det = area * adj00 + m10 * adj01",
        (
            "tests/test_functional.py::test_structured_form_is_4v2_times_the_gram_form_over_abcd",
            "tests/test_certify.py::test_veritas",
        ),
    ),
    Mutant(
        "gram_parts: adj_12 = -puv taken with the wrong sign",
        "src/kcert/functional.py",
        "+ b10 * (b10 * pvv - twice01 * puv)",
        "+ b10 * (b10 * pvv + twice01 * puv)",
        (
            "tests/test_functional.py::test_structured_form_is_4v2_times_the_gram_form_over_abcd",
            "tests/test_certify.py::test_veritas",
            "tests/test_cli.py::test_eval_calA_agrees_with_the_structured_numeric_route[k3-1,2,3]",
        ),
    ),
    Mutant(
        "_substitute_monomials: the d-power of each factor dropped",
        "src/kcert/poly.py",
        "factors = {e: c ** e * d ** (top - e) for e in set(column)}",
        "factors = {e: c ** e for e in set(column)}",
        ("tests/test_poly.py::test_substitute_monomial_images_match_expansion",),
    ),
    Mutant(
        "_substitute_monomials: the image exponents of one variable dropped",
        "src/kcert/poly.py",
        "            if any(mono):\n",
        "            if any(mono[1:]):\n",
        ("tests/test_poly.py::test_substitute_monomial_images_match_expansion",),
    ),
    Mutant(
        "_substitute_monomials: no exponent guard",
        "src/kcert/poly.py",
        "        if bound >> _PACK_BITS:\n",
        "        if bound >> _PACK_BITS + 1:\n",
        ("tests/test_poly.py::test_substitution_exponent_overflow_is_rejected",),
    ),
    Mutant(
        "sturm: no division by gcd(p, p') at a multiple root",
        "src/kcert/sturm.py",
        "_values([exact_quotient(member, chain[-1]) for member in chain], a, b)",
        "_values(chain, a, b)",
        ("tests/test_sturm.py::test_counts_at_a_multiple_root",),
    ),
    Mutant(
        "positivity_certificate: a zero numerator passes",
        "src/kcert/certify.py",
        "ok = nonneg and not f.num.is_zero and den_min > 0",
        "ok = nonneg and den_min > 0",
        ("tests/test_certify.py::test_zero_numerator_fail_certificate_rechecks",),
    ),
    Mutant(
        "positivity_certificate: any denominator accepted",
        "src/kcert/certify.py",
        "    if f.den is not cube and f.den != cube:\n",
        "    if False:\n",
        ("tests/test_certify.py::test_positivity_certificate_requires_the_cube_denominator",),
    ),
    Mutant(
        "cli: run() freezes the heap",
        "src/kcert/cli.py",
        "    try:\n        return args.func(args)\n",
        "    gc.freeze()\n    try:\n        return args.func(args)\n",
        ("tests/test_cli.py::test_run_never_freezes_the_heap",),
    ),
    Mutant(
        "cli: main() does not freeze the heap",
        "src/kcert/cli.py",
        "    gc.freeze()\n    sys.exit(code)\n",
        "    sys.exit(code)\n",
        (
            "tests/test_cli.py::test_main_freezes_the_heap_and_keeps_run_s_bytes[pass]",
            "tests/test_cli.py::test_main_freezes_the_heap_and_keeps_run_s_bytes[usage]",
        ),
    ),
    Mutant(
        "cli: main() flushes a stdout that is None",
        "src/kcert/cli.py",
        "    if sys.stdout is not None:  # None when the process starts with no stdout\n",
        "    if True:\n",
        ("tests/test_cli.py::test_no_stdout_keeps_the_exit_code",),
    ),
    Mutant(
        "cli: main() does not flush stdout",
        "src/kcert/cli.py",
        "        sys.stdout.flush()\n",
        "        pass\n",
        (
            "tests/test_cli.py::test_failed_stdout_write_exits_2[dev-full]",
            "tests/test_cli.py::test_failed_stdout_write_exits_2[closed-pipe]",
        ),
    ),
)

_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS) (\S+)", re.MULTILINE)


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _outcomes(tree: Path, tests: tuple[str, ...]) -> dict[str, str]:
    """Run ``tests`` in ``tree``; the outcome of each test id pytest reports."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "--tb=no", "-p", "no:cacheprovider",
         *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return {test: outcome for outcome, test in _OUTCOME.findall(done.stdout)}


def _apply(tree: Path, mutant: Mutant) -> str | None:
    """Apply ``mutant`` in ``tree``; the reason it cannot be applied, or None."""
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        return f"its old snippet occurs {count} times in {mutant.path}, not once"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return None


def main() -> int:
    start = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory(prefix="kcert-mutants-") as scratch:
        baseline = Path(scratch) / "baseline"
        _copy_tree(baseline)
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        outcomes = _outcomes(baseline, every_test)
        broken = [t for t in every_test if outcomes.get(t) != "PASSED"]
        if broken:
            print(f"unmutated tree: not passed: {', '.join(broken)}")
            return 1
        for index, mutant in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant-{index}"
            _copy_tree(tree)
            problem = _apply(tree, mutant)
            if problem is None:
                outcomes = _outcomes(tree, mutant.tests)
                survivors = [t for t in mutant.tests if outcomes.get(t) != "FAILED"]
                if survivors:
                    problem = "survived: " + ", ".join(
                        f"{t} {outcomes.get(t, 'NOT RUN')}" for t in survivors
                    )
            print(f"{'KILLED  ' if problem is None else 'PROBLEM '} {mutant.name}"
                  + ("" if problem is None else f": {problem}"))
            if problem is not None:
                failures.append(mutant.name)
            shutil.rmtree(tree)
    elapsed = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed in {elapsed:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
