"""The benchmark's workloads: inputs drawn from the seed, operations, exact checks.

Every workload is a closed loop with one caller.  It hands out operations in
rounds of fixed composition, so a run of any length and any seed does the same
mix of work; only the drawn values change with the seed.

    report-cold  one cold ``kcert verify`` CLI process per operation, over the
                 nine lemmas that fit a run (all but convex3 and gaudete, whose
                 k3 display comparison alone takes about a minute)
    point-sweep  exact evaluation of the objective at seeded rational classes,
                 by the chart rational function and by the polygon pipeline
    d2-build     construction of the k3 directional second derivative

Correctness is checked against ``oracle.json`` (recorded from the seed commit
by ``record_oracle.py``) and against identities that hold for every input.
An operation that raises or fails a check counts as failed.
"""

from __future__ import annotations

import functools
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Bits of numerator and denominator of drawn rationals: a spread of heights.
HEIGHT_BITS = (4, 16, 48)
ANTIDIAGONALS = ((1, -1, 0), (0, 1, -1), (1, 0, -1))


@functools.cache
def oracle() -> dict:
    return json.loads((HERE / "oracle.json").read_text(encoding="utf-8"))


class Op:
    """One operation: ``run`` is timed, ``check`` returns an error or None."""

    def __init__(self, label: str, run, check):
        self.label = label
        self.run = run
        self.check = check


def _rational(rng: random.Random, bits: int) -> Fraction:
    return Fraction(rng.getrandbits(bits) + 1, rng.getrandbits(bits) + 1)


def _poly_sizes(poly) -> tuple[int, int, int]:
    """(terms, total degree, max coefficient bits) of a polynomial."""
    bits = max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in poly.terms.values()),
        default=0,
    )
    return len(poly.terms), poly.total_degree(), bits


def ratfunc_sizes(prefix: str, rf) -> dict[str, int]:
    out = {}
    for part in ("num", "den"):
        terms, degree, bits = _poly_sizes(getattr(rf, part))
        out[f"{prefix}.{part}_terms"] = terms
        out[f"{prefix}.{part}_degree"] = degree
        out[f"{prefix}.{part}_bits"] = bits
    return out


class Workload:
    name = ""
    in_process = True
    round_size = 1  # operations per round
    # operations in a smoke run and in each half of a traced run
    smoke_ops = 1
    trace_ops = 1

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.rng = random.Random(seed)
        self.tracer = None

    def setup(self) -> None:
        """Work done once before the first operation (timed as setup_s)."""

    def round(self) -> list[Op]:
        raise NotImplementedError

    def batch(self, count: int) -> list[Op]:
        """The first ``count`` operations of the run's round sequence."""
        ops: list[Op] = []
        while len(ops) < count:
            ops.extend(self.round())
        return ops[:count]

    def sizes(self) -> dict[str, int]:
        return {}

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_SELF if self.in_process else resource.RUSAGE_CHILDREN
        return resource.getrusage(who).ru_maxrss / 1024.0


# -- report-cold ----------------------------------------------------------------

VERIFY_LEMMAS = (
    "convex2",
    "symmetry2",
    "prime2",
    "doubleprime2",
    "laudate",
    "symmetry3a",
    "symmetry3b",
    "veritas",
    "claritas",
)

CHILD_TIMEOUT_S = 170

# The console script's entry point; the ``kcert`` script itself is not installed.
CLI_MAIN = "import sys; from kcert.cli import main; sys.argv[0] = 'kcert'; main()"


class ReportCold(Workload):
    name = "report-cold"
    in_process = False
    trace_ops = 2

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        lemma_args = [arg for lemma in VERIFY_LEMMAS for arg in ("--lemma", lemma)]
        self.argv = ["verify", *lemma_args, "--seed", str(seed), "--no-timing", "--format", "json"]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.first_stdout: bytes | None = None
        self.span_dir = root / ".perfbench_out"

    def setup(self) -> None:
        import kcert.cli  # noqa: F401  (interpreter-level import cost)

    def round(self) -> list[Op]:
        return [Op(self.name, self._run, self._check)]

    def _run(self):
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_MAIN, *self.argv]
            spans_path = None
        else:
            self.span_dir.mkdir(exist_ok=True)
            spans_path = self.span_dir / f"child-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *self.argv]
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        if spans_path is not None and spans_path.exists():
            parent = self.tracer.stack[-1] if self.tracer.stack else -1
            index = self.tracer.begin("trace.transfer")  # tracing's own cost
            payload, dump_span = spans_path.read_text(encoding="utf-8").splitlines()
            payload = json.loads(payload)
            spans_path.unlink()
            self.tracer.adopt([*payload["spans"], json.loads(dump_span)], parent)
            self.tracer.adopt_counts(payload["counts"])
            self.tracer.missing = sorted(set(self.tracer.missing) | set(payload["missing"]))
            self.tracer.end(index)
        return proc

    def _check(self, proc) -> str | None:
        if self.first_stdout is None:
            self.first_stdout = proc.stdout
        elif proc.stdout != self.first_stdout:
            return "stdout differs from the run's first operation"
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return f"no JSON report (exit {proc.returncode}): {proc.stderr[-300:]!r}"
        lemmas = {item["id"]: item["status"] for item in report.get("lemmas", [])}
        expected_lemmas = {k: oracle()["lemmas"][k] for k in VERIFY_LEMMAS}
        if lemmas != expected_lemmas:
            return f"lemma verdicts {lemmas} != {expected_lemmas}"
        if report.get("fixtures"):
            return f"fixture verdicts {report['fixtures']} in a verify without fixtures"
        by_id = {item["id"]: item["witnesses"] for item in report["lemmas"]}
        interval = by_id["laudate"].get("critical_interval")
        if interval != oracle()["laudate_critical_interval"]:
            return f"k2 critical interval {interval} != oracle"
        verdict = by_id["convex2"]["fixture"]["d2_antidiag"]["verdict"]
        if verdict != oracle()["fixtures"]["d2_antidiag_k2"][0]:
            return f"d2_antidiag_k2 verdict {verdict} != oracle"
        # verify exits 1 only on a FAIL verdict
        expected_exit = int(any(status == "FAIL" for status in lemmas.values()))
        if proc.returncode != expected_exit:
            return f"exit code {proc.returncode}, expected {expected_exit}"
        return None

    def sizes(self) -> dict[str, int]:
        from kcert.delpezzo import K2_CHART, K3_CHART
        from kcert.exprparse import load_fixture
        from kcert.functional import build_bundle
        from kcert.poly import directional_second_derivative

        calA_k2 = build_bundle(K2_CHART).calA
        out = ratfunc_sizes("size.calA_k2", calA_k2)
        out.update(ratfunc_sizes("size.calA_k3", build_bundle(K3_CHART).calA))
        out.update(ratfunc_sizes("size.d2_k2", directional_second_derivative(calA_k2, (1, -1))))
        for path in sorted((self.root / "src" / "kcert" / "fixtures").glob("*/*.fix")):
            meta, rf = load_fixture(path)
            num, den = _poly_sizes(rf.num), _poly_sizes(rf.den)
            out[f"size.fixture.{meta.name}.terms"] = num[0] + den[0]
            out[f"size.fixture.{meta.name}.degree"] = max(num[1], den[1])
            out[f"size.fixture.{meta.name}.bits"] = max(num[2], den[2])
        return out


# -- point-sweep ----------------------------------------------------------------


class PointSweep(Workload):
    """Per round: for each height, a k2 point, a k3 point, a scaled k3 class
    (delta != 1) and the Cremona image of one (delta < 0); plus one anchor
    class from the oracle.  Each operation evaluates the objective by the chart
    rational function and by ``evaluate_calA_on_areas``, and the obstruction
    by ``evaluate_futaki_on_areas``.
    """

    name = "point-sweep"
    round_size = 13
    smoke_ops = 13
    trace_ops = 13 * 8

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.rounds = 0

    def setup(self) -> None:
        # functions are looked up through their module at call time, so that
        # the tracer's wrappers are seen
        from kcert import delpezzo, functional

        self.delpezzo, self.functional = delpezzo, functional
        self.bundles = {
            "k2": functional.build_bundle(delpezzo.K2_CHART),
            "k3": functional.build_bundle(delpezzo.K3_CHART),
        }

    def _op(self, label, chart, point, areas, expect_f_scale, expected=None) -> Op:
        bundle = self.bundles[chart] if chart else None

        def run():
            chart_value = bundle.calA.evaluate(point) if bundle else None
            return (
                chart_value,
                self.functional.evaluate_calA_on_areas(areas),
                self.functional.evaluate_futaki_on_areas(areas),
            )

        def check(result):
            chart_value, polygon_value, futaki = result
            if bundle is not None and chart_value != polygon_value:
                return f"{label}: chart {chart_value} != polygon {polygon_value}"
            if polygon_value < 6:
                return f"{label}: objective {polygon_value} below its minimum 6"
            if expected is not None:
                got = [str(polygon_value), str(futaki[0]), str(futaki[1])]
                if got != expected:
                    return f"{label}: {got} != oracle {expected}"
            if bundle is not None:
                closed = (bundle.f1.evaluate(point), bundle.f2.evaluate(point))
                if futaki != tuple(expect_f_scale * f for f in closed):
                    return f"{label}: obstruction {futaki} != {expect_f_scale} * {closed}"
            return None

        return Op(label, run, check)

    def round(self) -> list[Op]:
        rng = self.rng
        ops = []
        one, zero = Fraction(1), Fraction(0)
        from_abcd = self.delpezzo.AreaVector.from_abcd
        for bits in HEIGHT_BITS:
            beta, gamma = _rational(rng, bits), _rational(rng, bits)
            ops.append(self._op(f"k2/{bits}", "k2", (beta, gamma),
                                from_abcd(zero, beta, gamma, one), 1))
            point = tuple(_rational(rng, bits) for _ in range(3))
            ops.append(self._op(f"k3/{bits}", "k3", point, from_abcd(*point, one), 1))
            # a class with delta = d is d times the chart class at point / d:
            # the objective is scale invariant and the obstruction scales by d^2
            point = tuple(_rational(rng, bits) for _ in range(3))
            d = _rational(rng, bits)
            if d == 1:
                d = Fraction(bits + 1, bits)
            scaled = from_abcd(*(x * d for x in point), d)
            ops.append(self._op(f"scaled/{bits}", "k3", point, scaled, d * d))
            # the Cremona image (delta -> -delta) keeps the objective and
            # negates the obstruction
            ops.append(self._op(f"cremona/{bits}", "k3", point, self.delpezzo.cremona(scaled), -d * d))
        anchors = oracle()["anchors"]
        anchor = anchors[self.rounds % len(anchors)]
        chart = anchor["chart"]
        point = tuple(Fraction(x) for x in anchor["point"]) if chart else ()
        areas = from_abcd(*(Fraction(x) for x in anchor["abcd"]))
        expected = [anchor["calA"], anchor["F1"], anchor["F2"]]
        ops.append(self._op(f"anchor/{anchor['label']}", chart, point, areas, 1, expected))
        self.rounds += 1
        return ops

    def sizes(self) -> dict[str, int]:
        out = ratfunc_sizes("size.calA_k2", self.bundles["k2"].calA)
        out.update(ratfunc_sizes("size.calA_k3", self.bundles["k3"].calA))
        return out


# -- d2-build -------------------------------------------------------------------


class D2Build(Workload):
    """Per round: the three antidiagonals and three seeded directions with
    every component in {-3..3} \\ {0}.  Each result is checked at the oracle
    point p: the second derivative along v is v^T H(p) v, with H the recorded
    exact Hessian of the k3 objective at p.
    """

    name = "d2-build"
    round_size = 6
    trace_ops = 3

    def setup(self) -> None:
        from kcert import delpezzo, functional, poly

        self.poly = poly  # looked up at call time, so that the tracer's wrapper is seen
        self.calA = functional.build_bundle(delpezzo.K3_CHART).calA
        self.first_result = None

    def _op(self, direction: tuple[int, ...]) -> Op:
        hessian = oracle()["hessian_k3"]
        point = tuple(Fraction(x) for x in hessian["point"])
        matrix = [[Fraction(x) for x in row] for row in hessian["matrix"]]
        expected = sum(
            direction[i] * direction[j] * matrix[i][j] for i in range(3) for j in range(3)
        )

        def run():
            return self.poly.directional_second_derivative(self.calA, direction)

        def check(result):
            if self.first_result is None:
                self.first_result = result
            value = result.evaluate(point)
            if value != expected:
                return f"d2 along {direction} at {hessian['point']}: {value} != {expected}"
            return None

        return Op(f"d2{direction}", run, check)

    def round(self) -> list[Op]:
        # antidiagonals first, so a traced batch of three is seed independent
        ops = [self._op(direction) for direction in ANTIDIAGONALS]
        for _ in range(3):
            ops.append(self._op(tuple(self.rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3))))
        return ops

    def sizes(self) -> dict[str, int]:
        out = ratfunc_sizes("size.calA_k3", self.calA)
        if self.first_result is not None:
            out.update(ratfunc_sizes("size.d2_k3", self.first_result))
        return out


WORKLOADS = {w.name: w for w in (ReportCold, PointSweep, D2Build)}
