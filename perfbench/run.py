"""kcert benchmark harness: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload point-sweep --seed 1 --seconds 30 --trace 0

The harness imports kcert from ``src/`` (and runs CLI children with
``PYTHONPATH=src``), generates every input from ``--seed``, and drives one
workload as a closed loop with a single caller: no threads, no ``--jobs``.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up runs
in five fresh interpreters and ``setup_s`` is their median; operations then
run in whole rounds of the workload's mix until ``--seconds`` have passed.
Every time is rescaled to a reference host speed (speed.py), and the harness
and its children share one pinned CPU; the raw figures are printed as
``raw.*`` lines above the result.

``--trace 1`` runs a fixed batch of operations untraced, then the same batch
with ``tracer.py`` wrapping kcert's public functions, and reports the
per-layer metrics; the difference between the two batch times is the
tracing overhead.  The spans are written to ``.perfbench_out/``.  ``--smoke`` runs a handful of operations
and ignores ``--seconds``; ``selftest.py`` uses it.

Metric lines go to stdout, then one line with the environment, then the
result as one JSON object on the last line.  The exit code is 2, with nothing
on stdout, when the directory has no kcert sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))

from speed import SpeedTrack  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import VERIFY_LEMMAS, WORKLOADS, oracle  # noqa: E402

CALLS = ("poly.mul", "poly.evaluate", "poly.equals", "poly.d2", "polytope.integrate",
         "functional.calA_on_areas", "exprparse.load_fixture", "exprparse.compare")
SELF_TIMES = ("poly.mul", "poly.evaluate", "poly.equals", "poly.d2", "poly.substitute",
              "polytope.build_polygon", "polytope.integrate", "functional.build_bundle",
              "functional.calA_on_areas", "functional.futaki_on_areas",
              "functional.restrict_diagonal", "exprparse.load_fixture", "exprparse.compare",
              "sturm.isolate", "univar.gcd", "cli.emit_report")
COUNTS = (("poly.mul.term_pairs", "count"), ("poly.evaluate.terms", "count"),
          ("poly.equals.term_pairs", "count"), ("exprparse.fixture_bytes", "bytes"),
          ("cli.report_bytes", "bytes"))
SIZED = ("calA_k2", "calA_k3", "d2_k2", "d2_k3")


def size_names() -> list[tuple[str, str]]:
    names = []
    for obj in SIZED:
        for part in ("num", "den"):
            names += [(f"size.{obj}.{part}_terms", "count"), (f"size.{obj}.{part}_degree", "count"),
                      (f"size.{obj}.{part}_bits", "bits")]
    for fixture in oracle()["fixtures"]:
        names += [(f"size.fixture.{fixture}.terms", "count"),
                  (f"size.fixture.{fixture}.degree", "count"),
                  (f"size.fixture.{fixture}.bits", "bits")]
    return names


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest value.  Below 21 samples no value above the median has ten beyond
    it, so the tail is reported at the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], f"11th largest of {n} ops (p{100 * (n - 11) / (n - 1):.1f})"
    return statistics.median(ordered), f"median of {n} ops (fewer than 21)"


def run_op(op, tracer: Tracer | None = None) -> tuple[float, str | None]:
    """Time one operation, then check its result; errors count as failures."""
    error = result = None
    index = tracer.begin("bench.op") if tracer else -1
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failing operation is counted, not fatal
        error = f"{op.label}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end(index)
        tracer.enabled = False
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"{op.label}: check raised {type(exc).__name__}: {exc}"
    if tracer:
        tracer.enabled = True
    return elapsed, error


def setup_probe(name: str, root: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", name],
        cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload, setup: list[float], latencies: list[float]) -> dict:
    mean_s = sum(latencies) / len(latencies)
    return {
        "setup_s": (statistics.median(setup), "s"),
        # time for one round of the workload's fixed mix
        "wall_s": (mean_s * workload.round_size, "s"),
        "ops_per_s": (1 / mean_s, "1/s"),
        "op_latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_latency_tail_ms": (tail(latencies)[0] * 1e3, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }


def timed_run(workload, seconds: float, smoke: bool):
    track = SpeedTrack()
    setup_raw = []
    for _ in range(SETUP_SAMPLES):
        setup_raw.append(setup_probe(workload.name, workload.root))
        track.record(setup_raw[-1], close=True)
    workload.setup()
    raw: list[float] = []
    errors: list[str] = []
    deadline = time.perf_counter() + seconds
    # whole rounds only, so that every run measures the same mix of operations
    while True:
        for op in workload.batch(workload.smoke_ops) if smoke else workload.round():
            elapsed, error = run_op(op)
            track.record(elapsed)
            raw.append(elapsed)
            if error:
                errors.append(error)
        if smoke or time.perf_counter() >= deadline:
            break
    factors = track.factors()
    setup = [t * f for t, f in zip(setup_raw, factors)]
    latencies = [t * f for t, f in zip(raw, factors[SETUP_SAMPLES:])]
    metrics = end_to_end(workload, setup, latencies)
    notes = [
        "times are rescaled to the reference host speed (speed.py); raw figures follow",
        *(f"raw.{name}: {value} {unit}"
          for name, (value, unit) in end_to_end(workload, setup_raw, raw).items()),
        f"host speed factor: median {statistics.median(factors):.4f}, "
        f"range {min(factors):.4f}..{max(factors):.4f}",
        f"ops: {len(latencies)}; wall_s is the time for a round of {workload.round_size} ops",
        f"op_latency_tail_ms: {tail(latencies)[1]}",
    ]
    return metrics, notes, errors, len(latencies)


def process_start_s(workload) -> float:
    """Median start-and-exit time of a bare interpreter with the children's
    environment: the part of a CLI operation that no span can cover."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=workload.root, env=workload.env,
                       check=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced_run(workload, smoke: bool):
    workload.setup()
    ops = workload.batch(workload.smoke_ops if smoke else workload.trace_ops)
    untraced = [run_op(op) for op in ops]
    tracer = Tracer.install() if workload.in_process else Tracer()
    workload.tracer = tracer
    traced = [run_op(op, tracer=tracer) for op in ops]
    calls, total, self_time = tracer.summary()
    untraced_s = sum(t for t, _ in untraced)
    spans = tracer.spans
    top_spans_s = sum(end - start for name, start, end, parent in spans if parent < 0)
    # the spans directly under each operation: kcert's calls, or in a CLI
    # child its import and its run; and moving a child's spans to the parent
    under_op = [(name, end - start) for name, start, end, parent in spans
                if parent >= 0 and spans[parent][0] == "bench.op"]
    transfer_s = sum(t for name, t in under_op if name == "trace.transfer")
    covered_s = sum(t for name, t in under_op if name != "trace.transfer")
    compare_k2 = sum(
        end - start
        for name, start, end, parent in spans
        if name == "exprparse.compare" and parent >= 0
        and spans[parent][0] == "certify.fixture.d2_antidiag_k2"
    )
    lemma_runs = sum(calls.get(f"certify.lemma.{lemma}", 0) for lemma in oracle()["lemmas"])
    verifier_calls = calls.get("certify.verify", 0)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in CALLS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    for layer in SELF_TIMES:
        metrics[f"{layer}.self_s"] = (self_time.get(layer, 0.0), "s")
    for name, unit in COUNTS:
        metrics[name] = (tracer.counts.get(name, 0), unit)
    metrics["exprparse.compare.d2_antidiag_k2_s"] = (compare_k2, "s")
    for lemma in VERIFY_LEMMAS:
        metrics[f"certify.lemma.{lemma}_s"] = (total.get(f"certify.lemma.{lemma}", 0.0), "s")
    metrics["certify.lemma_calls"] = (verifier_calls, "count")
    metrics["certify.lemma_useful_ratio"] = (
        lemma_runs / verifier_calls if verifier_calls else 0.0, "ratio")
    metrics["sturm.queries"] = (calls.get("sturm.query", 0), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (sum(t for t, _ in traced) - untraced_s, "s")
    metrics["trace.top_spans_s"] = (top_spans_s, "s")
    metrics["trace.covered_s"] = (covered_s, "s")
    metrics["trace.transfer_s"] = (transfer_s, "s")
    metrics["trace.process_start_s"] = (
        0.0 if workload.in_process else len(ops) * process_start_s(workload), "s")
    metrics["trace.missing_targets"] = (len(tracer.missing), "count")
    sizes = workload.sizes()
    for name, unit in size_names():
        metrics[name] = (sizes.get(name, 0), unit)

    errors = [e for _, e in untraced + traced if e]
    notes = [f"traced batch: {len(ops)} ops, run untraced then traced"]
    if tracer.missing:
        notes.append(f"trace targets not found: {', '.join(tracer.missing)}")
    return metrics, notes, errors, len(untraced) + len(traced), tracer


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few operations only")
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "kcert" / "__init__.py").is_file():
        print(f"no kcert sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_probe:
        workload = WORKLOADS[args.setup_probe](0, root)
        start = time.perf_counter()
        workload.setup()
        print(time.perf_counter() - start)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    # One CPU for the harness and its children, so that the speed calibration
    # runs on the core that does the measured work.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    workload = WORKLOADS[args.workload](args.seed, root)
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    if args.trace:
        metrics, notes, errors, attempted, tracer = traced_run(workload, args.smoke)
        environment["tracing_overhead_s"] = metrics["trace.overhead_s"][0]
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(str(out_dir / f"trace-{args.workload}-seed{args.seed}.json"),
                    {"environment": environment})
    else:
        metrics, notes, errors, attempted = timed_run(workload, args.seconds, args.smoke)
        environment["tracing_overhead_s"] = None
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    for note in notes:
        print(note)
    for error in errors:
        print(f"failed: {error}")
    print(f"environment: {json.dumps(environment)}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
