"""Self-test of the benchmark harness, in smoke mode (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json and both trace settings it checks the
shape of the result line, the metric names and units, and that every
operation passed its correctness checks.  In the traced run every trace
target must exist, and the spans directly under each operation (kcert's
calls; import and run in a CLI child) must cover the operations' time to
within 5%, not counting the measured start-up time of a bare interpreter and
the moving of a CLI child's spans to the harness.  The operations' time is the untraced
batch time plus the tracing overhead (trace.overhead_s).  It
checks that per-layer counts and sizes repeat exactly under another seed,
and that the harness exits non-zero without a result where there are no
kcert sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_metrics(result: dict, spec: list[dict], positive: bool) -> None:
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in spec], sorted(set(metrics) ^ {m["name"] for m in spec})
    for m in spec:
        value = metrics[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value)
        assert isinstance(value["value"], (int, float)), (m["name"], value)
        assert not positive or value["value"] > 0, (m["name"], value)


def counts_and_sizes(result: dict) -> dict:
    return {name: v["value"] for name, v in result["metrics"].items() if v["unit"] in ("count", "bits", "bytes")}


def main() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_metrics(result_of(run(workload, 3, 0)), SPEC["end_to_end"], positive=True)
        traced = result_of(run(workload, 3, 1))
        check_metrics(traced, SPEC["per_layer"], positive=False)
        m = {name: v["value"] for name, v in traced["metrics"].items()}
        assert m["trace.missing_targets"] == 0, workload
        # kcert's spans directly under each operation cover it, except for
        # interpreter start-up and moving the spans of CLI children.  The
        # check compares times from the traced batch only, since the host's
        # speed may differ between the untraced and the traced batch.
        uncovered = m["trace.top_spans_s"] - m["trace.covered_s"] - m["trace.transfer_s"]
        allowed = m["trace.process_start_s"] + 0.05 * m["trace.top_spans_s"]
        assert 0 <= uncovered <= allowed, (workload, uncovered, allowed, m)
        again = result_of(run(workload, 4, 1))
        assert counts_and_sizes(again) == counts_and_sizes(traced), workload
        print(f"ok {workload}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 3, 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok bare directory exits", proc.returncode)


if __name__ == "__main__":
    main()
