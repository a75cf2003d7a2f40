"""Write perfbench/oracle.json: the exact results the benchmark checks against.

Run from the repository root, only at a commit whose outputs are trusted:

    python3 perfbench/record_oracle.py

With ``--check`` it writes nothing and instead exits 1 if the results at the
current commit differ from the recorded ones: the by-hand check of the whole
report, whose verdict table the benchmark's workloads only sample.

It runs the whole ``kcert report`` once (about 90 s on a 2-CPU x86-64 box)
and records its verdict table, its exit code, the k2 critical interval and
the chart evaluations at the standard points.  It adds the anticanonical
class and the exact Hessian of the k3 objective at one rational point.  The
Hessian comes from a truncated Taylor expansion of N(p + t v) / D(p + t v),
which does not use kcert's calculus.  It is then checked against kcert's
directional second derivative along four directions.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from kcert import __version__  # noqa: E402
from kcert.delpezzo import CHARTS, K3_CHART, AreaVector  # noqa: E402
from kcert.functional import build_bundle, evaluate_futaki_on_areas  # noqa: E402
from kcert.poly import directional_second_derivative  # noqa: E402

from workloads import ANTIDIAGONALS, CLI_MAIN  # noqa: E402

HESSIAN_POINT = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5))


def taylor_second_derivative(rf, point, v) -> Fraction:
    """d^2/dt^2 at t = 0 of rf(point + t v), from series truncated at t^2."""

    def series(poly):
        total = [Fraction(0)] * 3
        for exps, coeff in poly.terms.items():
            s = [Fraction(coeff), Fraction(0), Fraction(0)]
            for x, w, e in zip(point, v, exps):
                if e == 0:
                    continue
                f = [x ** e, e * x ** (e - 1) * w, e * (e - 1) // 2 * x ** (e - 2) * w * w if e > 1 else 0]
                s = [s[0] * f[0], s[0] * f[1] + s[1] * f[0], s[0] * f[2] + s[1] * f[1] + s[2] * f[0]]
            total = [a + b for a, b in zip(total, s)]
        return total

    n, d = series(rf.num), series(rf.den)
    g0 = n[0] / d[0]
    g1 = (n[1] - g0 * d[1]) / d[0]
    g2 = (n[2] - g1 * d[1] - g0 * d[2]) / d[0]
    return 2 * g2


def hessian(rf, point) -> list[list[Fraction]]:
    unit = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    diag = [taylor_second_derivative(rf, point, unit[i]) for i in range(3)]
    h = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        h[i][i] = diag[i]
        for j in range(i + 1, 3):
            both = tuple(a + b for a, b in zip(unit[i], unit[j]))
            h[i][j] = h[j][i] = (taylor_second_derivative(rf, point, both) - diag[i] - diag[j]) / 2
    return h


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_MAIN, "report", "--no-timing", "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, check=False,
    )
    report = json.loads(proc.stdout)
    witnesses = {item["id"]: item["witnesses"] for item in report["lemmas"]}

    anchors = []
    for summary in report["bundles"]:
        chart = CHARTS[summary["chart"]]
        for key, values in summary["evaluations"].items():
            point = tuple(Fraction(x) for x in key.split(","))
            abcd = (Fraction(0), *point, Fraction(1)) if len(point) == 2 else (*point, Fraction(1))
            chart_areas = tuple(a.evaluate(point) for a in chart.area_vector().as_tuple())
            assert chart_areas == AreaVector.from_abcd(*abcd).as_tuple(), (key, chart_areas)
            anchors.append({
                "label": f"{summary['chart']}:{key}",
                "chart": summary["chart"],
                "point": [str(x) for x in point],
                "abcd": [str(x) for x in abcd],
                "calA": values["calA"],
                "F1": values["F1"],
                "F2": values["F2"],
            })
    c1_abcd = (Fraction(1), Fraction(1), Fraction(1), Fraction(0))
    f1, f2 = evaluate_futaki_on_areas(AreaVector.from_abcd(*c1_abcd))
    anchors.append({
        "label": "c1",
        "chart": None,
        "point": [],
        "abcd": [str(x) for x in c1_abcd],
        "calA": witnesses["gaudete"]["value_at_c1"],
        "F1": str(f1),
        "F2": str(f2),
    })

    cal_a = build_bundle(K3_CHART).calA
    h = hessian(cal_a, HESSIAN_POINT)
    for v in (*ANTIDIAGONALS, (1, 1, 1)):
        expected = sum(v[i] * v[j] * h[i][j] for i in range(3) for j in range(3))
        got = directional_second_derivative(cal_a, v).evaluate(HESSIAN_POINT)
        assert got == expected, (v, got, expected)

    oracle = {
        "recorded_from": f"kcert {__version__}, record_oracle.py",
        "report_exit_code": proc.returncode,
        "lemmas": {item["id"]: item["status"] for item in report["lemmas"]},
        "fixtures": {
            item["name"]: [item["verdict"], item.get("constant")] for item in report["fixtures"]
        },
        "laudate_critical_interval": witnesses["laudate"]["critical_interval"],
        "anchors": anchors,
        "hessian_k3": {
            "point": [str(x) for x in HESSIAN_POINT],
            "matrix": [[str(x) for x in row] for row in h],
        },
    }
    out = Path(__file__).resolve().parent / "oracle.json"
    if "--check" in sys.argv[1:]:
        recorded = json.loads(out.read_text(encoding="utf-8"))
        differ = [key for key in oracle if key != "recorded_from" and oracle[key] != recorded.get(key)]
        print(f"differs from {out}: {', '.join(differ)}" if differ else f"matches {out}")
        sys.exit(1 if differ else 0)
    out.write_text(json.dumps(oracle, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
