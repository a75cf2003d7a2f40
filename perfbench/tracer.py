"""Span tracing of kcert from outside the package.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record one span per call: (name, start, end,
parent).  A function is patched in every loaded ``kcert`` module that bound
it (``from .poly import ...`` makes a second binding), and a method under
every class attribute that holds it (``__rmul__ = __mul__``).  Targets that a
later version of kcert renames or removes are skipped and listed in
``missing``, so the harness keeps working.

Times come from ``time.perf_counter``, which reads CLOCK_MONOTONIC on Linux,
so spans recorded in a child process line up with the parent's.  Spans stay
in memory until ``dump``.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable

Hook = Callable[["Tracer", tuple, object], None]


def _nterms(poly) -> int:
    return len(poly.terms)


def _count_mul(tracer: "Tracer", args: tuple, result) -> None:
    left, right = args[0], args[1]
    if hasattr(right, "terms"):
        tracer.counts["poly.mul.term_pairs"] += _nterms(left) * _nterms(right)


def _count_evaluate(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["poly.evaluate.terms"] += _nterms(args[0])


def _count_equals(tracer: "Tracer", args: tuple, result) -> None:
    a, b = args[0], args[1]
    tracer.counts["poly.equals.term_pairs"] += _nterms(a.num) * _nterms(b.den) + _nterms(
        b.num
    ) * _nterms(a.den)


def _count_fixture_bytes(tracer: "Tracer", args: tuple, result) -> None:
    with open(args[0], "rb") as handle:
        tracer.counts["exprparse.fixture_bytes"] += len(handle.read())


def _count_report_bytes(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["cli.report_bytes"] += len(result.encode("utf-8"))


def _lemma_name(args: tuple, kwargs: dict) -> str:
    return f"certify.lemma.{args[0] if args else kwargs['lemma_id']}"


def _fixture_name(args: tuple, kwargs: dict) -> str:
    # fixture_comparison(chart_id, name, ...) -> the fixture's own name, e.g. d2_antidiag_k2
    return f"certify.fixture.{args[1]}_{args[0]}"


_VERIFIERS = (
    "verify_convexity",
    "verify_symmetry",
    "verify_prime2",
    "verify_doubleprime2",
    "verify_veritas",
    "verify_claritas",
    "verify_uniqueness_k2",
    "verify_uniqueness_k3",
)

# (module, attribute path, span name or name function, counting hook)
TARGETS: list[tuple[str, str, object, Hook | None]] = [
    ("kcert.poly", "MultiPoly.__mul__", "poly.mul", _count_mul),
    ("kcert.poly", "MultiPoly.evaluate", "poly.evaluate", _count_evaluate),
    ("kcert.poly", "MultiPoly.substitute", "poly.substitute", None),
    ("kcert.poly", "RatFunc.equals", "poly.equals", _count_equals),
    ("kcert.poly", "directional_second_derivative", "poly.d2", None),
    ("kcert.polytope", "build_polygon", "polytope.build_polygon", None),
    ("kcert.polytope", "integrate_monomial", "polytope.integrate", None),
    ("kcert.polytope", "boundary_integral", "polytope.integrate", None),
    ("kcert.functional", "build_bundle", "functional.build_bundle", None),
    ("kcert.functional", "evaluate_calA_on_areas", "functional.calA_on_areas", None),
    ("kcert.functional", "evaluate_futaki_on_areas", "functional.futaki_on_areas", None),
    ("kcert.functional", "restrict_diagonal", "functional.restrict_diagonal", None),
    ("kcert.exprparse", "load_fixture", "exprparse.load_fixture", _count_fixture_bytes),
    ("kcert.exprparse", "compare_against_fixture", "exprparse.compare", None),
    ("kcert.certify", "fixture_comparison", _fixture_name, None),
    ("kcert.certify", "run_lemma", _lemma_name, None),
    *[("kcert.certify", name, "certify.verify", None) for name in _VERIFIERS],
    ("kcert.sturm", "sturm_isolate", "sturm.isolate", None),
    ("kcert.sturm", "count_roots", "sturm.query", None),
    ("kcert.univar", "poly_gcd", "univar.gcd", None),
    ("kcert.cli", "emit_report", "cli.emit_report", _count_report_bytes),
]


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        # off while the harness checks results, so checks leave no spans
        self.enabled = True

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, fn: Callable, name, hook: Hook | None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded elsewhere (a child process) under ``parent``."""
        offset = len(self.spans)
        for name, start, end, up in spans:
            self.spans.append([name, start, end, parent if up < 0 else up + offset])

    def adopt_counts(self, counts: dict[str, int]) -> None:
        for key, value in counts.items():
            self.counts[key] += value

    # -- patching -------------------------------------------------------------

    @classmethod
    def install(cls) -> "Tracer":
        """Import kcert fully and wrap every target that exists."""
        tracer = cls()
        importlib.import_module("kcert")
        importlib.import_module("kcert.cli")
        modules = [m for n, m in list(sys.modules.items()) if n == "kcert" or n.startswith("kcert.")]
        for module_name, path, name, hook in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                tracer.missing.append(f"{module_name}.{path}")
                continue
            wrapper = tracer.wrap(original, name, hook)
            if owner_name:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        return tracer

    # -- summaries ------------------------------------------------------------

    def summary(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """(calls, total seconds, self seconds) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
        return calls, total, self_time

    def dump(self, path: str, extra: dict | None = None) -> None:
        payload = {"spans": self.spans, "counts": dict(self.counts), "missing": self.missing}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))  # json.dump would skip the C encoder
