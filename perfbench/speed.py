"""Machine-speed calibration for timings taken on a shared, noisy host.

On a shared 2-CPU Intel Xeon virtual machine (Python 3.11.7), other tenants
change the speed of pure-Python work by 20% to 3x within tens of seconds, so
a run's raw timings say as much about the host as about kcert.  The harness
therefore times a fixed kernel between measured intervals and rescales each
interval by the host speed around it:

    reported = measured * REFERENCE_S / mean(kernel before, kernel after)

Reported times are seconds on a host that runs the kernel in REFERENCE_S.
The kernel is the harness's own code, never kcert's, and runs with the
garbage collector off, so a change to kcert moves only the measured
intervals, not the kernel.  It mimics kcert's two
hot loops: a sparse product over packed exponents accumulated into a dict of
big integers and boxed back into Fractions, and exact Fraction evaluation of
a polynomial with cached powers.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# Kernel time on a quiet 2-CPU Intel Xeon virtual machine with Python 3.11.7.
REFERENCE_S = 0.0090
# Intervals shorter than this share one pair of kernel samples.
MIN_SEGMENT_S = 0.25
# Kernel runs per sample: one per SECONDS_PER_RUN of the segment just
# measured, within these limits, so that long operations get a steadier
# estimate of the speed they ran at.
MIN_RUNS, MAX_RUNS, SECONDS_PER_RUN = 2, 8, 0.1

_rng = random.Random(3)
_LEFT = [(e0 | e1 << 24 | e2 << 48, _rng.getrandbits(30) - (1 << 29))
         for e0, e1, e2 in ((_rng.randrange(8), _rng.randrange(8), _rng.randrange(8)) for _ in range(90))]
_RIGHT = [(e0 | e1 << 24 | e2 << 48, _rng.getrandbits(40) - (1 << 39))
          for e0, e1, e2 in ((_rng.randrange(12), _rng.randrange(12), _rng.randrange(12)) for _ in range(160))]
_TERMS = [(Fraction(_rng.getrandbits(22) - (1 << 21)),
           (_rng.randrange(15), _rng.randrange(15), _rng.randrange(15))) for _ in range(150)]
_POINT = (Fraction(40123, 45777), Fraction(991, 3701), Fraction(50021, 8191))
_MASK = (1 << 24) - 1


def _kernel() -> tuple[int, Fraction]:
    acc: dict[int, int] = {}
    get = acc.get
    for ka, ca in _LEFT:
        for kb, cb in _RIGHT:
            key = ka + kb
            prev = get(key)
            acc[key] = ca * cb if prev is None else prev + ca * cb
    boxed = {(k & _MASK, k >> 24 & _MASK, k >> 48): Fraction(v) for k, v in acc.items() if v}
    powers: list[dict[int, Fraction]] = [{0: Fraction(1)} for _ in _POINT]
    total = Fraction(0)
    for coeff, exps in _TERMS:
        prod = coeff
        for i, e in enumerate(exps):
            cache = powers[i]
            if e not in cache:
                cache[e] = _POINT[i] ** e
            prod *= cache[e]
        total += prod
    return len(boxed), total


def kernel_seconds(runs: int = MIN_RUNS) -> float:
    """Mean wall time of ``runs`` runs of the calibration kernel.

    The mean, not the minimum: interruptions slow the measured work too.  The
    garbage collector is off meanwhile: a collection would walk kcert's live
    objects, and the kernel's time would then depend on kcert's heap."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(runs):
            _kernel()
        return (time.perf_counter() - start) / runs
    finally:
        if was_enabled:
            gc.enable()


class SpeedTrack:
    """Kernel samples between measured intervals, and a factor per interval.

    ``record(raw)`` notes one measured interval.  Once the intervals since the
    last sample add up to MIN_SEGMENT_S (or ``close`` is set) a new sample is
    taken, closing the segment.  ``factors()`` closes the last segment and
    returns, per recorded interval, REFERENCE_S over the mean of its segment's
    two samples.
    """

    def __init__(self) -> None:
        self.samples = [kernel_seconds()]
        self.segment_of: list[int] = []
        self.open_s = 0.0

    def record(self, raw: float, close: bool = False) -> None:
        self.segment_of.append(len(self.samples) - 1)
        self.open_s += raw
        if close or self.open_s >= MIN_SEGMENT_S:
            self._sample()

    def _sample(self) -> None:
        runs = min(MAX_RUNS, max(MIN_RUNS, round(self.open_s / SECONDS_PER_RUN)))
        self.samples.append(kernel_seconds(runs))
        self.open_s = 0.0

    def factors(self) -> list[float]:
        if self.segment_of and self.segment_of[-1] == len(self.samples) - 1:
            self._sample()
        pairs = zip(self.samples, self.samples[1:])
        per_segment = [REFERENCE_S / ((a + b) / 2) for a, b in pairs]
        return [per_segment[s] for s in self.segment_of]
