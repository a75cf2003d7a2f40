"""Deterministic rational sampling for gaudete's minimality samples and the
fixture comparisons.

A splitmix64 stream keeps the sample sequences identical across platforms and
Python versions; the default seed is 0xC0FFEE.  Samples are strictly positive
rationals with raw numerator and denominator drawn from 1..1000.
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_SEED = 0xC0FFEE

_MASK = (1 << 64) - 1


def check_seed(seed: int) -> int:
    """The seed itself, or ValueError when it lies outside 0..2^64-1.

    A seed is one 64-bit state word; reducing it mod 2^64 would give -1 the
    stream of 2^64-1 while reports echo -1.
    """
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must be in 0..2^64-1, got {seed}")
    return seed


class SplitMix64:
    """64-bit splitmix generator; deterministic and platform independent."""

    def __init__(self, seed: int = DEFAULT_SEED):
        self._state = check_seed(seed)

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw from range(bound) by rejection on the top chunk.

        One 64-bit word per draw, so ``bound`` must lie in 1..2^64; a larger
        bound would leave no accepted word.
        """
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in 1..2^64, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % bound

    def rational(self, max_numerator: int = 1000, max_denominator: int = 1000) -> Fraction:
        """Strictly positive rational with parts drawn from 1..max."""
        return Fraction(1 + self.below(max_numerator), 1 + self.below(max_denominator))

    def point(self, dimension: int) -> tuple[Fraction, ...]:
        return tuple(self.rational() for _ in range(dimension))
