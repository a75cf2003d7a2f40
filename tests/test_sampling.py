from __future__ import annotations

import threading

import pytest

from kcert.sampling import SplitMix64


def test_below_pinned_draws():
    # report bytes depend on these draws; any change to below() shows here
    rng = SplitMix64()
    assert [rng.below(1000) for _ in range(8)] == [194, 697, 851, 540, 24, 507, 437, 759]


def test_below_full_word_bound():
    assert SplitMix64().below(1 << 64) == 14592251008053203194


@pytest.mark.parametrize("bound", [0, -1, (1 << 64) + 1, (1 << 80) + 1])
def test_below_rejects_bounds_outside_one_word(bound):
    outcome = []

    def draw():
        try:
            outcome.append(SplitMix64().below(bound))
        except ValueError as exc:
            outcome.append(exc)

    worker = threading.Thread(target=draw, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), f"below({bound}) did not return"
    assert len(outcome) == 1 and isinstance(outcome[0], ValueError)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_one_word_is_rejected(seed):
    with pytest.raises(ValueError, match="seed must be in 0..2"):
        SplitMix64(seed)


def test_seed_range_ends_are_distinct_streams():
    low, high = SplitMix64(0), SplitMix64((1 << 64) - 1)
    assert low.next_u64() == 16294208416658607535
    assert high.next_u64() == 16490336266968443936
