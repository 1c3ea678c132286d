"""Vectorized ``ArmState.draw_batch``: rng discipline and determinism.

The batched draw must (a) consume generator state with a *single* rng call
per batch, (b) degenerate to the exact legacy one-call-per-draw sequence at
``size=1`` (seeded ``batch_size=1`` traces are frozen by the golden-trace
equivalence test), and (c) stay deterministic under a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arms import ArmState


class SpyRng:
    """Counts generator calls while delegating to a real generator."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls += 1
        return self._rng.random(*args, **kwargs)


def make_arm(n=100, seed=0, spy=False):
    arm = ArmState("a", [f"e{i}" for i in range(n)], rng=seed)
    if spy:
        arm._rng = SpyRng(seed)
    return arm


class TestSingleRngCall:
    @pytest.mark.parametrize("size", [2, 8, 64])
    def test_batch_consumes_one_rng_call(self, size):
        arm = make_arm(spy=True)
        batch = arm.draw_batch(size)
        assert len(batch) == size
        assert arm._rng.calls == 1

    def test_draw_uses_one_call_per_element(self):
        arm = make_arm(spy=True)
        for i in range(5):
            arm.draw()
        assert arm._rng.calls == 5

    def test_clamped_batch_still_one_call(self):
        arm = make_arm(n=5, spy=True)
        batch = arm.draw_batch(64)
        assert len(batch) == 5
        assert arm._rng.calls == 1
        assert arm.draw_batch(3) == []


class TestSizeOneEquivalence:
    def test_size_one_matches_legacy_draw_sequence(self):
        """draw_batch(1) must replay the exact seeded draw() sequence."""
        legacy = make_arm(seed=1234)
        batched = make_arm(seed=1234)
        want = [legacy.draw() for _ in range(100)]
        got = []
        while not batched.is_empty:
            chunk = batched.draw_batch(1)
            assert len(chunk) == 1
            got.extend(chunk)
        assert got == want

    def test_size_one_interleaves_identically(self):
        """Mixing draw() and draw_batch(1) must not disturb the stream."""
        a = make_arm(seed=77)
        b = make_arm(seed=77)
        seq_a = [a.draw() if i % 2 else a.draw_batch(1)[0] for i in range(40)]
        seq_b = [b.draw() for _ in range(40)]
        assert seq_a == seq_b


class TestBatchSemantics:
    def test_deterministic_under_seed(self):
        assert make_arm(seed=5).draw_batch(32) == make_arm(seed=5).draw_batch(32)

    def test_no_duplicates_and_without_replacement(self):
        arm = make_arm(n=60)
        seen = []
        while not arm.is_empty:
            seen.extend(arm.draw_batch(7))
        assert len(seen) == 60
        assert len(set(seen)) == 60

    def test_counters(self):
        arm = make_arm(n=20)
        arm.draw_batch(6)
        arm.draw()
        arm.draw_batch(1)
        assert arm.n_drawn == 8
        assert arm.remaining == 12

    def test_batch_is_roughly_uniform(self):
        """First element of a batch should be uniform over the members."""
        counts = {}
        for seed in range(400):
            arm = make_arm(n=10, seed=seed)
            first = arm.draw_batch(3)[0]
            counts[first] = counts.get(first, 0) + 1
        assert len(counts) == 10
        assert max(counts.values()) < 4 * min(counts.values())
