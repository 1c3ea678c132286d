"""Tests for the cardinality-constrained TopKBuffer.

Equal scores are listed and evicted in admission order; the held entries,
threshold and floats against the min-max heap the buffer replaced are
checked in ``tests/test_topk_lockstep.py``.  ``stk`` is Equation 1's exact
sum of the held scores, so it is the same float in any offer order.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig, TopKEngine
from repro.core.stk import TopKBuffer, stk
from repro.errors import ConfigurationError

#: Few distinct values, so most offers tie; ``-0.0`` equals ``0.0``.
tied_scores = st.sampled_from((0.0, -0.0, 1.0, 2.0, 3.0))


class TestTopKBuffer:
    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            TopKBuffer(0)

    def test_fills_then_evicts(self):
        buf = TopKBuffer(2)
        assert buf.offer(1.0, "a") == 1.0
        assert buf.offer(2.0, "b") == 2.0
        assert len(buf) == buf.k
        assert buf.threshold == 1.0
        # 3.0 evicts the 1.0.
        assert buf.offer(3.0, "c") == 2.0
        assert buf.threshold == 2.0
        assert buf.scores() == [3.0, 2.0]

    def test_rejects_below_threshold(self):
        buf = TopKBuffer(1)
        buf.offer(5.0, "a")
        assert buf.offer(4.0, "b") == 0.0
        assert buf.payloads() == ["a"]

    def test_threshold_none_until_full(self):
        buf = TopKBuffer(3)
        buf.offer(1.0)
        assert buf.threshold is None

    def test_offer_converts_with_float(self):
        buf = TopKBuffer(2)
        buf.offer(np.float64(2.0), "a")
        buf.offer(3, "b")
        assert [type(score) for score in buf.scores()] == [float, float]

    def test_payloads_are_never_compared(self):
        buf = TopKBuffer(3)
        for payload in ({"a": 1}, {"b": 2}, object(), {"c": 3}):
            buf.offer(1.0, payload)
        buf.offer_batch([1.0, 2.0], [object(), {"d": 4}])
        assert len(buf) == 3

    def test_threshold_keeps_the_sign_of_zero(self):
        buf = TopKBuffer(2)
        buf.offer(-0.0, "a")
        buf.offer(0.0, "b")
        assert buf.threshold.hex() == (-0.0).hex()
        assert buf.offer(1.0, "c") == 1.0
        assert buf.threshold.hex() == (0.0).hex()

    def test_equal_score_not_inserted(self):
        # Only strictly greater scores kick out the minimum (f(x) > S_(k)).
        buf = TopKBuffer(1)
        buf.offer(5.0, "a")
        assert buf.offer(5.0, "b") == 0.0
        assert buf.payloads() == ["a"]

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    max_size=200),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=100)
    def test_matches_heapq_reference(self, values, k):
        buf = TopKBuffer(k)
        for value in values:
            buf.offer(value)
        expected = sorted(heapq.nlargest(k, values), reverse=True)
        assert buf.scores() == pytest.approx(expected)
        assert buf.stk.hex() == stk(values, k).hex()

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                    max_size=100),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=100)
    def test_gain_telescopes_to_stk(self, values, k):
        buf = TopKBuffer(k)
        total = sum(buf.offer(value) for value in values)
        assert total == pytest.approx(buf.stk, abs=1e-6)

    def test_items_sorted_descending(self, rng):
        buf = TopKBuffer(10)
        for value in rng.uniform(0, 100, size=50):
            buf.offer(float(value), f"id{value:.5f}")
        items = buf.items()
        scores_only = [score for score, _ in items]
        assert scores_only == sorted(scores_only, reverse=True)
        assert len(items) == 10


class TestOrderFreeStk:
    def test_admission_order_does_not_round_stk(self):
        # A running sum reads 0.1 + 0.2 + 0.3 = 0.6000000000000001.
        forward, backward = TopKBuffer(3), TopKBuffer(3)
        forward.offer_batch([0.1, 0.2, 0.3], "abc")
        for score in (0.3, 0.2, 0.1):
            backward.offer(score)
        assert forward.stk == backward.stk == 0.6

    @given(st.integers(1, 20),
           st.lists(st.one_of(tied_scores, st.floats(0.0, 1e6)),
                    max_size=60).flatmap(
               lambda values: st.tuples(st.just(values),
                                        st.permutations(values))),
           st.booleans())
    @settings(max_examples=200)
    def test_any_permutation_reads_the_same_stk(self, k, offers, batched):
        values, permuted = offers
        first, second = TopKBuffer(k), TopKBuffer(k)
        for value in values:
            first.offer(value)
        if batched:
            second.offer_batch(permuted, range(len(permuted)))
        else:
            # Read after every offer: a read between admissions is kept,
            # and the next admission must not leave it stale.
            for position, value in enumerate(permuted):
                second.offer(value)
                assert second.stk == stk(permuted[:position + 1], k)
        assert first.stk.hex() == second.stk.hex() == stk(values, k).hex()


class TestTieOrder:
    @given(st.integers(1, 8), st.lists(tied_scores, max_size=60),
           st.booleans())
    @settings(max_examples=200)
    def test_equal_scores_listed_in_admission_order(self, k, values, batched):
        """Against a model that keeps ``(score, position)`` sorted: admit
        above the k-th score, evict the earliest admitted of the lowest
        scores, list by score and then by admission."""
        buf = TopKBuffer(k)
        if batched:
            buf.offer_batch(values, range(len(values)))
        else:
            for position, value in enumerate(values):
                buf.offer(value, position)
        model = []
        for position, value in enumerate(values):
            if len(model) < k:
                model.append((value, position))
            elif value > model[0][0]:
                model[0] = (value, position)
            model.sort()
        model.sort(key=lambda entry: (-entry[0], entry[1]))
        assert buf.payloads() == [position for _value, position in model]

    def test_earliest_admitted_tie_is_evicted_first(self):
        buf = TopKBuffer(3)
        for payload in ("a", "b", "c"):
            buf.offer(1.0, payload)
        buf.offer(2.0, "d")
        assert buf.payloads() == ["d", "b", "c"]
        buf.offer(1.5, "e")
        assert buf.payloads() == ["d", "e", "c"]

    def test_restored_engine_evicts_the_same_ties(self, tiny_tree):
        """A snapshot lists the buffer in admission order among ties, so
        the restored buffer evicts the ids the original would have."""
        score_of = {f"{prefix}{i}": float(i % 3)
                    for prefix in "xy" for i in range(10)}
        engine = TopKEngine(tiny_tree, EngineConfig(k=8, seed=3))
        for _ in range(16):
            ids = engine.next_batch()
            engine.observe(ids, [score_of[i] for i in ids])
        assert len(set(engine.buffer.scores())) < len(engine.buffer)
        restored = TopKEngine.restore(tiny_tree, engine.snapshot())
        for step in range(8):
            engine.buffer.offer(1.5, f"new{step}")
            restored.buffer.offer(1.5, f"new{step}")
            assert (set(restored.buffer.payloads())
                    == set(engine.buffer.payloads()))
        assert restored.buffer.items() == engine.buffer.items()
