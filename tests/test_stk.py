"""Tests for the STK objective, including the Theorem 4.1 properties."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stk import (
    is_dr_submodular_triple,
    is_monotone_step,
    kth_largest,
    marginal_gain,
    multiset_leq,
    stk,
)
from repro.errors import ConfigurationError

scores = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
score_lists = st.lists(scores, max_size=30)
ks = st.integers(min_value=1, max_value=10)


class TestStkBasics:
    def test_simple(self):
        assert stk([5, 1, 3, 2], 2) == 8.0

    def test_fewer_than_k(self):
        assert stk([4.0, 1.0], 5) == 5.0

    def test_empty(self):
        assert stk([], 3) == 0.0

    def test_duplicates_count(self):
        assert stk([7, 7, 7], 2) == 14.0

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            stk([1.0], 0)

    @given(score_lists, ks)
    def test_matches_sorted_definition(self, values, k):
        expected = math.fsum(sorted(values, reverse=True)[:k])
        assert stk(values, k).hex() == expected.hex()

    def test_exact_whatever_the_order(self):
        # Left to right, 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 round apart.
        assert stk([0.1, 0.2, 0.3], 3) == stk([0.3, 0.2, 0.1], 3) == 0.6


class TestKthLargest:
    def test_value(self):
        assert kth_largest([9, 2, 5, 7], 3) == 5.0

    def test_none_when_small(self):
        assert kth_largest([1.0], 2) is None

    def test_ties(self):
        assert kth_largest([3, 3, 3], 2) == 3.0


class TestMarginalGain:
    def test_below_threshold(self):
        assert marginal_gain(1.0, 2.0) == 0.0

    def test_above_threshold(self):
        assert marginal_gain(5.0, 2.0) == 3.0

    def test_no_threshold_full_gain(self):
        assert marginal_gain(4.5, None) == 4.5

    @given(score_lists, scores, ks)
    def test_matches_recomputation(self, values, x, k):
        threshold = kth_largest(values, k)
        expected = stk(values + [x], k) - stk(values, k)
        assert marginal_gain(x, threshold) == pytest.approx(expected, abs=1e-6)


class TestMultisetLeq:
    def test_examples_from_paper(self):
        assert multiset_leq([0, 1], [0, 0, 1, 1, 1])
        assert not multiset_leq([0, 0, 1], [0, 1, 1])
        assert not multiset_leq([0, 1, 1], [0, 0, 1])

    def test_empty_below_everything(self):
        assert multiset_leq([], [1, 2])

    @given(score_lists, score_lists)
    def test_concatenation_is_superset(self, a, b):
        assert multiset_leq(a, a + b)


class TestTheorem41:
    """Property-based checks of monotonicity and DR-submodularity."""

    @given(score_lists, score_lists, ks)
    @settings(max_examples=200)
    def test_monotone(self, subset, extra, k):
        superset = subset + extra
        assert is_monotone_step(subset, superset, k)

    @given(score_lists, score_lists, scores, ks)
    @settings(max_examples=200)
    def test_dr_submodular(self, subset, extra, x, k):
        superset = subset + extra
        assert is_dr_submodular_triple(subset, superset, x, k)

    def test_local_curvature_example(self):
        # The Section 3.1 example: marginal increases of S_(k) are 0, 100, 0.
        k = 2
        s2 = [0.0, 0.0]
        s3 = s2 + [100.0]
        s4 = s3 + [100.0]
        assert kth_largest(s2, k) == 0.0
        assert kth_largest(s3, k) == 0.0
        assert kth_largest(s4, k) == 100.0
        # Yet STK gains stay diminishing for a fixed added element.
        assert stk(s3, k) - stk(s2, k) == 100.0
        assert stk(s4, k) - stk(s3, k) == 100.0
