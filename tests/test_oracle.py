"""Tests for the known-distribution oracles (Section 4 / Figure 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.oracle import (
    adaptive_greedy_known,
    estimate_bs,
    nonadaptive_greedy_allocation,
    offline_optimal_curve,
    simulate_allocation,
)
from repro.core.discrete import DiscreteArm
from repro.errors import ConfigurationError


@pytest.fixture
def arms():
    return [
        DiscreteArm("low", [0, 1, 2], [0.4, 0.4, 0.2]),
        DiscreteArm("mid", [4, 5, 6], [0.3, 0.4, 0.3]),
        DiscreteArm("tail", [0, 20], [0.9, 0.1]),
    ]


class TestOfflineOptimal:
    def test_curve_is_nondecreasing(self, arms):
        curve = offline_optimal_curve(arms, k=5, budget=60, rng=0)
        assert all(a <= b + 1e-9 for a, b in zip(curve, curve[1:]))

    def test_curve_length(self, arms):
        assert len(offline_optimal_curve(arms, k=5, budget=30, rng=0)) == 30

    def test_flat_after_k_best(self, arms):
        """Best-case order: all gains arrive in the first k iterations."""
        curve = offline_optimal_curve(arms, k=3, budget=30, rng=0)
        assert curve[3] == pytest.approx(curve[-1])


class TestAdaptiveGreedyKnown:
    def test_beats_uniform_mixture_on_tail_instance(self, arms):
        budget = 200
        greedy = adaptive_greedy_known(arms, k=10, budget=budget, rng=0)
        # Uniform random arm choice baseline.
        rng = np.random.default_rng(0)
        from repro.core.stk import TopKBuffer
        totals = []
        for seed in range(5):
            gen = np.random.default_rng(seed)
            buffer = TopKBuffer(10)
            for _ in range(budget):
                arm = arms[int(gen.integers(len(arms)))]
                buffer.offer(float(arm.sample(gen)))
            totals.append(buffer.stk)
        assert greedy[-1] >= np.mean(totals)

    def test_chases_tail_arm_once_threshold_high(self):
        """With threshold above 6, only the 20-outcome arm has gain."""
        arms = [
            DiscreteArm("solid", [6], [1.0]),
            DiscreteArm("tail", [0, 20], [0.95, 0.05]),
        ]
        curve = adaptive_greedy_known(arms, k=3, budget=400, rng=1)
        # Final solution should be three 20s.
        assert curve[-1] == pytest.approx(60.0)

    def test_empty_arms_rejected(self):
        with pytest.raises(ConfigurationError):
            adaptive_greedy_known([], k=3, budget=10)


class TestAllocationSimulation:
    def test_simulation_counts(self, arms):
        value = simulate_allocation(arms, [5, 5, 5], k=3, rng=0)
        assert value >= 0.0

    def test_allocation_length_validated(self, arms):
        with pytest.raises(ConfigurationError):
            simulate_allocation(arms, [1, 2], k=3)

    def test_negative_allocation_rejected(self, arms):
        with pytest.raises(ConfigurationError):
            simulate_allocation(arms, [1, -1, 0], k=3)

    def test_bs_monotone_in_budget(self, arms):
        """Theorem 4.2 sanity: adding budget never hurts BS (MC estimate)."""
        small = estimate_bs(arms, [2, 2, 2], k=4, n_simulations=200, rng=0)
        large = estimate_bs(arms, [4, 4, 4], k=4, n_simulations=200, rng=0)
        assert large >= small - 0.5  # MC noise tolerance

    def test_bs_diminishing_returns(self):
        """DR property: the same +1 budget helps less at larger budgets."""
        arms = [DiscreteArm("a", [0, 10], [0.5, 0.5])]
        gain_small = (
            estimate_bs(arms, [2], k=2, n_simulations=3000, rng=1)
            - estimate_bs(arms, [1], k=2, n_simulations=3000, rng=2)
        )
        gain_large = (
            estimate_bs(arms, [9], k=2, n_simulations=3000, rng=3)
            - estimate_bs(arms, [8], k=2, n_simulations=3000, rng=4)
        )
        assert gain_small >= gain_large - 0.3


class TestNonAdaptiveAllocation:
    def test_total_budget_allocated(self, arms):
        allocation = nonadaptive_greedy_allocation(
            arms, k=3, budget=6, n_simulations=30, rng=0
        )
        assert sum(allocation) == 6
        assert len(allocation) == 3

    def test_prefers_high_value_arm(self):
        arms = [
            DiscreteArm("bad", [0], [1.0]),
            DiscreteArm("good", [10], [1.0]),
        ]
        allocation = nonadaptive_greedy_allocation(
            arms, k=2, budget=4, n_simulations=20, rng=0
        )
        assert allocation[1] >= allocation[0]
