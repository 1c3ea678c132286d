"""Tests for the bandit over a flat index and the discrete variant."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bandit import BanditConfig
from repro.core.discrete import DiscreteArm, DiscreteTopKBandit
from repro.core.engine import EngineConfig, TopKEngine
from repro.core.fallback import FallbackConfig
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.errors import ConfigurationError, ExhaustedError
from repro.index.tree import ClusterTree
from tests.conftest import select_from


def flat_tree(cluster_values: dict[str, list[float]]) -> ClusterTree:
    """A one-layer tree whose member IDs encode their scores.

    Arm ``a`` with values ``[1.0, 2.0]`` holds ``a:0:1.0`` and ``a:1:2.0``;
    the engine over such a tree is Algorithm 1 without the hierarchy.
    """
    return ClusterTree.flat({
        arm_id: [f"{arm_id}:{i}:{value}" for i, value in enumerate(values)]
        for arm_id, values in cluster_values.items()
    })


def score_of(element_id: str) -> float:
    return float(element_id.rsplit(":", 1)[1])


def run(engine: TopKEngine, budget: int) -> None:
    """Drive ``budget`` single-element iterations (or until exhausted)."""
    for _ in range(budget):
        if engine.exhausted:
            break
        ids = engine.next_batch()
        engine.observe(ids, [score_of(element_id) for element_id in ids])


class TestBanditConfig:
    def test_defaults_match_paper(self):
        config = BanditConfig()
        assert config.n_bins == 8
        assert config.initial_range == 0.1
        assert config.beta == 1.1
        assert config.enable_rebinning

    def test_invalid_beta(self):
        with pytest.raises(ConfigurationError):
            BanditConfig(beta=3.0)


class TestFlatTreeBandit:
    """Algorithm 1 without the tree: the engine over a one-layer index.

    The flat cases with a hierarchical twin run as a second input of that
    twin instead (``tests/test_engine.py``'s ``setup`` fixture,
    ``tests/test_hierarchical.py``, ``tests/test_sketches.py``); the ones
    below have none.
    """

    def test_requires_arms(self):
        with pytest.raises(ConfigurationError):
            TopKEngine(ClusterTree.flat({}), EngineConfig(k=3))

    def test_gain_updates_threshold(self):
        engine = TopKEngine(flat_tree({"a": [1.0] * 10}),
                            EngineConfig(k=2, seed=0))
        assert engine.observe(engine.next_batch(), [5.0]) == 5.0
        assert engine.threshold is None  # only one element so far
        engine.observe(engine.next_batch(), [3.0])
        assert engine.threshold == 3.0

    def test_only_active_arms_have_gains(self):
        policy = HierarchicalBanditPolicy(
            flat_tree({"a": [1.0], "b": [2.0] * 10}), BanditConfig(), rng=0)
        select_from(policy, "a")
        policy.update([1.0], None)
        assert [remaining for remaining, _sketch in policy.live_leaves()] \
            == [10]
        assert policy.greedy_leaf(None) == "b"

    def test_exhaustion(self):
        engine = TopKEngine(flat_tree({"a": [1.0, 2.0]}),
                            EngineConfig(k=1, seed=0))
        run(engine, budget=10)
        assert engine.exhausted and engine.n_scored == 2
        with pytest.raises(ExhaustedError):
            engine.next_batch()

    def test_rebinning_disabled_never_rebins(self, rng):
        tree = flat_tree({"a": list(rng.uniform(0, 100, size=200))})
        engine = TopKEngine(tree, EngineConfig(
            k=3, seed=0, enable_rebinning=False,
            fallback=FallbackConfig(enabled=False)))
        run(engine, budget=199)
        assert engine.n_scored == 199
        assert [sketch.n_rebins
                for sketch in engine.policy.sketches().values()] == [0, 0]


class TestDiscreteArm:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiscreteArm("a", [], [])
        with pytest.raises(ConfigurationError):
            DiscreteArm("a", [1, 2], [0.5])
        with pytest.raises(ConfigurationError):
            DiscreteArm("a", [-1, 2], [0.5, 0.5])
        with pytest.raises(ConfigurationError):
            DiscreteArm("a", [1, 2], [0.9, 0.9])

    def test_exact_marginal_gain(self):
        arm = DiscreteArm("a", [0, 10], [0.5, 0.5])
        assert arm.exact_marginal_gain(None) == pytest.approx(5.0)
        assert arm.exact_marginal_gain(4.0) == pytest.approx(3.0)
        assert arm.exact_marginal_gain(10.0) == 0.0

    def test_mean(self):
        arm = DiscreteArm("a", [2, 4], [0.25, 0.75])
        assert arm.mean() == pytest.approx(3.5)

    def test_sampling_respects_distribution(self, rng):
        arm = DiscreteArm("a", [0, 1], [0.2, 0.8])
        draws = [arm.sample(rng) for _ in range(2000)]
        assert np.mean(draws) == pytest.approx(0.8, abs=0.05)


class TestDiscreteTopKBandit:
    def test_empirical_gain_converges_to_exact(self, rng):
        arm = DiscreteArm("a", [0, 5, 10], [0.5, 0.3, 0.2])
        bandit = DiscreteTopKBandit([arm], k=3, rng=0)
        for _ in range(3000):
            bandit.step()
        for tau in (None, 2.0, 7.0):
            assert bandit.empirical_gain("a", tau) == pytest.approx(
                arm.exact_marginal_gain(tau), abs=0.15
            )

    def test_prefers_fat_tail_arm(self):
        # Arm "thin": always 6.  Arm "fat": usually 0, sometimes 20.
        thin = DiscreteArm("thin", [6], [1.0])
        fat = DiscreteArm("fat", [0, 20], [0.8, 0.2])
        bandit = DiscreteTopKBandit([thin, fat], k=5, rng=3)
        for _ in range(600):
            bandit.step()
        # Once the threshold sits at 6, only "fat" can improve the solution.
        assert bandit.visits["fat"] > bandit.visits["thin"]
        assert bandit.stk == pytest.approx(100.0, rel=0.2)

    def test_stk_telescopes(self, rng):
        arms = [DiscreteArm("a", [1, 2, 3], [0.3, 0.3, 0.4])]
        bandit = DiscreteTopKBandit(arms, k=2, rng=0)
        total = sum(bandit.step() for _ in range(50))
        assert total == pytest.approx(bandit.stk)

    def test_duplicate_ids_rejected(self):
        arms = [DiscreteArm("a", [1], [1.0]), DiscreteArm("a", [2], [1.0])]
        with pytest.raises(ConfigurationError):
            DiscreteTopKBandit(arms, k=1)
