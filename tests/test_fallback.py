"""Tests for the fallback controller (Section 3.2.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bandit import BanditConfig
from repro.core.fallback import (
    FallbackConfig,
    FallbackController,
    FallbackDecision,
)
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.errors import ConfigurationError
from repro.index.tree import ClusterNode, ClusterTree
from tests.conftest import select_from


class TestFallbackConfig:
    def test_paper_defaults(self):
        config = FallbackConfig()
        assert config.warmup_fraction == 0.3
        assert config.check_frequency == 0.01
        assert config.enabled

    def test_invalid_frequency(self):
        with pytest.raises(ConfigurationError):
            FallbackConfig(check_frequency=0.0)

    def test_invalid_warmup(self):
        with pytest.raises(ConfigurationError):
            FallbackConfig(warmup_fraction=1.5)


class TestCheckSchedule:
    def test_first_check_after_warmup(self):
        controller = FallbackController(FallbackConfig(), n_total=1000)
        assert not controller.should_check(299)
        assert controller.should_check(300)

    def test_interval_after_warmup(self):
        controller = FallbackController(FallbackConfig(), n_total=1000)
        controller.should_check(300)
        assert not controller.should_check(305)
        assert controller.should_check(310)
        assert controller.n_checks == 2

    def test_disabled_never_checks(self):
        controller = FallbackController(FallbackConfig(enabled=False), 1000)
        assert not controller.should_check(10**6)

    def test_small_dataset_interval_floor(self):
        controller = FallbackController(
            FallbackConfig(check_frequency=0.001), n_total=10
        )
        controller.should_check(3)
        assert controller.next_check_at == 4  # interval floors at 1


def seeded_policy(tiny_tree, good_hidden: bool):
    """Policy with contrived histograms.

    ``good_hidden=True`` hides the best leaf (a1) in a subtree whose
    aggregate looks worse than B, triggering the tree condition.
    """
    policy = HierarchicalBanditPolicy(tiny_tree, BanditConfig(), rng=0)
    a1 = policy.node("a1")
    a2 = policy.node("a2")
    b = policy.node("B")
    if good_hidden:
        a1.histogram.add_many([10.0] * 5)
        a2.histogram.add_many([0.0] * 45)
        a1.parent.histogram.add_many([10.0] * 5 + [0.0] * 45)
        b.histogram.add_many([5.0] * 50)
    else:
        a1.histogram.add_many([10.0] * 25)
        a2.histogram.add_many([9.0] * 25)
        a1.parent.histogram.add_many([10.0] * 25 + [9.0] * 25)
        b.histogram.add_many([1.0] * 50)
    return policy


class TestTreeCondition:
    def test_holds_when_good_leaf_hidden(self, tiny_tree):
        policy = seeded_policy(tiny_tree, good_hidden=True)
        assert FallbackController.tree_condition(policy, threshold=0.0)

    def test_absent_when_tree_consistent(self, tiny_tree):
        policy = seeded_policy(tiny_tree, good_hidden=False)
        assert not FallbackController.tree_condition(policy, threshold=0.0)

    def test_never_after_flatten(self, tiny_tree):
        policy = seeded_policy(tiny_tree, good_hidden=True)
        policy.flatten()
        assert not FallbackController.tree_condition(policy, threshold=0.0)


class TestClusteringCondition:
    def test_homogeneous_clusters_trigger(self, tiny_tree):
        """When all clusters look identical, uniform sampling wins on cost."""
        policy = HierarchicalBanditPolicy(tiny_tree, BanditConfig(), rng=0)
        for leaf in map(policy.node, policy.leaves_by_id):
            leaf.histogram.add_many([5.0] * 30)
        triggered = FallbackController.clustering_condition(
            policy, threshold=1.0,
            scoring_latency=1e-3, bandit_latency=5e-3,
        )
        assert triggered

    def test_heterogeneous_clusters_do_not_trigger(self, tiny_tree):
        policy = HierarchicalBanditPolicy(tiny_tree, BanditConfig(), rng=0)
        policy.node("a1").histogram.add_many([10.0] * 30)
        policy.node("a2").histogram.add_many([0.1] * 30)
        policy.node("B").histogram.add_many([0.1] * 30)
        triggered = FallbackController.clustering_condition(
            policy, threshold=1.0,
            scoring_latency=1e-3, bandit_latency=1e-6,
        )
        assert not triggered

    def test_zero_bandit_latency_never_triggers(self, tiny_tree):
        """With free bandit overhead, max gain >= weighted mean always."""
        policy = HierarchicalBanditPolicy(tiny_tree, BanditConfig(), rng=0)
        for leaf in map(policy.node, policy.leaves_by_id):
            leaf.histogram.add_many([5.0] * 30)
        triggered = FallbackController.clustering_condition(
            policy, threshold=1.0, scoring_latency=1e-3, bandit_latency=0.0
        )
        assert not triggered


class TestEvaluate:
    def test_tree_decision_first(self, tiny_tree):
        policy = seeded_policy(tiny_tree, good_hidden=True)
        controller = FallbackController(FallbackConfig(), n_total=20)
        decision = controller.evaluate(policy, threshold=0.0,
                                       scoring_latency=1e-3,
                                       bandit_latency=0.0)
        assert decision is FallbackDecision.FLATTEN_TREE

    def test_none_when_healthy(self, tiny_tree):
        policy = seeded_policy(tiny_tree, good_hidden=False)
        controller = FallbackController(FallbackConfig(), n_total=20)
        decision = controller.evaluate(policy, threshold=0.0,
                                       scoring_latency=1e-3,
                                       bandit_latency=0.0)
        assert decision is FallbackDecision.NONE

    def test_tree_fallback_can_be_disabled(self, tiny_tree):
        policy = seeded_policy(tiny_tree, good_hidden=True)
        config = FallbackConfig(enable_tree_fallback=False,
                                enable_clustering_fallback=False)
        controller = FallbackController(config, n_total=20)
        decision = controller.evaluate(policy, threshold=0.0,
                                       scoring_latency=1e-3,
                                       bandit_latency=1.0)
        assert decision is FallbackDecision.NONE

    def test_exhausted_policy_none(self, tiny_tree):
        policy = HierarchicalBanditPolicy(tiny_tree, BanditConfig(), rng=0)
        for leaf_id in list(policy.leaves_by_id):
            select_from(policy, leaf_id, size=10)
            policy.update((), None)
        assert policy.exhausted
        controller = FallbackController(FallbackConfig(), n_total=20)
        assert controller.evaluate(policy, None, 1e-3, 0.0) is \
            FallbackDecision.NONE
