"""Incremental ``remaining`` counters: O(1) exhaustion checks stay exact.

The vectorized hot path replaces the recursive ``BanditNode.remaining``
property and the leaf-rescanning ``exhausted`` with counters that are
decremented along the root-to-leaf path at draw time (by the policy's
``select``, the only way to draw).  These tests pin (a) the O(1) claim — ``exhausted``
must not rescan leaves — and (b) the exactness invariant: counters always
equal the ground truth recomputed from the arms, through draws, batched
draws, drops, flattening, and a ``load_state`` that installs new members.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ucb import UCBBandit
from repro.core.bandit import BanditConfig
from repro.core.engine import EngineConfig, TopKEngine
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.index.tree import ClusterNode, ClusterTree
from tests.conftest import select_from


def wide_flat_tree(n_leaves: int, leaf_size: int = 3) -> ClusterTree:
    """Root with ``n_leaves`` direct children (the worst case for scans)."""
    leaves = [
        ClusterNode(
            f"leaf{i}",
            member_ids=tuple(f"e{i}_{j}" for j in range(leaf_size)),
        )
        for i in range(n_leaves)
    ]
    return ClusterTree(ClusterNode("root", children=leaves))


def true_remaining(node) -> int:
    if node.arm is not None:
        return node.arm.remaining
    return sum(true_remaining(child) for child in node.children)


def assert_counters_exact(policy) -> None:
    def walk(node):
        assert node.remaining == true_remaining(node), node.node_id
        for child in node.children:
            walk(child)

    walk(policy.node("root"))


class TestO1Exhausted:
    def test_exhausted_does_not_rescan_leaves(self):
        """``exhausted`` on a wide flat index must be a counter check.

        We poison every scan entry point; the O(1) path reads
        ``root.remaining`` and never touches them.
        """
        policy = HierarchicalBanditPolicy(
            wide_flat_tree(2000), BanditConfig(), rng=0
        )

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("exhausted rescanned the leaves")

        policy._active_leaves = boom
        policy._iter_rows = boom
        for _ in range(50):
            assert not policy.exhausted

    def test_engine_exhausted_is_counter_check(self):
        engine = TopKEngine(wide_flat_tree(500), EngineConfig(k=3, seed=0))

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("engine.exhausted rescanned the leaves")

        engine.policy._active_leaves = boom
        assert not engine.exhausted

    def test_exhausted_flips_exactly_at_the_last_draw(self):
        policy = HierarchicalBanditPolicy(
            wide_flat_tree(20, leaf_size=2), BanditConfig(), rng=1
        )
        total = policy.remaining
        assert total == 40
        drawn = 0
        while not policy.exhausted:
            drawn += len(policy.select(1, epsilon=1.0))
            policy.update((), None)
        assert drawn == total
        assert policy.remaining == 0


class TestCounterExactness:
    def test_counters_track_scalar_and_batched_draws(self, tiny_tree):
        policy = HierarchicalBanditPolicy(tiny_tree, BanditConfig(), rng=3)
        assert_counters_exact(policy)
        select_from(policy, "B")
        assert_counters_exact(policy)
        select_from(policy, "B", size=4)
        assert_counters_exact(policy)
        assert policy.remaining == 15
        assert policy.node("B").remaining == 5

    def test_counters_after_drop_and_flatten(self, tiny_tree):
        policy = HierarchicalBanditPolicy(tiny_tree, BanditConfig(), rng=5)
        select_from(policy, "a1", size=5)
        policy.update((), None)
        assert "a1" not in policy.leaves_by_id
        assert_counters_exact(policy)
        assert policy.remaining == 15
        select_from(policy, "B", size=3)
        policy.flatten()
        assert policy.remaining == 12
        assert_counters_exact(policy)

    def test_counters_under_random_engine_run(self):
        rng = np.random.default_rng(9)
        engine = TopKEngine(
            wide_flat_tree(12, leaf_size=5),
            EngineConfig(k=4, batch_size=3, seed=2),
        )
        while not engine.exhausted:
            ids = engine.next_batch()
            engine.observe(ids, rng.random(len(ids)))
        assert engine.policy.remaining == 0
        assert_counters_exact(engine.policy)

    def test_load_state_rederives_counters_from_installed_members(
            self, tiny_tree):
        source = HierarchicalBanditPolicy(tiny_tree, BanditConfig(), rng=0)
        select_from(source, "a1", size=3)
        source.update([1.0, 2.0, 3.0], None)
        policy = HierarchicalBanditPolicy(tiny_tree, BanditConfig(), rng=1)
        policy.load_state(source.state())
        assert policy.node("a1").remaining == 2
        assert policy.remaining == 17
        assert_counters_exact(policy)
        assert policy.state() == source.state()


class TestUCBCounters:
    def test_ucb_remaining_is_incremental_and_exact(self, tiny_tree):
        ucb = UCBBandit(tiny_tree, batch_size=4, rng=0)
        total = 20
        assert ucb._policy.remaining == total
        rng = np.random.default_rng(0)
        while not ucb.exhausted:
            ids = ucb.next_batch()
            ucb.observe(ids, rng.random(len(ids)))
            total -= len(ids)
            assert ucb._policy.remaining == total
        assert total == 0
