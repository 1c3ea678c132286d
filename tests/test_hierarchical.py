"""Tests for the hierarchical bandit policy over the cluster tree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bandit import BanditConfig
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.errors import ExhaustedError, SerializationError
from repro.index.tree import ClusterNode, ClusterTree
from tests.conftest import select_from


def build_policy(tree, seed=0, **config_kwargs):
    config = BanditConfig(**config_kwargs) if config_kwargs else BanditConfig()
    return HierarchicalBanditPolicy(tree, config, rng=seed)


class TestMirrorConstruction:
    def test_structure_mirrors_tree(self, tiny_tree):
        policy = build_policy(tiny_tree)
        assert not policy.node("root").is_leaf
        assert len(policy.node("root").children) == 2
        assert set(policy.leaves_by_id) == {"a1", "a2", "B"}

    def test_every_node_has_histogram(self, tiny_tree):
        policy = build_policy(tiny_tree)

        def walk(node):
            assert node.histogram is not None
            for child in node.children:
                walk(child)

        walk(policy.node("root"))

    def test_remaining_counts(self, tiny_tree):
        policy = build_policy(tiny_tree)
        assert policy.node("root").remaining == 20
        assert policy.node("B").remaining == 10


class TestSelection:
    def test_descends_to_leaf_and_draws(self, tiny_tree):
        policy = build_policy(tiny_tree)
        ids = policy.select(3, epsilon=1.0)
        assert len(ids) == 3
        assert policy._ids[policy._pending] in {"a1", "a2", "B"}
        assert set(ids) <= {f"x{i}" for i in range(10)} | \
            {f"y{i}" for i in range(10)}
        assert policy.remaining == 17

    @pytest.mark.parametrize("flat", [False, True])
    def test_greedy_prefers_seeded_histogram(self, tiny_tree, flat):
        """Exploiting prefers the high arm — per layer, or over flat arms."""
        policy = build_policy(tiny_tree.flattened() if flat else tiny_tree)
        # Give B a clearly better histogram.
        policy.node("B").histogram.add_many([5.0] * 20)
        b_parent = policy.node("B").parent
        b_parent.histogram.add_many([5.0] * 20)
        policy.node("a1").histogram.add_many([0.1] * 20)
        policy.node("a1").parent.histogram.add_many([0.1] * 20)
        policy.node("a2").histogram.add_many([0.1] * 20)
        chosen = {element_id[0] for _ in range(10)
                  for element_id in policy.select(1, 0.0, epsilon=0.0)}
        assert chosen == {"y"}

    def test_explore_visits_all_leaves(self, tiny_tree):
        policy = build_policy(tiny_tree, seed=3)
        seen = set()
        for _ in range(200):
            policy.select(0, epsilon=1.0)
            seen.add(policy._ids[policy._pending])
        assert seen == {"a1", "a2", "B"}

    def test_greedy_leaf_vs_descent_can_differ(self, tiny_tree):
        """The tree-fallback situation: good leaf hidden in a bad subtree."""
        policy = build_policy(tiny_tree)
        # a1 is globally the best leaf, but its parent A looks bad because
        # sibling a2 drags the subtree histogram down.
        policy.node("a1").histogram.add_many([10.0] * 5)
        policy.node("a2").histogram.add_many([0.0] * 45)
        a_node = policy.node("a1").parent
        a_node.histogram.add_many([10.0] * 5 + [0.0] * 45)
        policy.node("B").histogram.add_many([5.0] * 50)
        assert policy.greedy_leaf(threshold=0.0) == "a1"
        assert policy.greedy_descent_leaf(threshold=0.0) == "B"

    def test_exhausted_tree_raises(self):
        leaf = ClusterNode("only", member_ids=("e0",))
        tree = ClusterTree(ClusterNode("root", children=[leaf]))
        policy = build_policy(tree)
        assert policy.select(1) == ["e0"]
        policy.update([1.0], None)
        assert policy.exhausted
        with pytest.raises(ExhaustedError):
            policy.greedy_leaf(None)
        with pytest.raises(ExhaustedError):
            policy.select(1)


class TestUpdates:
    def test_update_touches_full_path(self, tiny_tree):
        policy = build_policy(tiny_tree)
        leaf = policy.node("a1")
        select_from(policy, "a1")
        policy.update([3.0], threshold=None)
        assert leaf.histogram.total_mass == 1.0
        assert leaf.parent.histogram.total_mass == 1.0
        assert policy.node("root").histogram.total_mass == 1.0
        # Sibling untouched.
        assert policy.node("B").histogram.total_mass == 0.0

    def test_update_respects_rebinning_flag(self, tiny_tree):
        policy = build_policy(tiny_tree)
        leaf = policy.node("B")
        for value in np.linspace(0, 50, 30):
            select_from(policy, "B", size=0)
            policy.update([float(value)], threshold=40.0,
                          enable_rebinning=False)
        assert leaf.histogram.n_rebins == 0

    def test_update_without_select_is_a_noop(self, tiny_tree):
        policy = build_policy(tiny_tree)
        policy.update([3.0], threshold=None)
        assert policy.root_sketch.total_mass == 0.0


class TestEmptyChildHandling:
    def drain(self, policy, leaf_id):
        leaf = policy.node(leaf_id)
        while leaf.remaining:
            select_from(policy, leaf_id)
            policy.update([1.0], threshold=None)
        return leaf

    def test_drop_removes_leaf(self, tiny_tree):
        policy = build_policy(tiny_tree)
        self.drain(policy, "a1")
        assert "a1" not in policy.leaves_by_id
        assert policy.n_drops == 1
        a_node = policy.node("a2").parent
        assert [c.node_id for c in a_node.children] == ["a2"]

    def test_subtraction_removes_mass_from_ancestors(self, tiny_tree):
        policy = build_policy(tiny_tree)
        self.drain(policy, "a1")
        # Root saw 5 updates from a1; after subtraction its mass is ~0.
        assert policy.node("root").histogram.total_mass == pytest.approx(0.0, abs=1e-6)

    def test_subtraction_disabled_keeps_mass(self, tiny_tree):
        policy = HierarchicalBanditPolicy(
            tiny_tree, BanditConfig(), rng=0, enable_subtraction=False
        )
        self.drain(policy, "a1")
        assert policy.node("root").histogram.total_mass == pytest.approx(5.0)

    def test_parent_removed_when_childless(self, tiny_tree):
        policy = build_policy(tiny_tree)
        self.drain(policy, "a1")
        self.drain(policy, "a2")
        # Node A should be gone from the root's children.
        assert [c.node_id for c in policy.node("root").children] == ["B"]

    def test_double_drop_is_idempotent(self, tiny_tree):
        policy = build_policy(tiny_tree)
        leaf = self.drain(policy, "a1")
        policy._drop(leaf._row)  # second call: no-op
        assert policy.n_drops == 1

    def test_remaining_ids_excludes_drawn(self, tiny_tree):
        policy = build_policy(tiny_tree)
        drawn = set(select_from(policy, "B", size=4))
        assert len(drawn) == 4
        remaining = set(policy.remaining_ids())
        assert drawn.isdisjoint(remaining)
        assert len(remaining) == 16


class TestFlatten:
    def test_flatten_makes_leaves_direct_children(self, tiny_tree):
        policy = build_policy(tiny_tree)
        policy.flatten()
        assert policy.flattened
        child_ids = {c.node_id for c in policy.node("root").children}
        assert child_ids == {"a1", "a2", "B"}
        for child in policy.node("root").children:
            assert child.parent.node_id == "root"

    def test_flatten_preserves_remaining(self, tiny_tree):
        policy = build_policy(tiny_tree)
        select_from(policy, "B")
        policy.flatten()
        assert policy.remaining == 19

    def test_greedy_descent_equals_greedy_leaf_after_flatten(self, tiny_tree):
        policy = build_policy(tiny_tree)
        policy.node("a1").histogram.add_many([10.0] * 5)
        policy.node("a2").histogram.add_many([0.0] * 45)
        policy.node("a1").parent.histogram.add_many(
            [10.0] * 5 + [0.0] * 45
        )
        policy.node("B").histogram.add_many([5.0] * 50)
        policy.flatten()
        assert policy.greedy_leaf(0.0) == policy.greedy_descent_leaf(0.0)


class TestStateRoundTrip:
    def learn(self, policy, pulls=8):
        for i in range(pulls):
            ids = policy.select(2, threshold=0.5, epsilon=0.5)
            policy.update([float(i + j) for j in range(len(ids))], 0.5)

    @pytest.mark.parametrize("flatten", [False, True])
    def test_load_state_reproduces_state(self, tiny_tree, flatten):
        source = build_policy(tiny_tree, seed=4)
        self.learn(source)
        if flatten:
            source.flatten()
            self.learn(source, pulls=1)
        payload = source.state()
        assert payload["node_id"] == "root"
        if flatten:
            assert all("remaining" in child for child in payload["children"])

        restored = build_policy(tiny_tree, seed=9)
        restored.load_state(payload)
        assert restored.state() == payload
        assert restored.remaining == source.remaining
        assert sorted(restored.remaining_ids()) == \
            sorted(source.remaining_ids())
        assert [n for n, _sketch in restored.live_leaves()] == \
            [n for n, _sketch in source.live_leaves()]
        assert restored.greedy_leaf(0.5) == source.greedy_leaf(0.5)

    def test_load_state_omits_dropped_leaves(self, tiny_tree):
        source = build_policy(tiny_tree)
        select_from(source, "a1", size=5)
        source.update([1.0] * 5, None)
        restored = build_policy(tiny_tree, seed=1)
        restored.load_state(source.state())
        assert set(restored.leaves_by_id) == {"a2", "B"}
        assert set(restored.sketches()) == {"root", "A", "a2", "B"}

    def test_load_state_rejects_another_tree(self, tiny_tree):
        payload = build_policy(tiny_tree).state()
        other = ClusterTree(ClusterNode("root", children=[
            ClusterNode("only", member_ids=("e0",))]))
        with pytest.raises(SerializationError):
            build_policy(other).load_state(payload)
        payload["node_id"] = "elsewhere"
        with pytest.raises(SerializationError):
            build_policy(tiny_tree).load_state(payload)
