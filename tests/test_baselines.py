"""Tests for the baseline query-execution algorithms."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.base import EngineAlgorithm
from repro.baselines.exploration_only import ExplorationOnly
from repro.baselines.scan import ScanBest, ScanWorst, SortedScan
from repro.baselines.ucb import UCBBandit
from repro.baselines.uniform import UniformSample
from repro.core.engine import EngineConfig, TopKEngine
from repro.errors import ConfigurationError, ExhaustedError
from repro.index.tree import ClusterNode, ClusterTree


def drain(algorithm):
    """Run an algorithm to exhaustion; return the visited ids in order."""
    visited = []
    while not algorithm.exhausted:
        ids = algorithm.next_batch()
        visited.extend(ids)
        algorithm.observe(ids, [0.0] * len(ids))
    return visited


@pytest.fixture
def two_arm_tree():
    low = ClusterNode("low", member_ids=tuple(f"lo{i}" for i in range(30)))
    high = ClusterNode("high", member_ids=tuple(f"hi{i}" for i in range(30)))
    return ClusterTree(ClusterNode("root", children=[low, high]))


class TestUniformSample:
    def test_visits_everything_once(self):
        ids = [f"e{i}" for i in range(100)]
        algo = UniformSample(ids, batch_size=7, rng=0)
        assert sorted(drain(algo)) == sorted(ids)

    def test_shuffled_order(self):
        ids = [f"e{i}" for i in range(100)]
        algo = UniformSample(ids, batch_size=100, rng=0)
        assert drain(algo) != ids  # astronomically unlikely to match

    def test_deterministic_shuffle(self):
        ids = [f"e{i}" for i in range(50)]
        a = drain(UniformSample(ids, batch_size=50, rng=4))
        b = drain(UniformSample(ids, batch_size=50, rng=4))
        assert a == b

    def test_exhausted_raises(self):
        algo = UniformSample(["a"], rng=0)
        drain(algo)
        with pytest.raises(ExhaustedError):
            algo.next_batch()


class TestExplorationOnly:
    def test_visits_everything_once(self, two_arm_tree):
        algo = ExplorationOnly(two_arm_tree, batch_size=4, rng=0)
        visited = drain(algo)
        assert sorted(visited) == sorted(
            m for leaf in two_arm_tree.leaves() for m in leaf.member_ids
        )

    def test_both_arms_sampled_early(self, two_arm_tree):
        algo = ExplorationOnly(two_arm_tree, batch_size=1, rng=1)
        seen_arms = set()
        for _ in range(20):
            ids = algo.next_batch()
            seen_arms.add(ids[0][:2])
            algo.observe(ids, [0.0])
        assert seen_arms == {"lo", "hi"}

    def test_shallow_leaf_bias(self):
        """Per-layer uniform descent over-samples shallow leaves."""
        deep_a = ClusterNode("da", member_ids=tuple(f"da{i}" for i in range(50)))
        deep_b = ClusterNode("db", member_ids=tuple(f"db{i}" for i in range(50)))
        deep = ClusterNode("deep", children=[deep_a, deep_b])
        shallow = ClusterNode("sh", member_ids=tuple(f"sh{i}" for i in range(100)))
        tree = ClusterTree(ClusterNode("root", children=[deep, shallow]))
        algo = ExplorationOnly(tree, batch_size=1, rng=0)
        counts = {"sh": 0, "d": 0}
        for _ in range(100):
            ids = algo.next_batch()
            counts["sh" if ids[0].startswith("sh") else "d"] += 1
            algo.observe(ids, [0.0])
        # ~50% shallow although it holds only 50% of elements in 1 of 3 leaves.
        assert counts["sh"] > 30


class TestUCB:
    def score_of(self, element_id):
        return 10.0 if element_id.startswith("hi") else 0.1

    def test_converges_to_high_mean_arm(self, two_arm_tree):
        algo = UCBBandit(two_arm_tree, batch_size=1, rng=0)
        counts = {"lo": 0, "hi": 0}
        for _ in range(40):
            ids = algo.next_batch()
            counts[ids[0][:2]] += 1
            algo.observe(ids, [self.score_of(i) for i in ids])
        assert counts["hi"] > counts["lo"]

    def test_visits_everything_eventually(self, two_arm_tree):
        algo = UCBBandit(two_arm_tree, batch_size=5, rng=0)
        visited = []
        while not algo.exhausted:
            ids = algo.next_batch()
            visited.extend(ids)
            algo.observe(ids, [self.score_of(i) for i in ids])
        assert len(visited) == 60
        assert len(set(visited)) == 60

    def test_unvisited_children_get_priority(self, two_arm_tree):
        algo = UCBBandit(two_arm_tree, batch_size=1, rng=0)
        first_arms = set()
        for _ in range(2):
            ids = algo.next_batch()
            first_arms.add(ids[0][:2])
            algo.observe(ids, [0.0])
        # Both arms visited in the first two pulls (infinite UCB bonus).
        assert first_arms == {"lo", "hi"}

    def test_prior_mean_used(self, two_arm_tree):
        algo = UCBBandit(two_arm_tree, prior_mean=5.0, rng=0)
        assert algo._policy.root_sketch.mean == 5.0

    @staticmethod
    def pin_tree():
        """Three levels, uneven fan-out; small leaves run dry early."""
        sizes = {"a": (5, 140, 12), "b": (130,), "c": (8, 8, 125, 3)}
        groups = []
        for name, leaf_sizes in sizes.items():
            leaves = [
                ClusterNode(f"{name}{j}", member_ids=tuple(
                    f"{name}{j}-{i}" for i in range(size)))
                for j, size in enumerate(leaf_sizes)
            ]
            groups.append(ClusterNode(name, children=leaves))
        return ClusterTree(ClusterNode("root", children=groups))

    @staticmethod
    def pin_score(element_id):
        digest = hashlib.sha256(element_id.encode()).digest()
        bonus = 4.0 if element_id.startswith("a1") else 0.0
        return (digest[0] % 3) + digest[1] / 256.0 + bonus

    @pytest.mark.parametrize("seed,batch_size,first,digest", [
        (0, 1, ["b0-61", "a1-23", "c0-1", "a2-8", "a0-4", "a1-125"],
         "bd87da01681cd0e27dd579260810e9cb"
         "3de2649295d59bfc93ed60e995a53d91"),
        (7, 4, ["a2-7", "a2-0", "a2-10", "a2-5", "c0-0", "c0-3"],
         "0db18bd8b02a6999ac28c107adccb5c3"
         "ef968f9955451eb803a88004210ad2d0"),
    ])
    def test_draw_order_pinned(self, seed, batch_size, first, digest):
        """The first 300 draws, recorded at commit 2cd54c5 when UCB still
        carried its own tree mirror: sharing the hierarchical policy's
        mirror must not move a single draw (same ``ucb`` tie-break stream,
        same ``arm:<id>`` streams, same drop order)."""
        algo = UCBBandit(self.pin_tree(), batch_size=batch_size, rng=seed)
        drawn = []
        while len(drawn) < 300:
            ids = algo.next_batch()
            drawn.extend(ids)
            algo.observe(ids, [self.pin_score(i) for i in ids])
        drawn = drawn[:300]
        assert drawn[:6] == first
        assert hashlib.sha256(
            "\n".join(drawn).encode()).hexdigest() == digest


class TestScans:
    SCORES = {f"e{i}": float(i) for i in range(20)}

    def test_scan_best_descending(self):
        algo = ScanBest(list(self.SCORES), self.SCORES, batch_size=1)
        visited = drain(algo)
        assert visited[0] == "e19"
        assert visited[-1] == "e0"

    def test_scan_worst_ascending(self):
        algo = ScanWorst(list(self.SCORES), self.SCORES, batch_size=1)
        visited = drain(algo)
        assert visited[0] == "e0"
        assert visited[-1] == "e19"

    def test_sorted_scan_descending_and_free(self):
        algo = SortedScan(list(self.SCORES), self.SCORES, batch_size=4,
                          precompute_cost=12.5)
        assert not algo.charges_scoring
        assert algo.precompute_cost == 12.5
        assert drain(algo)[0] == "e19"

    def test_missing_scores_rejected(self):
        with pytest.raises(ConfigurationError):
            ScanBest(["nope"], self.SCORES)


class TestEngineAlgorithm:
    def test_adapter_drives_engine(self, small_synthetic):
        tree = small_synthetic.true_index()
        engine = TopKEngine(tree, EngineConfig(k=5, seed=0))
        algo = EngineAlgorithm(engine, scoring_latency=1e-3)
        assert algo.name == "Ours"
        assert engine.scoring_latency_hint == 1e-3
        ids = algo.next_batch()
        algo.observe(ids, [1.0] * len(ids))
        assert engine.n_scored == len(ids)
        assert not algo.exhausted
