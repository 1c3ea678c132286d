"""Tests for the cluster tree structure and the index builder."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, IndexError_, SerializationError
from repro.index.builder import IndexConfig, build_flat_index, build_index
from repro.index.tree import ClusterNode, ClusterTree


class TestClusterNode:
    def test_leaf_properties(self):
        leaf = ClusterNode("l", member_ids=("a", "b"))
        assert leaf.is_leaf
        assert leaf.size() == 2
        assert leaf.depth() == 1

    def test_internal_size_and_depth(self, tiny_tree):
        assert tiny_tree.root.size() == 20
        assert tiny_tree.root.depth() == 3

    def test_iter_leaves_order(self, tiny_tree):
        assert [l.node_id for l in tiny_tree.root.iter_leaves()] == \
            ["a1", "a2", "B"]

    def test_iter_nodes_preorder(self, tiny_tree):
        assert [n.node_id for n in tiny_tree.root.iter_nodes()] == \
            ["root", "A", "a1", "a2", "B"]


class TestValidation:
    def test_duplicate_node_ids(self):
        with pytest.raises(IndexError_):
            ClusterTree(ClusterNode("root", children=[
                ClusterNode("x", member_ids=("a",)),
                ClusterNode("x", member_ids=("b",)),
            ]))

    def test_duplicate_members(self):
        with pytest.raises(IndexError_):
            ClusterTree(ClusterNode("root", children=[
                ClusterNode("x", member_ids=("a",)),
                ClusterNode("y", member_ids=("a",)),
            ]))

    def test_empty_leaf(self):
        with pytest.raises(IndexError_):
            ClusterTree(ClusterNode("root", children=[
                ClusterNode("x", member_ids=()),
            ]))

    def test_internal_with_members(self):
        node = ClusterNode("bad", children=[
            ClusterNode("x", member_ids=("a",))
        ])
        node.member_ids = ("z",)
        with pytest.raises(IndexError_):
            ClusterTree(ClusterNode("root", children=[node]))


class TestFlatConstructor:
    def test_flat_tree(self):
        tree = ClusterTree.flat({"c1": ["a", "b"], "c2": ["c"]})
        assert tree.n_leaves() == 2
        assert tree.n_elements() == 3
        assert tree.depth() == 2


class TestFlattened:
    def test_flattened_has_depth_two(self, tiny_tree):
        flat = tiny_tree.flattened()
        assert flat.depth() == 2
        assert flat.n_leaves() == tiny_tree.n_leaves()
        assert flat.n_elements() == tiny_tree.n_elements()


class TestSerialization:
    def test_json_roundtrip(self, tiny_tree, tmp_path):
        path = tmp_path / "index.json"
        tiny_tree.to_json(path, indent=2)
        loaded = ClusterTree.from_json(path)
        assert [l.node_id for l in loaded.leaves()] == \
            [l.node_id for l in tiny_tree.leaves()]
        assert loaded.n_elements() == tiny_tree.n_elements()

    def test_json_string_roundtrip(self, tiny_tree):
        text = tiny_tree.to_json()
        loaded = ClusterTree.from_json(text)
        assert loaded.depth() == tiny_tree.depth()

    def test_centroid_roundtrip(self):
        leaf = ClusterNode("l", member_ids=("a",),
                           centroid=np.asarray([1.0, 2.0]))
        tree = ClusterTree(ClusterNode("root", children=[leaf]))
        loaded = ClusterTree.from_json(tree.to_json())
        assert np.allclose(loaded.leaves()[0].centroid, [1.0, 2.0])

    def test_malformed_json(self):
        with pytest.raises(SerializationError):
            ClusterTree.from_json("{not json")

    def test_missing_root_key(self):
        with pytest.raises(SerializationError):
            ClusterTree.from_json(json.dumps({"format": "x"}))


class TestBuildFlatIndex:
    def test_partition(self):
        ids = [f"e{i}" for i in range(6)]
        labels = [0, 0, 1, 1, 2, 2]
        tree = build_flat_index(ids, labels)
        assert tree.n_leaves() == 3
        collected = sorted(
            m for leaf in tree.leaves() for m in leaf.member_ids
        )
        assert collected == sorted(ids)


class TestBuildIndex:
    def make_features(self, rng, n=120):
        centers = np.asarray([[0, 0], [10, 10], [20, 0], [-10, 10]])
        points = np.vstack([
            rng.normal(center, 0.5, size=(n // 4, 2)) for center in centers
        ])
        ids = [f"e{i}" for i in range(len(points))]
        return points, ids

    def test_leaves_partition_ids(self, rng):
        points, ids = self.make_features(rng)
        tree = build_index(points, ids, IndexConfig(n_clusters=4), rng=0)
        collected = sorted(
            m for leaf in tree.leaves() for m in leaf.member_ids
        )
        assert collected == sorted(ids)
        assert tree.n_leaves() == 4

    def test_dendrogram_is_binaryish(self, rng):
        points, ids = self.make_features(rng)
        tree = build_index(points, ids, IndexConfig(n_clusters=4), rng=0)
        assert tree.depth() >= 3  # root + at least one internal layer

    def test_flat_config(self, rng):
        points, ids = self.make_features(rng)
        tree = build_index(points, ids, IndexConfig(n_clusters=4, flat=True),
                           rng=0)
        assert tree.depth() == 2

    def test_subsample_path(self, rng):
        points, ids = self.make_features(rng, n=200)
        tree = build_index(
            points, ids, IndexConfig(n_clusters=4, subsample=50), rng=0
        )
        assert tree.n_elements() == 200

    def test_leaf_centroids_present(self, rng):
        points, ids = self.make_features(rng)
        tree = build_index(points, ids, IndexConfig(n_clusters=4), rng=0)
        for leaf in tree.leaves():
            assert leaf.centroid is not None
            assert leaf.centroid.shape == (2,)

    def test_mismatched_ids_rejected(self, rng):
        points, ids = self.make_features(rng)
        with pytest.raises(ConfigurationError):
            build_index(points, ids[:-1], IndexConfig(n_clusters=4), rng=0)

    def test_too_many_clusters_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            build_index(rng.normal(size=(3, 2)), ["a", "b", "c"],
                        IndexConfig(n_clusters=5), rng=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, rng, bad):
        """Not numpy's "Probabilities contain NaN" from inside k-means++."""
        points, ids = self.make_features(rng)
        points[17, 1] = bad
        with pytest.raises(ConfigurationError, match="finite.*'e17'"):
            build_index(points, ids, IndexConfig(n_clusters=4), rng=0)

    def test_single_cluster(self, rng):
        points, ids = self.make_features(rng)
        tree = build_index(points, ids, IndexConfig(n_clusters=1), rng=0)
        assert tree.n_leaves() == 1

    def test_similar_clusters_share_subtrees(self, rng):
        """HAC should put the two nearby blobs under one subtree."""
        centers = np.asarray([[0.0, 0.0], [1.0, 0.0], [50.0, 50.0],
                              [51.0, 50.0]])
        points = np.vstack([
            rng.normal(center, 0.05, size=(30, 2)) for center in centers
        ])
        ids = [f"e{i}" for i in range(len(points))]
        tree = build_index(points, ids, IndexConfig(n_clusters=4), rng=0)
        # The root's two subtrees must split the blobs into {near origin}
        # and {near (50, 50)} — check by centroid geometry.
        top_children = tree.root.children
        assert len(top_children) == 2
        for child in top_children:
            leaf_centroids = [l.centroid for l in child.iter_leaves()]
            xs = np.asarray([c[0] for c in leaf_centroids])
            assert (xs < 25).all() or (xs > 25).all()
