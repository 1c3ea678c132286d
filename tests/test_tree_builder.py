"""Tests for the cluster tree structure and the index builder."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, IndexError_, SerializationError
from repro.index.builder import IndexConfig, build_index
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

    def test_the_first_repeat_in_traversal_order_is_named(self):
        """Elements are compared only where their hashes repeat; the one
        named is still the first whose second occurrence comes first."""
        with pytest.raises(IndexError_, match="element 'b' appears"):
            ClusterTree(ClusterNode("root", children=[
                ClusterNode("x", member_ids=("a", "b")),
                ClusterNode("y", member_ids=("c", "b", "a")),
            ]))

    def test_equal_hashes_are_not_a_repeat(self):
        assert hash(-1) == hash(-2)
        tree = ClusterTree(ClusterNode("root", children=[
            ClusterNode("x", member_ids=(-1, 5)),
            ClusterNode("y", member_ids=(-2,)),
        ]))
        assert tree.n_elements() == 3

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
        path.write_text(json.dumps(tiny_tree.to_dict(), indent=2))
        loaded = ClusterTree.from_dict(json.loads(path.read_text()))
        assert [l.node_id for l in loaded.leaves()] == \
            [l.node_id for l in tiny_tree.leaves()]
        assert loaded.n_elements() == tiny_tree.n_elements()

    def test_json_string_roundtrip(self, tiny_tree):
        text = json.dumps(tiny_tree.to_dict())
        loaded = ClusterTree.from_dict(json.loads(text))
        assert loaded.depth() == tiny_tree.depth()

    def test_centroid_roundtrip(self):
        leaf = ClusterNode("l", member_ids=("a",),
                           centroid=np.asarray([1.0, 2.0]))
        tree = ClusterTree(ClusterNode("root", children=[leaf]))
        loaded = ClusterTree.from_dict(tree.to_dict())
        assert np.allclose(loaded.leaves()[0].centroid, [1.0, 2.0])

    def test_malformed_node(self):
        with pytest.raises(SerializationError, match="repro-cluster-tree/1"):
            ClusterTree.from_dict({"format": "repro-cluster-tree/1",
                                   "root": {"children": []}})

    def test_missing_root_key(self):
        with pytest.raises(SerializationError):
            ClusterTree.from_dict({"format": "x"})


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

    def test_flat_config_partitions_the_ids(self, rng):
        points, ids = self.make_features(rng)
        tree = build_index(points, ids, IndexConfig(n_clusters=4, flat=True),
                           rng=0)
        assert tree.n_leaves() == 4
        collected = sorted(
            m for leaf in tree.leaves() for m in leaf.member_ids
        )
        assert collected == sorted(ids)

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

    @pytest.mark.parametrize("config", [
        IndexConfig(n_clusters=4), IndexConfig(n_clusters=4, flat=True),
        IndexConfig(n_clusters=4, subsample=60)])
    def test_rows_build_the_tree_of_the_gathered_features(self, rng, config):
        """``rows`` names each element's row of a larger block (a live
        snapshot's storage): the tree is the one over ``block[rows]``."""
        points, ids = self.make_features(rng, n=200)
        block = np.vstack([points, rng.normal(size=(50, 2))])
        rows = rng.permutation(len(block))[:len(points)]
        gathered = build_index(block[rows], ids, config, rng=5)
        in_place = build_index(block, ids, config, rng=5, rows=rows)
        assert (json.dumps(in_place.to_dict())
                == json.dumps(gathered.to_dict()))

    def test_rows_and_ids_must_align(self, rng):
        points, ids = self.make_features(rng)
        with pytest.raises(ConfigurationError, match="119 ids for 120"):
            build_index(points, ids[:-1], IndexConfig(n_clusters=4), rng=0,
                        rows=np.arange(len(points)))

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
