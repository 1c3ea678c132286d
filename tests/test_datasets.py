"""Tests for the dataset substrates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import InMemoryDataset
from repro.data.images import SyntheticImageDataset
from repro.data.synthetic import SyntheticClustersDataset
from repro.data.usedcars import (
    BOOLEAN_COLUMNS,
    FEATURE_COLUMNS,
    KEY_COLUMN,
    NUMERIC_COLUMNS,
    TARGET_COLUMN,
    UsedCarsDataset,
)
from repro.errors import ConfigurationError


class TestInMemoryDataset:
    def test_basic_access(self):
        ds = InMemoryDataset(["a", "b"], [10, 20], np.asarray([[1.0], [2.0]]))
        assert len(ds) == 2
        assert ds.fetch("a") == 10
        assert ds.fetch_batch(["b", "a"]) == [20, 10]
        assert ds.feature_of("b")[0] == 2.0

    def test_len_does_not_copy_the_id_list(self, monkeypatch):
        ds = InMemoryDataset(["a", "b"], [10, 20], np.zeros((2, 1)))
        monkeypatch.setattr(ds, "ids", lambda: pytest.fail("len called ids()"))
        assert len(ds) == 2

    def test_unknown_id(self):
        ds = InMemoryDataset(["a"], [1], np.asarray([[0.0]]))
        with pytest.raises(ConfigurationError):
            ds.fetch("zzz")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            InMemoryDataset(["a", "a"], [1, 2], np.zeros((2, 1)))

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigurationError):
            InMemoryDataset(["a", "b"], [1], np.zeros((2, 1)))
        with pytest.raises(ConfigurationError):
            InMemoryDataset(["a", "b"], [1, 2], np.zeros((3, 1)))

    def test_1d_features_promoted(self):
        ds = InMemoryDataset(["a", "b"], [1, 2], np.asarray([1.0, 2.0]))
        assert ds.features().shape == (2, 1)


class TestSyntheticClusters:
    def test_generation_shape(self):
        ds = SyntheticClustersDataset.generate(n_clusters=4, per_cluster=25,
                                               rng=0)
        assert len(ds) == 100
        assert ds.n_clusters == 4
        assert ds.features().shape == (100, 1)

    def test_cluster_assignment_consistent(self):
        ds = SyntheticClustersDataset.generate(n_clusters=3, per_cluster=10,
                                               rng=1)
        for element_id in ds.ids():
            cluster = ds.cluster_of[element_id]
            assert element_id.startswith(f"c{cluster:03d}-")

    def test_parameter_ranges(self):
        ds = SyntheticClustersDataset.generate(n_clusters=50, per_cluster=2,
                                               rng=2)
        assert (ds.means >= 0.0).all() and (ds.means <= 20.0).all()
        assert (ds.sigmas > 0.0).all() and (ds.sigmas <= 5.0).all()

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            SyntheticClustersDataset.generate(n_clusters=0)

    def test_true_index_partitions(self):
        ds = SyntheticClustersDataset.generate(n_clusters=4, per_cluster=20,
                                               rng=3)
        tree = ds.true_index()
        members = sorted(m for leaf in tree.leaves() for m in leaf.member_ids)
        assert members == sorted(ds.ids())
        assert tree.n_leaves() == 4
        assert tree.depth() >= 3

    def test_flat_index(self):
        ds = SyntheticClustersDataset.generate(n_clusters=4, per_cluster=20,
                                               rng=3)
        assert ds.flat_index().depth() == 2

    def test_deterministic(self):
        a = SyntheticClustersDataset.generate(n_clusters=3, per_cluster=10,
                                              rng=9)
        b = SyntheticClustersDataset.generate(n_clusters=3, per_cluster=10,
                                              rng=9)
        assert a.fetch(a.ids()[5]) == b.fetch(b.ids()[5])

    def test_single_cluster_true_index(self):
        ds = SyntheticClustersDataset.generate(n_clusters=1, per_cluster=10,
                                               rng=0)
        assert ds.true_index().n_leaves() == 1


class TestUsedCars:
    def test_schema(self):
        ds = UsedCarsDataset.generate(n=200, rng=0)
        row = ds.fetch(ds.ids()[0])
        for column in FEATURE_COLUMNS + (TARGET_COLUMN, KEY_COLUMN):
            assert column in row
        for column in BOOLEAN_COLUMNS:
            assert row[column] in (True, False)

    def test_feature_matrix_shape(self):
        ds = UsedCarsDataset.generate(n=100, rng=0)
        assert ds.features().shape == (100, len(FEATURE_COLUMNS))
        assert np.isfinite(ds.features()).all()

    def test_prices_positive_and_heavy_tailed(self):
        ds = UsedCarsDataset.generate(n=3000, rng=1, missing_rate=0.0)
        prices = ds.prices()
        assert (prices > 0).all()
        # Heavy tail: the top percentile is far above the median.
        assert np.percentile(prices, 99) > 3 * np.median(prices)

    def test_missing_values_injected(self):
        ds = UsedCarsDataset.generate(n=1000, rng=2, missing_rate=0.2)
        n_missing = sum(
            1 for element_id in ds.ids()
            for col in NUMERIC_COLUMNS
            if ds.fetch(element_id)[col] is None
        )
        assert n_missing > 0

    def test_no_missing_when_rate_zero(self):
        ds = UsedCarsDataset.generate(n=200, rng=3, missing_rate=0.0)
        n_missing = sum(
            1 for element_id in ds.ids()
            for col in NUMERIC_COLUMNS
            if ds.fetch(element_id)[col] is None
        )
        assert n_missing == 0

    def test_split_is_disjoint(self):
        train_rows, query_ds = UsedCarsDataset.generate_split(
            n_train=100, n_query=50, rng=4
        )
        train_ids = {row[KEY_COLUMN] for row in train_rows}
        assert train_ids.isdisjoint(set(query_ds.ids()))
        assert len(query_ds) == 50

    def test_damaged_cars_cheaper_on_average(self):
        ds = UsedCarsDataset.generate(n=5000, rng=5, missing_rate=0.0)
        damaged, clean = [], []
        for element_id in ds.ids():
            row = ds.fetch(element_id)
            (damaged if row["frame_damaged"] else clean).append(row["price"])
        assert np.mean(damaged) < np.mean(clean)

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            UsedCarsDataset.generate(n=0)


class TestSyntheticImages:
    def test_generation_shapes(self):
        ds = SyntheticImageDataset.generate(n=60, n_classes=4, side=8, rng=0)
        assert len(ds) == 60
        assert ds.n_classes == 4
        image = ds.fetch(ds.ids()[0])
        assert image.shape == (8, 8, 3)
        assert ds.features().shape == (60, 8 * 8 * 3)

    def test_pixel_range(self):
        ds = SyntheticImageDataset.generate(n=40, n_classes=3, side=8, rng=1)
        for element_id in ds.ids()[:10]:
            image = ds.fetch(element_id)
            assert image.min() >= 0.0 and image.max() <= 1.0

    def test_same_class_images_more_similar(self):
        """Property (i): class structure is visible in pixel space."""
        ds = SyntheticImageDataset.generate(n=200, n_classes=3, side=8,
                                            noise=0.1, rng=2)
        feats = ds.features()
        labels = ds.labels
        within, across = [], []
        rng = np.random.default_rng(0)
        for _ in range(300):
            i, j = rng.integers(len(ds), size=2)
            dist = np.linalg.norm(feats[i] - feats[j])
            (within if labels[i] == labels[j] else across).append(dist)
        assert np.mean(within) < np.mean(across)

    def test_train_arrays_aligned(self):
        ds = SyntheticImageDataset.generate(n=30, n_classes=2, side=8, rng=3)
        X, y = ds.train_arrays()
        assert len(X) == len(y) == 30

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            SyntheticImageDataset.generate(n=0)
