"""Tests for the from-scratch k-means implementation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.index.kmeans import KMeans, _pairwise_sq_dists


def blobs(rng, centers, per_center=50, spread=0.1):
    points = []
    labels = []
    for i, center in enumerate(centers):
        pts = rng.normal(center, spread, size=(per_center, len(center)))
        points.append(pts)
        labels.extend([i] * per_center)
    return np.vstack(points), np.asarray(labels)


class TestPairwiseDistances:
    def test_matches_naive(self, rng):
        points = rng.normal(size=(20, 3))
        centroids = rng.normal(size=(4, 3))
        fast = _pairwise_sq_dists(points, centroids)
        naive = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(fast, naive, atol=1e-9)

    def test_non_negative(self, rng):
        points = rng.normal(size=(50, 2)) * 1e6
        assert (_pairwise_sq_dists(points, points) >= 0.0).all()

    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 3, 5), (4_000, 32, 8),
                                       (513, 1, 16)])
    def test_same_floats_as_the_expression_it_replaced(self, rng, shape):
        """The in-place evaluation is the allocating one, bit for bit:
        every index (and every golden file) rests on these floats."""
        n, n_centroids, dim = shape
        points = rng.normal(size=(n, dim)) * 1e3
        centroids = rng.normal(size=(n_centroids, dim)) * 1e3
        replaced = np.maximum(
            np.sum(points**2, axis=1)[:, np.newaxis]
            - 2.0 * (points @ centroids.T)
            + np.sum(centroids**2, axis=1)[np.newaxis, :],
            0.0)
        assert np.array_equal(_pairwise_sq_dists(points, centroids), replaced)

    def test_inputs_are_left_alone(self, rng):
        points = rng.normal(size=(30, 4))
        centroids = points[:3]
        points.flags.writeable = False  # a live snapshot's shared block
        before = points.copy()
        _pairwise_sq_dists(points, centroids)
        assert np.array_equal(points, before)


class TestWorkingMemory:
    """Structural, no clock: a build's high-water mark was five (n, L)
    temporaries per distance evaluation (128 MB at 100k x 32), and a
    churn rebuild put them on top of a serving process's resident set,
    one more or less with the allocator's state."""

    N, L, DIM = 20_000, 32, 8
    MATRIX = N * L * 8

    def _peak(self, run):
        import tracemalloc
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_one_evaluation_holds_one_matrix(self, rng):
        points = rng.normal(size=(self.N, self.DIM))
        centroids = points[:self.L].copy()
        peak = self._peak(lambda: _pairwise_sq_dists(points, centroids))
        # The (n, L) result plus the (n, d) squares; it was >= 3 matrices.
        assert peak < 1.5 * self.MATRIX

    def test_a_fit_holds_two_matrices(self, rng):
        points = rng.normal(size=(self.N, self.DIM))
        model = KMeans(self.L, max_iter=4, rng=0)
        peak = self._peak(lambda: model.fit(points))
        # This sweep's distances and the last one's; it was five.
        assert peak < 2.6 * self.MATRIX


class TestKMeansValidation:
    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            KMeans(0)

    def test_too_few_points(self, rng):
        with pytest.raises(ConfigurationError):
            KMeans(5).fit(rng.normal(size=(3, 2)))

    def test_predict_before_fit(self, rng):
        with pytest.raises(NotFittedError):
            KMeans(2).predict(rng.normal(size=(3, 2)))

    def test_1d_input_rejected(self):
        with pytest.raises(ConfigurationError):
            KMeans(2).fit(np.asarray([1.0, 2.0, 3.0]))


class TestKMeansBehaviour:
    def test_recovers_separated_blobs(self, rng):
        points, labels = blobs(rng, [[0, 0], [10, 10], [-10, 10]])
        model = KMeans(3, rng=0).fit(points)
        # Each true blob maps to exactly one predicted cluster.
        for blob_id in range(3):
            assigned = model.labels_[labels == blob_id]
            assert len(set(assigned.tolist())) == 1
        assert model.inertia_ < 100.0

    def test_labels_match_predict(self, rng):
        points, _ = blobs(rng, [[0, 0], [5, 5]])
        model = KMeans(2, rng=0).fit(points)
        assert np.array_equal(model.predict(points), model.labels_)

    def test_inertia_is_sum_of_squared_distances(self, rng):
        points, _ = blobs(rng, [[0, 0], [5, 5]])
        model = KMeans(2, rng=0).fit(points)
        dists = _pairwise_sq_dists(points, model.centroids_)
        expected = dists[np.arange(len(points)), model.labels_].sum()
        assert model.inertia_ == pytest.approx(expected)

    def test_k_equals_n(self, rng):
        points = rng.normal(size=(6, 2))
        model = KMeans(6, rng=0).fit(points)
        assert model.inertia_ == pytest.approx(0.0, abs=1e-9)

    def test_single_cluster_centroid_is_mean(self, rng):
        points = rng.normal(size=(30, 2))
        model = KMeans(1, rng=0).fit(points)
        assert np.allclose(model.centroids_[0], points.mean(axis=0))

    def test_duplicate_points_handled(self):
        points = np.zeros((20, 2))
        model = KMeans(3, rng=0).fit(points)
        assert model.inertia_ == pytest.approx(0.0)

    def test_deterministic_under_seed(self, rng):
        points, _ = blobs(rng, [[0, 0], [5, 5], [0, 5]])
        a = KMeans(3, rng=7).fit(points)
        b = KMeans(3, rng=7).fit(points)
        assert np.allclose(a.centroids_, b.centroids_)

    def test_all_clusters_populated(self, rng):
        points, _ = blobs(rng, [[0, 0], [20, 20]], per_center=100)
        model = KMeans(4, rng=1).fit(points)
        assert set(model.labels_.tolist()) == set(range(4))

    def test_better_than_random_assignment(self, rng):
        points, _ = blobs(rng, [[0, 0], [8, 8], [16, 0]], spread=0.5)
        model = KMeans(3, rng=0).fit(points)
        random_centroids = points[rng.choice(len(points), 3, replace=False)]
        random_inertia = _pairwise_sq_dists(points, random_centroids).min(
            axis=1
        ).sum()
        assert model.inertia_ <= random_inertia + 1e-9

    def test_fit_predict_shortcut(self, rng):
        points, _ = blobs(rng, [[0, 0], [9, 9]])
        labels = KMeans(2, rng=0).fit_predict(points)
        assert labels.shape == (len(points),)
