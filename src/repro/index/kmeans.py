"""k-means clustering from scratch (Lloyd's algorithm + k-means++ seeding).

The index applies k-means over the elements' cheap vector representations
(Section 3.2.2).  No third-party clustering library is available offline, so
this is a complete implementation: k-means++ initialization, vectorized
Lloyd sweeps, empty-cluster repair (re-seeding an empty centroid at the
point farthest from its assigned centroid), and convergence on centroid
movement tolerance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.utils.rng import SeedLike, as_generator


def _pairwise_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape ``(n_points, n_centroids)``."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, clipped for numeric noise.
    # Every step writes into the one (n, L) product: a Lloyd sweep over a
    # large table holds this matrix and the previous sweep's, not five —
    # the temporaries were an index build's whole high-water mark.  Same
    # operations on the same operands in the same order, so same floats.
    sq = points @ centroids.T
    sq *= -2.0
    sq += np.sum(points**2, axis=1)[:, np.newaxis]
    sq += np.sum(centroids**2, axis=1)[np.newaxis, :]
    return np.maximum(sq, 0.0, out=sq)


class KMeans:
    """Lloyd's k-means with k-means++ initialization.

    Parameters
    ----------
    n_clusters:
        Number of centroids ``L``.
    max_iter:
        Maximum Lloyd sweeps (default 100).
    tol:
        Convergence threshold on total squared centroid movement.
    rng:
        Seed or generator.

    Attributes
    ----------
    centroids_:
        ``(n_clusters, d)`` array after :meth:`fit`.
    labels_:
        Training-point assignments after :meth:`fit`.
    inertia_:
        Final sum of squared distances to assigned centroids.
    n_iter_:
        Number of Lloyd sweeps performed.
    """

    def __init__(self, n_clusters: int, max_iter: int = 100, tol: float = 1e-6,
                 rng: SeedLike = None) -> None:
        if n_clusters <= 0:
            raise ConfigurationError(f"n_clusters must be positive, got {n_clusters!r}")
        if max_iter <= 0:
            raise ConfigurationError(f"max_iter must be positive, got {max_iter!r}")
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self._rng = as_generator(rng)
        self.centroids_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.inertia_: Optional[float] = None
        self.n_iter_: int = 0

    # -- initialization --------------------------------------------------------

    def _init_plus_plus(self, points: np.ndarray) -> np.ndarray:
        """k-means++ seeding: spread initial centroids by D^2 sampling."""
        n = len(points)
        centroids = np.empty((self.n_clusters, points.shape[1]), dtype=float)
        first = int(self._rng.integers(n))
        centroids[0] = points[first]
        closest_sq = _pairwise_sq_dists(points, centroids[:1]).ravel()
        for i in range(1, self.n_clusters):
            total = closest_sq.sum()
            if total <= 0.0:
                # All points coincide with chosen centroids; pick uniformly.
                index = int(self._rng.integers(n))
            else:
                index = int(
                    self._rng.choice(n, p=closest_sq / total)
                )
            centroids[i] = points[index]
            new_sq = _pairwise_sq_dists(points, centroids[i : i + 1]).ravel()
            closest_sq = np.minimum(closest_sq, new_sq)
        return centroids

    # -- fitting -----------------------------------------------------------------

    def fit(self, points: np.ndarray) -> "KMeans":
        """Cluster ``points`` (``(n, d)`` float array); return self."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or len(points) == 0:
            raise ConfigurationError(
                f"fit expects a non-empty (n, d) matrix, got shape {points.shape}"
            )
        if len(points) < self.n_clusters:
            raise ConfigurationError(
                f"cannot make {self.n_clusters} clusters from {len(points)} points"
            )
        centroids = self._init_plus_plus(points)
        labels = np.zeros(len(points), dtype=int)
        for sweep in range(self.max_iter):
            sq_dists = _pairwise_sq_dists(points, centroids)
            labels = np.argmin(sq_dists, axis=1)
            new_centroids = centroids.copy()
            for cluster in range(self.n_clusters):
                members = points[labels == cluster]
                if len(members):
                    new_centroids[cluster] = members.mean(axis=0)
            # Empty-cluster repair: re-seed at the point with the largest
            # distance to its assigned centroid.
            assigned_sq = sq_dists[np.arange(len(points)), labels]
            for cluster in range(self.n_clusters):
                if not np.any(labels == cluster):
                    farthest = int(np.argmax(assigned_sq))
                    new_centroids[cluster] = points[farthest]
                    assigned_sq[farthest] = 0.0
            movement = float(np.sum((new_centroids - centroids) ** 2))
            centroids = new_centroids
            self.n_iter_ = sweep + 1
            if movement <= self.tol:
                break
        sq_dists = _pairwise_sq_dists(points, centroids)
        self.labels_ = np.argmin(sq_dists, axis=1)
        self.centroids_ = centroids
        self.inertia_ = float(
            sq_dists[np.arange(len(points)), self.labels_].sum()
        )
        return self

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Assign each row of ``points`` to its nearest learned centroid."""
        if self.centroids_ is None:
            raise NotFittedError("KMeans.predict before fit")
        points = np.asarray(points, dtype=float)
        return np.argmin(_pairwise_sq_dists(points, self.centroids_), axis=1)

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Equivalent to ``fit(points).labels_``."""
        return self.fit(points).labels_  # type: ignore[return-value]
