"""k-means clustering from scratch (Lloyd's algorithm + k-means++ seeding).

The index applies k-means over the elements' cheap vector representations
(Section 3.2.2).  No third-party clustering library is available offline, so
this is a complete implementation: k-means++ initialization, cache-blocked
Lloyd sweeps, empty-cluster repair (re-seeding an empty centroid at the
point farthest from its assigned centroid), and convergence on centroid
movement tolerance.

A fit never holds an ``(n, L)`` array: rows are assigned in blocks whose
distances stay in cache from the GEMM to the ``argmin``, and centroids are
means over the groups of one stable label sort, so the working set is
O(``BLOCK_ROWS`` x (L + d) + n).  The floats are a whole-matrix sweep's bit
for bit (``tests/test_kmeans.py``, ``tests/test_index_golden.py``) because
a GEMM row does not depend on how many rows the call has, a row's norm not
on its neighbours, and a stable sort lists a cluster's rows in mask order.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.utils.rng import SeedLike, as_generator

#: Rows per assignment block (512 kB of distances at L = 32).  Not a tuning
#: parameter: 512 to 16 384 rows all measured within noise of each other.
BLOCK_ROWS = 2048


def _row_blocks(n: int) -> Iterator[slice]:
    """Slices of :data:`BLOCK_ROWS` rows covering ``n``; the last one takes
    the remainder too, so a block is the whole table or at least that long.

    Short products leave GEMM — numpy sends one row to GEMV, OpenBLAS a
    few (rows x L <= 1200 on AVX-512 cores) to small-matrix kernels — and
    their floats are not the whole matrix's.
    """
    stops = [*range(BLOCK_ROWS, n - BLOCK_ROWS + 1, BLOCK_ROWS), n]
    return map(slice, [0] + stops[:-1], stops)


def _row_sq_norms(points: np.ndarray) -> np.ndarray:
    """``np.sum(points**2, axis=1)`` without the ``(n, d)`` temporary."""
    norms = np.empty(len(points))
    for rows in _row_blocks(len(points)):
        np.sum(points[rows]**2, axis=1, out=norms[rows])
    return norms


def _pairwise_sq_dists(points: np.ndarray, centroids: np.ndarray,
                       points_sq: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared Euclidean distances, shape ``(n_points, n_centroids)``."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, clipped for numeric noise,
    # every step written into the product; stated once, for the block loop
    # and the seeding both.
    if points_sq is None:
        points_sq = _row_sq_norms(points)
    sq = points @ centroids.T
    sq *= -2.0
    sq += points_sq[:, np.newaxis]
    sq += np.sum(centroids**2, axis=1)[np.newaxis, :]
    return np.maximum(sq, 0.0, out=sq)


def _assign(points: np.ndarray, points_sq: np.ndarray,
            centroids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's nearest centroid and its squared distance to it."""
    labels = np.empty(len(points), dtype=np.intp)
    assigned_sq = np.empty(len(points))
    for rows in _row_blocks(len(points)):
        sq = _pairwise_sq_dists(points[rows], centroids, points_sq[rows])
        nearest = np.argmin(sq, axis=1)
        labels[rows] = nearest
        assigned_sq[rows] = sq[np.arange(len(nearest)), nearest]
        del sq  # one block alive at a time
    return labels, assigned_sq


def rows_by_label(labels: np.ndarray, n_labels: int) -> List[np.ndarray]:
    """Per label, its rows in ascending order — ``np.flatnonzero(labels ==
    c)`` for every ``c`` — from one stable sort instead of a mask each."""
    # 16-bit keys select numpy's radix sort.
    keys = labels.astype(np.uint16) if n_labels <= 1 << 16 else labels
    order = np.argsort(keys, kind="stable")
    sizes = np.bincount(labels, minlength=n_labels)
    return np.split(order, np.cumsum(sizes)[:-1])


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

    def _init_plus_plus(self, points: np.ndarray,
                        points_sq: np.ndarray) -> np.ndarray:
        """k-means++ seeding: spread initial centroids by D^2 sampling."""
        n = len(points)
        centroids = np.empty((self.n_clusters, points.shape[1]), dtype=float)
        first = int(self._rng.integers(n))
        centroids[0] = points[first]
        # Each seed's (n, 1) column is evaluated whole: n floats.
        closest_sq = _pairwise_sq_dists(points, centroids[:1],
                                        points_sq).ravel()
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
            new_sq = _pairwise_sq_dists(points, centroids[i : i + 1],
                                        points_sq).ravel()
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
        points_sq = _row_sq_norms(points)
        centroids = self._init_plus_plus(points, points_sq)
        for sweep in range(self.max_iter):
            labels, assigned_sq = _assign(points, points_sq, centroids)
            groups = rows_by_label(labels, self.n_clusters)
            new_centroids = centroids.copy()
            for cluster, members in enumerate(groups):
                if len(members):
                    new_centroids[cluster] = points[members].mean(axis=0)
                else:
                    # Empty-cluster repair: re-seed at the point with the
                    # largest distance to its assigned centroid.
                    farthest = int(np.argmax(assigned_sq))
                    new_centroids[cluster] = points[farthest]
                    assigned_sq[farthest] = 0.0
            movement = float(np.sum((new_centroids - centroids) ** 2))
            centroids = new_centroids
            self.n_iter_ = sweep + 1
            if movement <= self.tol:
                break
        self.labels_, assigned_sq = _assign(points, points_sq, centroids)
        self.centroids_ = centroids
        self.inertia_ = float(assigned_sq.sum())
        return self

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Assign each row of ``points`` to its nearest learned centroid."""
        if self.centroids_ is None:
            raise NotFittedError("KMeans.predict before fit")
        points = np.asarray(points, dtype=float)
        return _assign(points, _row_sq_norms(points), self.centroids_)[0]

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Equivalent to ``fit(points).labels_``."""
        return self.fit(points).labels_  # type: ignore[return-value]
