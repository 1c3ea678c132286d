"""k-means clustering from scratch (Lloyd's algorithm + k-means++ seeding).

The index applies k-means over the elements' cheap vector representations
(Section 3.2.2).  No third-party clustering library is available offline, so
this is a complete implementation: k-means++ initialization, cache-blocked
Lloyd sweeps that skip every row whose label is certified, empty-cluster
repair (re-seeding an empty centroid at the point farthest from its
assigned centroid), and convergence on centroid movement tolerance.

A fit never holds an ``(n, L)`` array: rows are measured in blocks whose
distances stay in cache from the GEMM to the ``argmin``, and centroids are
per-column ``bincount`` sums (per-cluster means at d = 1), so the working
set is O(``BLOCK_ROWS`` x (L + d) + n).  The floats are a whole-matrix
sweep's bit for bit (``tests/test_kmeans.py``,
``tests/test_index_golden.py``) because a GEMM row does not depend on how
many rows the call has, a row's norm not on its neighbours, a cluster's
column sum adds its rows in ascending order either way, and a skipped row's
label is certified.  Nor does the fit need the ``(n, d)`` matrix itself:
it reads :class:`Rows`, which are a matrix or the rows ``block[index]`` of
one — a live table's storage and the block rows of its live ids — gathered
a block of rows or one column at a time.  A churn rebuild over 100 000
rows at d = 8 so skips a 6 MB copy on top of the serving process.

**Certified labels** (Hamerly's bounds, G. Hamerly, "Making k-means even
faster", SDM 2010, with a rounding margin).  Each row keeps an upper bound
``u`` on its distance to its own centroid and a lower bound ``l`` on its
distance to every other one; a centroid update adds the own centroid's
shift to ``u`` and takes the largest other shift off ``l`` (rounded
outward, ``l`` clamped at 0).  With ``R`` the largest row or centroid norm,

    eta = (d + 4) * 2**-53 * (2R)**2

bounds the error of one evaluation of :func:`_pairwise_sq_dists` against
the exact ``|x - c|**2``, for any BLAS summation order, with or without
FMA: the dot product and both squared norms are d-term sums (at most
``d * 2**-53 * R**2`` each, ``2 x.c`` twice that) and the two additions
round results below ``3 R**2`` and ``4 R**2`` — ``(4d + 7) * 2**-53 *
R**2`` in all, against ``eta``'s ``(4d + 16)``.  So when the exact gap to
the runner-up exceeds ``2 eta`` the canonical product (the row's block of
the whole-table sweep) has its strict minimum at the exact nearest
centroid.  A row is skipped iff ``l**2 - u**2 > 2 eta``; the other rows of
a block are gathered through the same :func:`_pairwise_sq_dists`, and take
their ``argmin`` if every one's best two distances are more than
``4 eta`` apart (both products are within ``eta``, whatever their floats).
Otherwise — exact ties, duplicate centroids — the block's canonical
product decides.  The slack between ``(4d + 7)`` and ``(4d + 16)`` absorbs
the roundings of the tests themselves and of ``R``.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_finite_features

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


class Rows:
    """The ``(n, d)`` matrix a fit reads: ``block`` itself, or — with
    ``index`` — its rows ``block[index]``, never gathered whole.

    Indexing (a slice, row numbers or one row) returns those rows: a view
    of ``block`` when it is the matrix, a copy of them otherwise.
    """

    def __init__(self, block: np.ndarray,
                 index: Optional[np.ndarray] = None) -> None:
        self.block = block
        self.index = index
        self.shape = (len(block) if index is None else len(index),
                      block.shape[1])

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows):
        if self.index is None:
            return self.block[rows]
        return self.block[self.index[rows]]

    def column(self, j: int, out: np.ndarray) -> np.ndarray:
        """Column ``j`` of the matrix, written into the contiguous ``out``."""
        if self.index is None:
            np.copyto(out, self.block[:, j])
        else:
            # mode="raise" would buffer a second column; "wrap" reads a
            # negative row as [] does, and check_finite has read every row.
            np.take(self.block[:, j], self.index, out=out, mode="wrap")
        return out

    def check_finite(self, ids: Sequence[Any]) -> None:
        """:func:`check_finite_features` over the rows, a block at a time
        (``ids`` aligned with them): names the first non-finite row's id."""
        for rows in _row_blocks(len(self)):
            check_finite_features(self[rows], ids[rows])


def _as_rows(points: "np.ndarray | Rows", width: Optional[int] = None,
             verb: str = "fit") -> Rows:
    """``points`` as :class:`Rows`; refuses anything but ``(n, d)``
    rows, ``d == width`` when given (and n > 0 when fitting)."""
    if not isinstance(points, Rows):
        array = np.asarray(points, dtype=float)
        points = Rows(array) if array.ndim == 2 else array
    if not isinstance(points, Rows) or (
            len(points) == 0 if width is None else points.shape[1] != width):
        expected = ("a non-empty (n, d)" if width is None
                    else f"an (n, {width})")
        raise ConfigurationError(
            f"{verb} expects {expected} matrix, got shape {points.shape}")
    return points


def _row_sq_norms(points: "np.ndarray | Rows") -> np.ndarray:
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


def _assign(points: "np.ndarray | Rows", points_sq: np.ndarray,
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


def _cluster_means(points: Rows, labels: np.ndarray,
                   counts: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``points[labels == c].mean(axis=0)`` for every populated cluster
    ``c``, bit for bit; an empty cluster keeps its centroid.

    ``mean(axis=0)`` adds a cluster's rows column by column in ascending
    row order, as ``bincount`` does; at d = 1 numpy sums the one-column
    block pairwise instead, so there each cluster's mean is taken itself.
    """
    means = centroids.copy()
    if points.shape[1] == 1:
        for cluster, members in enumerate(rows_by_label(labels, len(counts))):
            if len(members):
                means[cluster] = points[members].mean(axis=0)
        return means
    sums = np.empty_like(centroids)
    weights = np.empty(len(points))  # one contiguous column, reused
    for column in range(points.shape[1]):
        sums[:, column] = np.bincount(labels,
                                      weights=points.column(column, weights),
                                      minlength=len(counts))
    populated = counts > 0
    means[populated] = sums[populated] / counts[populated, np.newaxis]
    return means


#: A positive normal float times ``_UP`` (``_DOWN``) rounds to at least one
#: float above (below) it: past the exact result of the rounded operation
#: that made it, so a bound stays a bound.
_UP = 1.0 + 2.0**-52
_DOWN = 1.0 - 2.0**-52


def _margin(max_point_sq: float, centroids: np.ndarray) -> float:
    """``eta``: the error bound of one :func:`_pairwise_sq_dists`
    evaluation against these centroids (module docstring).

    ``(2R)**2`` is floored at ``2**-900``, which keeps every underflow
    (at most ``2**-1075`` an operation) far inside the margin.
    """
    diameter_sq = max(4.0 * max_point_sq,
                      4.0 * float(np.max(np.sum(centroids**2, axis=1))),
                      2.0**-900)
    return (centroids.shape[1] + 4) * 2.0**-53 * diameter_sq


def _shifts(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Upper bounds on how far each centroid moved.

    The difference, squares, sum and root round to within ``(d/2 + 2)``
    units of the exact norm; the factor allows twice that.
    """
    moved = np.sqrt(np.sum((new - old) ** 2, axis=1))
    return moved * (1.0 + (old.shape[1] + 4) * 2.0**-52) * _UP


def _nearest_two(sq: np.ndarray, eta: float
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row's nearest centroid in the distances ``sq`` (overwritten),
    and the bounds ``u``, ``l`` they prove on the exact distances to it and
    to every other centroid, given the evaluation error ``eta``; plus the
    gap between the best two distances, for the caller's tie test."""
    rows = np.arange(len(sq))
    best = np.argmin(sq, axis=1)
    first = sq[rows, best]
    sq[rows, best] = np.inf
    second = np.min(sq, axis=1)  # inf with one centroid
    gap = second - first
    upper = np.sqrt((first + eta) * _UP) * _UP
    lower = np.sqrt(np.maximum((second - eta) * _DOWN, 0.0)) * _DOWN
    return best, upper, lower, gap


def _sq_dists_to(points: Rows, centroid: np.ndarray,
                 points_sq: np.ndarray) -> np.ndarray:
    """Every row's squared distance to one ``(1, d)`` centroid: the
    ``(n, 1)`` column of :func:`_pairwise_sq_dists`, a block of rows at a
    time (a GEMV row does not depend on the call's row count either)."""
    column = np.empty(len(points))
    for rows in _row_blocks(len(points)):
        column[rows] = _pairwise_sq_dists(points[rows], centroid,
                                          points_sq[rows])[:, 0]
    return column


def _relabel(points: Rows, points_sq: np.ndarray,
             centroids: np.ndarray, shift: np.ndarray, labels: np.ndarray,
             upper: np.ndarray, lower: np.ndarray) -> None:
    """One Lloyd sweep's labels, into ``labels``: the canonical ``argmin``
    of :func:`_assign`, measured only where the bounds cannot certify it.

    Block by block, ``upper`` / ``lower`` first move by the last update's
    ``shift``; the rows they do not certify are measured — by the block's
    canonical product when that is all of them — and get fresh bounds.
    """
    eta = _margin(float(np.max(points_sq)), centroids)
    # Per own centroid, the largest shift of any other.
    farthest = int(np.argmax(shift))
    other_shift = np.full(len(shift), shift[farthest])
    other_shift[farthest] = np.max(shift, initial=0.0,
                                   where=np.arange(len(shift)) != farthest)
    for rows in _row_blocks(len(points)):
        own = labels[rows]
        block_upper, block_lower = upper[rows], lower[rows]  # views
        block_upper += shift[own]
        block_upper *= _UP
        block_lower -= other_shift[own]
        block_lower *= _DOWN
        np.maximum(block_lower, 0.0, out=block_lower)
        measured = np.flatnonzero(
            ~(block_lower * block_lower - block_upper * block_upper
              > 2.0 * eta))
        if not len(measured):
            continue
        if len(measured) < len(own):
            gathered = measured + rows.start
            best, row_upper, row_lower, gap = _nearest_two(
                _pairwise_sq_dists(points[gathered], centroids,
                                   points_sq[gathered]), eta)
            if np.all(gap > 4.0 * eta):
                labels[gathered] = best
                upper[gathered] = row_upper
                lower[gathered] = row_lower
                continue
        # Every row measured, or a near-tie: the block's canonical product.
        labels[rows], upper[rows], lower[rows], _ = _nearest_two(
            _pairwise_sq_dists(points[rows], centroids, points_sq[rows]), eta)


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

    def _init_plus_plus(self, points: Rows,
                        points_sq: np.ndarray) -> np.ndarray:
        """k-means++ seeding: spread initial centroids by D^2 sampling."""
        n = len(points)
        centroids = np.empty((self.n_clusters, points.shape[1]), dtype=float)
        first = int(self._rng.integers(n))
        centroids[0] = points[first]
        closest_sq = _sq_dists_to(points, centroids[:1], points_sq)
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
            new_sq = _sq_dists_to(points, centroids[i : i + 1], points_sq)
            closest_sq = np.minimum(closest_sq, new_sq)
        return centroids

    # -- fitting -----------------------------------------------------------------

    def fit(self, points: "np.ndarray | Rows") -> "KMeans":
        """Cluster ``points`` (``(n, d)`` finite floats, or :class:`Rows`
        of them); return self.

        A NaN or inf is refused by row index before any work.
        """
        points = _as_rows(points)
        if len(points) < self.n_clusters:
            raise ConfigurationError(
                f"cannot make {self.n_clusters} clusters from {len(points)} points"
            )
        points.check_finite(range(len(points)))
        points_sq = _row_sq_norms(points)
        centroids = self._init_plus_plus(points, points_sq)
        labels = np.zeros(len(points), dtype=np.intp)
        upper = np.full(len(points), np.inf)  # nothing certified yet
        lower = np.zeros(len(points))
        shift = np.zeros(self.n_clusters)
        for sweep in range(self.max_iter):
            _relabel(points, points_sq, centroids, shift, labels, upper, lower)
            counts = np.bincount(labels, minlength=self.n_clusters)
            new_centroids = _cluster_means(points, labels, counts, centroids)
            empty = np.flatnonzero(counts == 0)
            if len(empty):
                # Empty-cluster repair: re-seed at the point with the
                # largest (canonical) distance to its assigned centroid.
                assigned_sq = _assign(points, points_sq, centroids)[1]
                for cluster in empty:
                    farthest = int(np.argmax(assigned_sq))
                    new_centroids[cluster] = points[farthest]
                    assigned_sq[farthest] = 0.0
            movement = float(np.sum((new_centroids - centroids) ** 2))
            shift = _shifts(centroids, new_centroids)
            centroids = new_centroids
            self.n_iter_ = sweep + 1
            if movement <= self.tol:
                break
        del labels, upper, lower  # the final assignment's n-arrays replace them
        self.labels_, assigned_sq = _assign(points, points_sq, centroids)
        self.centroids_ = centroids
        self.inertia_ = float(assigned_sq.sum())
        return self

    def predict(self, points: "np.ndarray | Rows") -> np.ndarray:
        """Assign each row of ``points`` to its nearest learned centroid.

        The rows must be finite and as wide as the centroids.
        """
        if self.centroids_ is None:
            raise NotFittedError("KMeans.predict before fit")
        points = _as_rows(points, self.centroids_.shape[1], "predict")
        points.check_finite(range(len(points)))
        return _assign(points, _row_sq_norms(points), self.centroids_)[0]

    def fit_predict(self, points: "np.ndarray | Rows") -> np.ndarray:
        """Equivalent to ``fit(points).labels_``."""
        return self.fit(points).labels_  # type: ignore[return-value]
