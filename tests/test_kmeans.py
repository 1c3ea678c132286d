"""Tests for the from-scratch k-means implementation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.index.kmeans as kmeans_module
from repro.errors import ConfigurationError, NotFittedError
from repro.index.builder import IndexConfig, build_index
from repro.index.kmeans import (BLOCK_ROWS, KMeans, Rows, _assign, _margin,
                                _pairwise_sq_dists, _row_sq_norms, _shifts,
                                rows_by_label)


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


NOT_ROW_BLOCK_INVARIANT = (
    "assigning in row blocks moved a float: this BLAS does not compute each "
    "row of a GEMM independently of how many rows are in the call, so the "
    "blocked Lloyd sweeps build other trees than the whole-matrix ones and "
    "no golden file of this repository reproduces on it")


class TestBlockedAssignment:
    """The block loop against the whole ``(n, L)`` matrix it never builds.

    One centroid goes through GEMV, whose whole-column floats depend on
    the BLAS thread count once ``n x d`` passes ~500k (in blocks they
    never do): those shapes stay below it here.
    """

    def _check(self, points, centroids):
        whole = _pairwise_sq_dists(points, centroids)
        labels, assigned_sq = _assign(points, _row_sq_norms(points),
                                      centroids)
        want = np.argmin(whole, axis=1)
        assert labels.dtype == want.dtype
        assert np.array_equal(labels, want), NOT_ROW_BLOCK_INVARIANT
        assert np.array_equal(assigned_sq,
                              whole[np.arange(len(points)), want]
                              ), NOT_ROW_BLOCK_INVARIANT

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 23, 50])
    @pytest.mark.parametrize("n_centroids,dim", [(1, 3), (1, 17), (5, 1),
                                                 (9, 4), (3, 40)])
    def test_small_blocks_cross_a_table_many_times(self, rng, monkeypatch,
                                                   n, n_centroids, dim):
        # 8, not 7: blocks must start where the BLAS kernels' row
        # unrolling does (BLOCK_ROWS is a power of two for that reason).
        monkeypatch.setattr(kmeans_module, "BLOCK_ROWS", 8)
        points = rng.normal(size=(n, dim)) * 1e3
        self._check(points, rng.normal(size=(n_centroids, dim)) * 1e3)

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   BLOCK_ROWS + 10, 2 * BLOCK_ROWS + 10,
                                   3 * BLOCK_ROWS + 777])
    @pytest.mark.parametrize("n_centroids,dim", [(1, 8), (7, 1), (32, 8),
                                                 (2, 64), (64, 64)])
    def test_at_the_real_block_size(self, rng, n, n_centroids, dim):
        points = rng.normal(size=(n, dim))
        points.flags.writeable = False  # a live snapshot's shared block
        self._check(points, rng.normal(size=(n_centroids, dim)))

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 15, 16, 17, 24, 31, 50])
    def test_no_block_is_a_short_product(self, monkeypatch, n):
        """A one-row product is numpy's GEMV and a few-row one OpenBLAS's
        small-matrix GEMM on AVX-512 cores (rows x L <= 1200, d >= 32):
        other kernels, other floats.  The remainder rides with the last
        block instead."""
        monkeypatch.setattr(kmeans_module, "BLOCK_ROWS", 8)
        blocks = list(kmeans_module._row_blocks(n))
        assert [b.start for b in blocks] == list(range(0, max(n - 7, 1), 8))
        assert [b.stop for b in blocks[:-1]] == [b.start for b in blocks[1:]]
        assert blocks[-1].stop == n
        if n >= 8:
            assert all(8 <= b.stop - b.start < 16 for b in blocks)

    def test_row_norms_are_the_whole_column(self, rng, monkeypatch):
        points = rng.normal(size=(50, 5)) * 1e3
        monkeypatch.setattr(kmeans_module, "BLOCK_ROWS", 8)
        assert np.array_equal(_row_sq_norms(points),
                              np.sum(points**2, axis=1))

    def test_fit_does_not_depend_on_the_block_size(self, rng, monkeypatch):
        points = rng.normal(size=(300, 4))
        whole = KMeans(6, rng=3).fit(points)
        monkeypatch.setattr(kmeans_module, "BLOCK_ROWS", 8)
        blocked = KMeans(6, rng=3).fit(points)
        assert np.array_equal(blocked.centroids_, whole.centroids_)
        assert np.array_equal(blocked.labels_, whole.labels_)
        assert blocked.inertia_ == whole.inertia_
        assert blocked.n_iter_ == whole.n_iter_
        assert np.array_equal(blocked.predict(points), whole.predict(points))


class TestRowsInPlace:
    """A fit over ``Rows(block, index)`` is the fit over ``block[index]``
    bit for bit, without that copy: how a live table's churn rebuild reads
    its snapshot (dead rows left in the block, live ones in any order)."""

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_fit_and_predict_are_the_gathered_matrix(self, rng, monkeypatch,
                                                     dim):
        monkeypatch.setattr(kmeans_module, "BLOCK_ROWS", 64)
        block = (rng.normal(size=(1_500, dim))
                 + 4.0 * rng.integers(5, size=(1_500, 1)))
        index = rng.permutation(1_500)[:1_000]
        gathered = KMeans(7, max_iter=20, rng=3).fit(block[index])
        in_place = KMeans(7, max_iter=20, rng=3).fit(Rows(block, index))
        assert in_place.centroids_.tobytes() == gathered.centroids_.tobytes()
        assert np.array_equal(in_place.labels_, gathered.labels_)
        assert float.hex(in_place.inertia_) == float.hex(gathered.inertia_)
        assert in_place.n_iter_ == gathered.n_iter_
        assert (in_place._rng.integers(2**62)
                == gathered._rng.integers(2**62))
        backwards = index[::-1]
        assert np.array_equal(in_place.predict(Rows(block, backwards)),
                              gathered.predict(block[backwards]))

    def test_a_non_finite_row_is_named_by_its_position(self, rng):
        block = rng.normal(size=(50, 3))
        block[7, 2] = np.nan
        with pytest.raises(ConfigurationError, match="element 1 has"):
            KMeans(2, rng=0).fit(Rows(block, np.array([3, 7, 9, 11])))


class TestRowsByLabel:
    def test_each_group_is_the_mask_in_row_order(self, rng):
        labels = rng.integers(0, 9, size=500)
        labels[labels == 4] = 5  # an empty group in the middle
        groups = rows_by_label(labels, 9)
        assert len(groups) == 9
        for label, rows in enumerate(groups):
            assert np.array_equal(rows, np.flatnonzero(labels == label))

    def test_more_labels_than_sixteen_bits(self, rng):
        labels = rng.integers(0, 70_000, size=300)
        groups = rows_by_label(labels, 70_000)
        assert len(groups) == 70_000
        for label in (int(labels[0]), int(labels.max()), 69_999):
            assert np.array_equal(groups[label],
                                  np.flatnonzero(labels == label))

    @pytest.mark.parametrize("flat", [False, True])
    def test_leaf_members_are_in_ascending_row_order(self, rng, flat):
        """The centroid means and every seeded draw downstream read
        members in this order; the id grouping must preserve it."""
        features = rng.normal(size=(3_000, 4))
        ids = [f"e{row}" for row in range(len(features))]
        tree = build_index(features, ids,
                           IndexConfig(n_clusters=9, flat=flat), rng=1)
        assert tree.n_elements() == len(ids)
        for leaf in tree.leaves():
            rows = [int(member[1:]) for member in leaf.member_ids]
            assert rows == sorted(rows)
            assert all(type(member) is str for member in leaf.member_ids)


class TestWorkingMemory:
    """Structural, no clock: a build's high-water mark was five (n, L)
    temporaries per distance evaluation (128 MB at 100k x 32), then two,
    and a churn rebuild put them on top of a serving process's resident
    set.  A fit or a predict now holds blocks of the matrix, never it."""

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
        # The (n, L) result and the (n,) norms; it was >= 3 matrices.
        assert peak < 1.1 * self.MATRIX

    def _fit_and_predict_peaks(self, points, n_clusters):
        model = KMeans(n_clusters, max_iter=4, rng=0)
        return (self._peak(lambda: model.fit(points)),
                self._peak(lambda: model.predict(points)))

    def test_fit_and_predict_stay_below_one_matrix(self, rng):
        """Tightens the pin this replaces (a fit < 2.6 matrices): they
        measure 0.39 and 0.29 of one, all of it O(block x L + n)."""
        points = rng.normal(size=(self.N, self.DIM))
        fit, predict = self._fit_and_predict_peaks(points, self.L)
        assert fit < 0.6 * self.MATRIX
        assert predict < 0.6 * self.MATRIX

    def test_a_fit_over_rows_holds_blocks_of_them_not_them(self, rng):
        """At d = 64 the rows are 10 MB; a fit over ``Rows(block, index)``
        holds a few n-columns and one block of gathered rows."""
        n, dim = 20_000, 64
        block = rng.normal(size=(n + 5_000, dim))
        index = rng.permutation(n + 5_000)[:n]
        model = KMeans(8, max_iter=3, rng=0)
        peak = self._peak(lambda: model.fit(Rows(block, index)))
        assert peak < 0.3 * n * dim * 8

    def test_doubling_the_clusters_adds_blocks_not_a_matrix(self, rng):
        points = rng.normal(size=(self.N, self.DIM))
        fit, predict = self._fit_and_predict_peaks(points, self.L)
        fit_2l, predict_2l = self._fit_and_predict_peaks(points, 2 * self.L)
        # The one live block (the last, 3 616 rows) grows by 0.9 MB; a
        # whole matrix would add 5.1 MB.
        assert fit_2l - fit < 1.5e6
        assert predict_2l - predict < 1.5e6


def lloyd_before_certified_labels(model, points):
    """``KMeans.fit`` as it stood before sweeps skipped certified rows,
    verbatim: every sweep is one canonical :func:`_assign`, every centroid
    the mean over one group of a stable label sort.  The oracle the fit
    must reproduce bit for bit."""
    points = np.asarray(points, dtype=float)
    points_sq = _row_sq_norms(points)
    centroids = model._init_plus_plus(points, points_sq)
    for sweep in range(model.max_iter):
        labels, assigned_sq = _assign(points, points_sq, centroids)
        groups = rows_by_label(labels, model.n_clusters)
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
        model.n_iter_ = sweep + 1
        if movement <= model.tol:
            break
    model.labels_, assigned_sq = _assign(points, points_sq, centroids)
    model.centroids_ = centroids
    model.inertia_ = float(assigned_sq.sum())
    return model


def assert_same_fit(points, n_clusters, max_iter, seed):
    fit = KMeans(n_clusters, max_iter=max_iter, rng=seed).fit(points)
    want = lloyd_before_certified_labels(
        KMeans(n_clusters, max_iter=max_iter, rng=seed), points)
    assert fit.centroids_.tobytes() == want.centroids_.tobytes()
    assert np.array_equal(fit.labels_, want.labels_)
    assert float.hex(fit.inertia_) == float.hex(want.inertia_)
    assert fit.n_iter_ == want.n_iter_
    # The same RNG stream consumed: the next draw agrees.
    assert fit._rng.integers(2**62) == want._rng.integers(2**62)


def fit_table(kind, n, dim, seed):
    """A seeded table of one of the shapes the bounds must survive."""
    rng = np.random.default_rng(seed)
    if kind == "mixture":  # at a random scale: eta follows R
        scale = 10.0 ** rng.integers(-3, 4)
        centres = rng.normal(scale=6.0, size=(9, dim))
        return scale * (centres[rng.integers(9, size=n)]
                        + rng.normal(size=(n, dim)))
    if kind == "duplicates":  # fewer distinct rows than clusters: repairs
        distinct = rng.normal(size=(int(rng.integers(1, 6)), dim))
        return distinct[rng.integers(len(distinct), size=n)]
    # An integer grid: rows exactly equidistant from two centroids, and
    # some zero coordinates stored as -0.0.
    grid = rng.integers(-3, 4, size=(n, dim)).astype(float)
    return np.where((grid == 0) & (rng.random((n, dim)) < 0.5), -0.0, grid)


class TestCertifiedSweeps:
    """Skipping the rows whose label is certified changes no float.

    The bounds only decide which rows a sweep re-measures; every label is
    the canonical ``argmin`` of the whole-table product, every centroid
    the mean ``mean(axis=0)`` takes, so the fit is the loop it replaced.
    """

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["mixture", "duplicates", "grid"]),
           dim=st.sampled_from([1, 2, 3, 8, 64]),
           n_clusters=st.sampled_from([1, 2, 7, 32, 64]),
           n=st.one_of(st.integers(1, 300),
                       st.sampled_from([2047, 2049, 4095, 4097])),
           max_iter=st.sampled_from([1, 3, 30]),
           seed=st.integers(0, 2**32 - 1))
    def test_fit_is_the_loop_it_replaced(self, kind, dim, n_clusters, n,
                                         max_iter, seed):
        n = max(n, n_clusters)
        assert_same_fit(fit_table(kind, n, dim, seed), n_clusters, max_iter,
                        seed)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3, 8]),
           exponent=st.integers(-200, 200),
           offset=st.sampled_from([0.0, 1e-8, 1e-3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_eta_bounds_the_evaluation_error(self, dim, exponent, offset,
                                             seed):
        """Against exact rational arithmetic, at any scale and with the
        cancellation of rows right beside a centroid: one evaluation is
        within ``eta`` of ``|x - c|**2`` and a shift bound is at least the
        exact move."""
        from fractions import Fraction

        rng = np.random.default_rng(seed)
        scale = 2.0 ** exponent
        centroids = rng.normal(size=(3, dim)) * scale
        points = np.vstack([centroids + offset * scale
                            * rng.normal(size=(3, dim)),
                            rng.normal(size=(5, dim)) * scale])
        eta = Fraction(_margin(float(np.max(_row_sq_norms(points))),
                               centroids))
        got = _pairwise_sq_dists(points, centroids)
        for i, row in enumerate(points):
            for j, centre in enumerate(centroids):
                exact = sum((Fraction(a) - Fraction(b)) ** 2
                            for a, b in zip(row, centre))
                assert abs(Fraction(got[i, j]) - exact) <= eta
        moved = centroids + rng.normal(size=(3, dim)) * scale * offset
        for bound, old, new in zip(_shifts(centroids, moved), centroids,
                                   moved):
            exact_sq = sum((Fraction(a) - Fraction(b)) ** 2
                           for a, b in zip(new, old))
            assert Fraction(bound) ** 2 >= exact_sq

    def _measured_rows(self, monkeypatch, points, n_clusters, max_iter,
                       init=None):
        """Rows handed to ``_pairwise_sq_dists`` per call, per sweep."""
        sweeps = []
        relabel = kmeans_module._relabel
        measure = kmeans_module._pairwise_sq_dists

        def each_sweep(*args):
            sweeps.append([])
            return relabel(*args)

        def counted(points, centroids, points_sq=None):
            if sweeps:
                sweeps[-1].append(len(points))
            return measure(points, centroids, points_sq)

        monkeypatch.setattr(kmeans_module, "_relabel", each_sweep)
        monkeypatch.setattr(kmeans_module, "_pairwise_sq_dists", counted)
        if init is not None:
            monkeypatch.setattr(KMeans, "_init_plus_plus",
                                lambda self, points, points_sq: init.copy())
        model = KMeans(n_clusters, max_iter=max_iter, rng=0).fit(points)
        sweeps[-1] = sweeps[-1][:-len(list(
            kmeans_module._row_blocks(len(points))))]  # the final _assign
        return model, sweeps

    def test_later_sweeps_measure_a_tenth_of_a_mix_table(self, monkeypatch):
        """A 20 000-row table shaped like the benchmark's ``mix`` (20
        Gaussian clusters along one axis, d = 8, L = 32, 32 sweeps).
        Sweeps 0 and 1 measure (nearly) every row, sweep 2 59 %; from
        sweep 8 on a sweep measures 3-20 % of the rows, 12 % on average,
        where the sweeps this replaced measured them all.  None needs the
        canonical fallback: each block of the table is measured by at most
        one call a sweep."""
        rng = np.random.default_rng(20250613)
        rank = np.arange(20)
        centres = np.zeros((20, 8))
        centres[:, 0] = 8.0 * (rank + 0.35 * (rank // 2) + 0.7 * (rank // 4)
                               + 1.4 * (rank // 8) + 2.8 * (rank // 16))
        points = centres[np.arange(20_000) % 20] + rng.normal(
            size=(20_000, 8))
        model, sweeps = self._measured_rows(monkeypatch, points, 32, 32)
        assert model.n_iter_ == 32 == len(sweeps)
        shares = [sum(calls) / len(points) for calls in sweeps]
        assert shares[0] == 1.0
        assert max(shares[8:]) <= 0.21, shares
        assert sum(shares[8:]) / len(shares[8:]) <= 0.13, shares
        n_blocks = len(list(kmeans_module._row_blocks(len(points))))
        assert all(len(calls) <= n_blocks for calls in sweeps)

    def test_an_exact_tie_takes_the_canonical_fallback(self, monkeypatch):
        """Rows at the origin lie exactly between centroids (-1, 0) and
        (1, 0) — the fixed point the fit reaches from the seeds below in
        one sweep.  In sweep 1 every other row is certified, the tied rows
        are gathered (25 rows), their best two distances are equal, and
        the block's canonical product (100 rows) gives them the first
        centroid, as ``argmin`` over the whole matrix does."""
        points = np.repeat([[-2.0, 0.0], [0.0, 0.0], [1.0, 1.0],
                            [1.0, -1.0]], 25, axis=0)
        init = np.array([[-1.0, 0.0], [1.0, 0.5]])
        model, sweeps = self._measured_rows(monkeypatch, points, 2, 10,
                                            init=init)
        assert sweeps == [[100], [25, 100]]
        assert model.n_iter_ == 2
        assert model.centroids_.tolist() == [[-1.0, 0.0], [1.0, 0.0]]
        assert model.labels_.tolist() == [0] * 50 + [1] * 50
        assert_same_fit(points, 2, 10, seed=0)  # from the same seeds


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_refuses_a_non_finite_row_by_index(self, rng, bad):
        """It used to die inside k-means++ with numpy's "Probabilities
        contain NaN" (or cluster an inf row)."""
        points = rng.normal(size=(40, 3))
        points[17, 1] = bad
        with pytest.raises(ConfigurationError, match="element 17 has"):
            KMeans(3, rng=0).fit(points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_predict_refuses_a_non_finite_row(self, rng, bad):
        """``predict([[nan, 0, 0]])`` used to return label 0."""
        model = KMeans(2, rng=0).fit(rng.normal(size=(30, 3)))
        with pytest.raises(ConfigurationError, match="element 0 has"):
            model.predict([[bad, 0.0, 0.0]])

    @pytest.mark.parametrize("shape", [(4, 2), (4, 5), (3,), (2, 3, 1)])
    def test_predict_refuses_another_width(self, rng, shape):
        """Used to surface as a raw ``matmul`` error."""
        model = KMeans(2, rng=0).fit(rng.normal(size=(30, 3)))
        with pytest.raises(ConfigurationError, match=r"\(n, 3\) matrix"):
            model.predict(np.zeros(shape))

    def test_predict_takes_no_rows(self, rng):
        model = KMeans(2, rng=0).fit(rng.normal(size=(30, 3)))
        assert model.predict(np.zeros((0, 3))).shape == (0,)


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
