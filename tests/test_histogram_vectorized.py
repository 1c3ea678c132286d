"""Property tests for the vectorized histogram hot path.

Covers the three satellite guarantees of the vectorization PR:

* ``_overlap_redistribute`` (vectorized) agrees with the retained scalar
  reference on randomized grids, including degenerate zero-width bins, and
  conserves mass whenever the new grid covers the old one;
* the cached gain of a bank row is always equal to a freshly computed value
  after any interleaving of ``add`` / ``add_batch`` /
  ``maybe_extend_lowest`` / ``subtract`` / range extension / threshold
  movement;
* ``gain_batch``, the scalar ``expected_marginal_gain``, and ``add_batch``
  versus sequential ``add`` are exact (bit-level) equivalents.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.histogram import (
    AdaptiveHistogram,
    STALE,
    HistogramBank,
    _overlap_redistribute,
    _overlap_redistribute_scalar,
    gain_batch,
)
from repro.core.sketches import ReservoirSketch


def random_grid(rng, allow_zero_width=True):
    n_old = int(rng.integers(2, 12))
    edges = np.sort(rng.uniform(0.0, 10.0, n_old + 1))
    if allow_zero_width and n_old > 2 and rng.random() < 0.4:
        i = int(rng.integers(1, n_old))
        edges[i] = edges[i - 1]  # degenerate zero-width bin
    counts = rng.uniform(0.0, 5.0, n_old)
    counts[rng.random(n_old) < 0.3] = 0.0
    return edges, counts


class TestOverlapRedistribute:
    @pytest.mark.parametrize("seed", range(50))
    def test_vectorized_agrees_with_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        edges, counts = random_grid(rng)
        n_new = int(rng.integers(2, 12))
        lo = edges[0] - (rng.uniform(0.0, 1.0) if rng.random() < 0.5 else 0.0)
        hi = edges[-1] * rng.uniform(1.0, 1.8) + 1e-9
        new_edges = np.linspace(lo, hi, n_new + 1)
        want = _overlap_redistribute_scalar(edges, counts, new_edges)
        got = _overlap_redistribute(edges, counts, new_edges)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("seed", range(25))
    def test_mass_conserved_when_new_grid_covers_old(self, seed):
        rng = np.random.default_rng(1000 + seed)
        edges, counts = random_grid(rng)
        new_edges = np.linspace(edges[0], edges[-1] * 1.5 + 1.0,
                                int(rng.integers(2, 10)) + 1)
        got = _overlap_redistribute(edges, counts, new_edges)
        assert got.sum() == pytest.approx(counts.sum(), rel=1e-12)
        assert (got >= 0.0).all()

    def test_zero_width_bin_is_point_mass(self):
        edges = np.array([0.0, 1.0, 1.0, 2.0])
        counts = np.array([1.0, 5.0, 2.0])
        new_edges = np.array([0.0, 0.5, 1.5, 2.0])
        got = _overlap_redistribute(edges, counts, new_edges)
        want = _overlap_redistribute_scalar(edges, counts, new_edges)
        np.testing.assert_array_equal(got, want)
        # The 5.0 point mass at value 1.0 lands entirely in bin [0.5, 1.5).
        assert got[1] == pytest.approx(0.5 + 5.0 + 1.0)
        assert got.sum() == pytest.approx(8.0)

    def test_all_zero_counts_stay_zero(self):
        edges = np.linspace(0.0, 1.0, 9)
        got = _overlap_redistribute(edges, np.zeros(8), np.linspace(0, 2, 9))
        assert not got.any()

    def test_histogram_extension_conserves_mass(self):
        h = AdaptiveHistogram(n_bins=8, initial_range=0.1)
        h.add_many([0.01, 0.05, 0.09])
        h.extend_range(5.0)
        assert h.total_mass == pytest.approx(3.0, rel=1e-12)
        assert h.counts.sum() == pytest.approx(3.0, rel=1e-12)

    def test_merge_and_subtract_consistency(self):
        rng = np.random.default_rng(4)
        a = AdaptiveHistogram()
        b = AdaptiveHistogram()
        a.add_batch(rng.uniform(0.0, 3.0, 40))
        b.add_batch(rng.uniform(0.0, 1.5, 25))
        merged = a.copy()
        merged.merge(b)
        assert merged.total_mass == pytest.approx(65.0, rel=1e-12)
        merged.subtract(b)
        # Subtraction clamps at zero, so mass is <= 40 but close.
        assert merged.total_mass <= 65.0
        assert merged.total_mass == pytest.approx(40.0, rel=0.05)


def is_stale(h: AdaptiveHistogram) -> bool:
    """Whether the sketch's bank row awaits a gain refresh."""
    return h._bank.row_gain_at[h._row] is STALE


def fresh_gain(h: AdaptiveHistogram, threshold):
    """Gain recomputed from a cache-free rebuild of the same state."""
    return AdaptiveHistogram.from_dict(h.to_dict()).expected_marginal_gain(
        threshold
    )


class TestGainCache:
    @pytest.mark.parametrize("seed", range(20))
    def test_cache_equals_fresh_value_under_interleavings(self, seed):
        rng = np.random.default_rng(seed)
        h = AdaptiveHistogram(n_bins=6, initial_range=0.5)
        other = AdaptiveHistogram(n_bins=6, initial_range=0.5)
        other.add_batch(rng.uniform(0.0, 2.0, 10))
        threshold = None
        for _ in range(60):
            op = rng.integers(6)
            if op == 0:
                h.add(float(rng.uniform(0.0, 4.0)))
            elif op == 1:
                h.add_batch(rng.uniform(0.0, 4.0, int(rng.integers(1, 9))))
            elif op == 2:
                h.maybe_extend_lowest(threshold)
            elif op == 3:
                h.subtract(other)
            elif op == 4:
                h.extend_range(float(h.max_range * rng.uniform(1.0, 1.5)))
            else:
                # Threshold movement (including back to None).
                threshold = (None if rng.random() < 0.2
                             else float(rng.uniform(0.0, 3.0)))
            got = h.expected_marginal_gain(threshold)
            assert got == fresh_gain(h, threshold), (seed, op, threshold)
            # A second query with the same threshold is served from cache
            # and must be identical.
            assert h.expected_marginal_gain(threshold) == got

    def test_cache_invalidated_by_each_mutator(self):
        h = AdaptiveHistogram()
        h.add_many([0.01, 0.02, 0.05])
        for mutate in (
            lambda: h.add(0.03),
            lambda: h.add_batch([0.01, 0.06]),
            lambda: h.extend_range(h.max_range * 2),
            lambda: h.subtract(h.copy()),
        ):
            h.expected_marginal_gain(0.01)
            assert not is_stale(h)
            mutate()
            assert is_stale(h)
            assert h.expected_marginal_gain(0.01) == fresh_gain(h, 0.01)

    def test_rebin_invalidates_cache(self):
        h = AdaptiveHistogram(n_bins=8, initial_range=1.0)
        h.add_many(np.linspace(0.0, 0.99, 20))
        h.expected_marginal_gain(0.5)
        assert h.maybe_extend_lowest(0.5)  # threshold above second border
        assert is_stale(h)
        assert h.expected_marginal_gain(0.5) == fresh_gain(h, 0.5)

    def test_threshold_movement_misses_cache(self):
        h = AdaptiveHistogram()
        h.add_many([0.01, 0.04, 0.08])
        g1 = h.expected_marginal_gain(0.02)
        g2 = h.expected_marginal_gain(0.05)
        assert g1 != g2
        assert h.expected_marginal_gain(0.02) == fresh_gain(h, 0.02)
        assert h.expected_marginal_gain(None) == fresh_gain(h, None)


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("seed", range(15))
    def test_gain_batch_matches_scalar_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        bank = HistogramBank(12)
        hists = [bank.row(row) for row in range(12)]
        for h in hists:
            if rng.random() < 0.8:
                h.add_batch(rng.uniform(0.0, 3.0, int(rng.integers(1, 30))))
        for threshold in (None, 0.0, float(rng.uniform(0.0, 3.0)), 10.0):
            batched = gain_batch(hists, threshold)
            for h, got in zip(hists, batched):
                bank.row_gain_at[h._row] = STALE  # force a one-row recompute
                assert h.expected_marginal_gain(threshold) == got
                assert fresh_gain(h, threshold) == got

    def test_gain_batch_heterogeneous_fallback(self):
        reservoir = ReservoirSketch(capacity=16, rng=0)
        for v in (0.1, 0.9, 2.0):
            reservoir.add(v)
        h = AdaptiveHistogram()
        h.add_many([0.5, 1.5])
        got = gain_batch([reservoir, h], 0.4)
        assert got[0] == reservoir.expected_marginal_gain(0.4)
        assert got[1] == h.expected_marginal_gain(0.4)

    @pytest.mark.parametrize("seed", range(15))
    def test_add_batch_equals_sequential_adds(self, seed):
        rng = np.random.default_rng(100 + seed)
        values = rng.gamma(1.5, 1.0, int(rng.integers(1, 100)))
        batched = AdaptiveHistogram()
        sequential = AdaptiveHistogram()
        batched.add_batch(values)
        for v in values:
            sequential.add(float(v))
        np.testing.assert_array_equal(batched.edges, sequential.edges)
        np.testing.assert_array_equal(batched.counts, sequential.counts)
        assert batched.total_mass == sequential.total_mass
        assert batched.n_extensions == sequential.n_extensions

    def test_add_batch_rejects_negative(self):
        from repro.errors import ConfigurationError

        h = AdaptiveHistogram()
        with pytest.raises(ConfigurationError):
            h.add_batch([0.5, -0.1, 1.0])

    def test_add_batch_tolerates_nan_like_scalar_add(self):
        """NaN must not hang the batch loop; it bins like the scalar path."""
        batched = AdaptiveHistogram(n_bins=8, initial_range=1.0)
        sequential = AdaptiveHistogram(n_bins=8, initial_range=1.0)
        values = [0.5, float("nan"), 0.7, 3.0, float("nan")]
        batched.add_batch(values)
        for v in values:
            sequential.add(v)
        np.testing.assert_array_equal(batched.edges, sequential.edges)
        np.testing.assert_array_equal(batched.counts, sequential.counts)

    def test_add_batch_accepts_generators(self):
        """The ScoreSketch contract is Iterable, not Sequence."""
        h = AdaptiveHistogram()
        h.add_batch(v for v in (0.1, 0.5, 0.9))
        assert h.total_mass == 3.0
        h.add_batch(iter([0.2]))
        assert h.total_mass == 4.0

    def test_total_mass_tracks_counts(self):
        rng = np.random.default_rng(7)
        h = AdaptiveHistogram()
        h.add_batch(rng.uniform(0.0, 5.0, 200))
        h.maybe_extend_lowest(2.0)
        h.extend_range(9.0)
        assert h.total_mass == pytest.approx(float(h.counts.sum()), rel=1e-12)
