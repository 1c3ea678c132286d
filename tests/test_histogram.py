"""Tests for the adaptive histogram sketch (Section 3.2.4, Figure 3)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import AdaptiveHistogram, _overlap_redistribute
from repro.errors import ConfigurationError, SerializationError

pos_scores = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                       allow_infinity=False)


def make_hist(**kwargs) -> AdaptiveHistogram:
    defaults = dict(n_bins=8, initial_range=0.1, beta=1.1)
    defaults.update(kwargs)
    return AdaptiveHistogram(**defaults)


def sketch_mean(hist: AdaptiveHistogram) -> float:
    """Mean of a non-empty sketch under the uniform-in-bin value model."""
    mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
    return float(np.dot(hist.counts / hist.total_mass, mids))


class TestConstruction:
    def test_paper_defaults_shape(self):
        hist = make_hist()
        assert hist.n_bins == 8
        assert hist.edges[0] == 0.0
        assert hist.max_range == pytest.approx(0.1)
        assert hist.total_mass == 0.0
        assert hist.is_empty

    def test_invalid_bins(self):
        with pytest.raises(ConfigurationError):
            AdaptiveHistogram(n_bins=1)

    def test_invalid_beta(self):
        with pytest.raises(ConfigurationError):
            AdaptiveHistogram(beta=2.5)
        with pytest.raises(ConfigurationError):
            AdaptiveHistogram(beta=0.9)

    def test_invalid_range(self):
        with pytest.raises(ConfigurationError):
            AdaptiveHistogram(initial_range=0.0)


class TestAdd:
    def test_in_range_add(self):
        hist = make_hist(initial_range=8.0)
        hist.add(0.5)
        assert hist.total_mass == 1.0
        assert hist.counts[0] == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            make_hist().add(-0.1)

    def test_overflow_triggers_extension(self):
        hist = make_hist()
        hist.add(1.0)  # far above alpha = 0.1
        assert hist.max_range == pytest.approx(1.1)
        assert hist.n_extensions == 1
        assert hist.total_mass == 1.0

    def test_boundary_value_lands_in_top_bin(self):
        hist = make_hist(initial_range=1.0)
        hist.add(1.0)
        assert hist.counts[-1] == 1.0

    def test_add_many(self):
        hist = make_hist(initial_range=10.0)
        hist.add_many([1.0, 2.0, 3.0])
        assert hist.total_mass == 3.0


class TestRangeExtension:
    def test_mass_conserved(self, rng):
        hist = make_hist(initial_range=1.0)
        hist.add_many(rng.uniform(0, 1, size=100))
        before = hist.total_mass
        hist.extend_range(10.0)
        assert hist.total_mass == pytest.approx(before)
        assert hist.max_range == pytest.approx(10.0)

    def test_noop_for_smaller_range(self):
        hist = make_hist(initial_range=5.0)
        hist.extend_range(2.0)
        assert hist.max_range == pytest.approx(5.0)

    def test_mean_approximately_preserved(self, rng):
        hist = make_hist(initial_range=1.0)
        values = rng.uniform(0, 1, size=2000)
        hist.add_many(values)
        before = sketch_mean(hist)
        hist.extend_range(4.0)
        # Uniform-value re-binning shifts the mean by at most one bin width.
        assert sketch_mean(hist) == pytest.approx(before, abs=4.0 / 8)

    @given(st.lists(pos_scores, min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_mass_equals_sample_count(self, values):
        hist = make_hist()
        hist.add_many(values)
        assert hist.total_mass == pytest.approx(len(values))


class TestLowestBinExtension:
    def test_triggers_when_threshold_passes_second_border(self, rng):
        hist = make_hist(initial_range=8.0)
        hist.add_many(rng.uniform(0, 8, size=200))
        before = hist.total_mass
        second_border = hist.edges[2]
        assert hist.maybe_extend_lowest(second_border + 0.01)
        assert hist.n_rebins == 1
        assert hist.total_mass == pytest.approx(before)
        assert len(hist.counts) == hist.n_bins
        assert len(hist.edges) == hist.n_bins + 1

    def test_no_trigger_below_border(self):
        hist = make_hist(initial_range=8.0)
        hist.add(4.0)
        assert not hist.maybe_extend_lowest(hist.edges[2] - 1e-9)
        assert hist.n_rebins == 0

    def test_no_trigger_without_threshold(self):
        hist = make_hist()
        assert not hist.maybe_extend_lowest(None)

    def test_lowest_bin_widens(self):
        hist = make_hist(initial_range=8.0)
        first_width = hist.edges[1] - hist.edges[0]
        hist.maybe_extend_lowest(hist.edges[2] + 0.01)
        assert hist.edges[1] - hist.edges[0] > first_width

    def test_edges_stay_sorted_after_many_rebins(self, rng):
        hist = make_hist(initial_range=8.0)
        hist.add_many(rng.uniform(0, 8, size=100))
        for _ in range(20):
            hist.maybe_extend_lowest(float(hist.edges[2]) + 0.01)
        assert (np.diff(hist.edges) > 0).all()

    @given(st.lists(pos_scores, min_size=5, max_size=60),
           st.floats(min_value=0.01, max_value=1e4))
    @settings(max_examples=100)
    def test_mass_conserved_property(self, values, threshold):
        hist = make_hist()
        hist.add_many(values)
        before = hist.total_mass
        hist.maybe_extend_lowest(threshold)
        assert hist.total_mass == pytest.approx(before, rel=1e-9)


class TestSubtraction:
    def test_full_subtraction_empties(self, rng):
        parent = make_hist(initial_range=4.0)
        child = make_hist(initial_range=4.0)
        values = rng.uniform(0, 4, size=50)
        parent.add_many(values)
        child.add_many(values)
        parent.subtract(child)
        assert parent.total_mass == pytest.approx(0.0, abs=1e-9)

    def test_partial_subtraction(self, rng):
        parent = make_hist(initial_range=4.0)
        child = make_hist(initial_range=4.0)
        both = rng.uniform(0, 4, size=30)
        extra = rng.uniform(0, 4, size=20)
        parent.add_many(np.concatenate([both, extra]))
        child.add_many(both)
        parent.subtract(child)
        assert parent.total_mass == pytest.approx(20.0, abs=1e-6)

    def test_clamps_negative_counts(self):
        parent = make_hist(initial_range=4.0)
        child = make_hist(initial_range=4.0)
        child.add_many([1.0, 1.0, 1.0])
        parent.add(3.5)
        parent.subtract(child)
        assert (parent.counts >= 0.0).all()

    def test_different_grids(self, rng):
        parent = make_hist(initial_range=8.0)
        child = make_hist(initial_range=2.0)
        parent.add_many(rng.uniform(0, 2, size=40))
        child.add_many(rng.uniform(0, 2, size=40))
        parent.subtract(child)
        assert (parent.counts >= 0.0).all()
        assert parent.total_mass <= 40.0 + 1e-9

    def test_subtract_empty_noop(self):
        parent = make_hist(initial_range=4.0)
        parent.add(1.0)
        parent.subtract(make_hist(initial_range=4.0))
        assert parent.total_mass == 1.0


class TestExpectedMarginalGain:
    def test_empty_sketch_zero(self):
        assert make_hist().expected_marginal_gain(1.0) == 0.0

    def test_none_threshold_is_mean(self, rng):
        hist = make_hist(initial_range=10.0)
        hist.add_many(rng.uniform(0, 10, size=500))
        assert hist.expected_marginal_gain(None) == pytest.approx(
            sketch_mean(hist)
        )

    def test_threshold_above_range_zero(self, rng):
        hist = make_hist(initial_range=10.0)
        hist.add_many(rng.uniform(0, 10, size=100))
        assert hist.expected_marginal_gain(11.0) == 0.0

    def test_threshold_below_range_equals_mean_minus_threshold(self, rng):
        hist = make_hist(initial_range=10.0)
        hist.add_many(rng.uniform(5, 10, size=100))
        gain = hist.expected_marginal_gain(0.0)
        assert gain == pytest.approx(sketch_mean(hist), rel=1e-9)

    def test_closed_form_matches_monte_carlo(self, rng):
        """E[max(X - tau, 0)] under the uniform-in-bin model."""
        hist = make_hist(n_bins=4, initial_range=8.0)
        hist.add_many(rng.uniform(0, 8, size=5000))
        tau = 5.3
        # Monte-Carlo from the sketch's own uniform-value model.
        total = hist.total_mass
        samples = []
        for i in range(hist.n_bins):
            count = int(hist.counts[i])
            samples.append(rng.uniform(hist.edges[i], hist.edges[i + 1],
                                       size=count * 20))
        pool = np.concatenate(samples)
        expected = np.maximum(pool - tau, 0.0).mean()
        assert hist.expected_marginal_gain(tau) == pytest.approx(
            expected, rel=0.1
        )

    def test_monotone_in_threshold(self, rng):
        hist = make_hist(initial_range=10.0)
        hist.add_many(rng.uniform(0, 10, size=300))
        gains = [hist.expected_marginal_gain(t) for t in np.linspace(0, 11, 23)]
        assert all(gains[i] >= gains[i + 1] - 1e-12 for i in range(len(gains) - 1))

    def test_fat_tail_beats_thin_tail_despite_lower_mean(self, rng):
        """The Section 2's key behaviour: prefer fat tails near the threshold."""
        thin = make_hist(initial_range=10.0)
        fat = make_hist(initial_range=10.0)
        thin.add_many(np.clip(rng.normal(6.0, 0.1, size=2000), 0, 10))
        fat.add_many(np.clip(rng.normal(5.0, 3.0, size=2000), 0, 10))
        tau = 7.0
        assert fat.expected_marginal_gain(tau) > thin.expected_marginal_gain(tau)


class TestTailMass:
    def test_half_mass_above_midpoint(self, rng):
        hist = make_hist(initial_range=10.0)
        hist.add_many(rng.uniform(0, 10, size=4000))
        assert hist.tail_mass(5.0) == pytest.approx(0.5, abs=0.05)

    def test_zero_above_range(self):
        hist = make_hist(initial_range=1.0)
        hist.add(0.5)
        assert hist.tail_mass(2.0) == 0.0

    def test_one_below_range(self):
        hist = make_hist(initial_range=1.0)
        hist.add(0.5)
        assert hist.tail_mass(0.0) == pytest.approx(1.0)


class TestSerialization:
    def test_roundtrip(self, rng):
        hist = make_hist(initial_range=3.0)
        hist.add_many(rng.uniform(0, 6, size=50))
        payload = json.loads(json.dumps(hist.to_dict()))
        clone = AdaptiveHistogram.from_dict(payload)
        assert np.allclose(clone.edges, hist.edges)
        assert np.allclose(clone.counts, hist.counts)
        assert clone.n_bins == hist.n_bins
        assert clone.beta == hist.beta

    def test_malformed_rejected(self):
        with pytest.raises(SerializationError):
            AdaptiveHistogram.from_dict({"edges": [0, 1]})

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(SerializationError):
            AdaptiveHistogram.from_dict(
                {"n_bins": 3, "beta": 1.1, "edges": [0, 1], "counts": [1, 2, 3]}
            )


class TestCopy:
    def test_copy_is_independent(self):
        hist = make_hist(initial_range=2.0)
        hist.add(1.0)
        clone = hist.copy()
        clone.add(1.5)
        assert hist.total_mass == 1.0
        assert clone.total_mass == 2.0


class TestOverlapRedistribute:
    def test_identity_grid(self):
        edges = np.array([0.0, 1.0, 2.0])
        counts = np.array([3.0, 5.0])
        out = _overlap_redistribute(edges, counts, edges)
        assert np.allclose(out, counts)

    def test_split_in_half(self):
        old_edges = np.array([0.0, 2.0])
        counts = np.array([10.0])
        new_edges = np.array([0.0, 1.0, 2.0])
        out = _overlap_redistribute(old_edges, counts, new_edges)
        assert np.allclose(out, [5.0, 5.0])

    def test_point_mass_zero_width_bin(self):
        old_edges = np.array([1.0, 1.0])
        counts = np.array([4.0])
        new_edges = np.array([0.0, 2.0, 4.0])
        out = _overlap_redistribute(old_edges, counts, new_edges)
        assert sum(out) == pytest.approx(4.0)

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
                    min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_mass_conserved_onto_covering_grid(self, values):
        hist = make_hist(initial_range=101.0)
        hist.add_many(values)
        new_edges = np.linspace(0.0, 101.0, 17)
        out = _overlap_redistribute(hist.edges, hist.counts, new_edges)
        assert sum(out) == pytest.approx(hist.total_mass, rel=1e-9)
