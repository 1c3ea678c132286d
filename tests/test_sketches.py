"""Tests for the pluggable score sketches and sketch-swapped bandits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandit import BanditConfig
from repro.core.engine import EngineConfig, TopKEngine
from repro.core.histogram import AdaptiveHistogram
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.core.sketches import (
    ExactEmpiricalSketch,
    ReservoirSketch,
    ScoreSketch,
)
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError
from repro.scoring.relu import ReluScorer

pos_scores = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1, max_size=80,
)


class TestProtocol:
    def test_histogram_is_virtual_subclass(self):
        assert isinstance(AdaptiveHistogram(), ScoreSketch)

    def test_all_sketches_share_interface(self):
        for sketch in (AdaptiveHistogram(), ReservoirSketch(16),
                       ExactEmpiricalSketch()):
            sketch.add(1.0)
            assert sketch.total_mass > 0
            assert not sketch.is_empty
            assert sketch.expected_marginal_gain(0.5) >= 0.0
            assert sketch.maybe_extend_lowest(10.0) in (True, False)


class TestExactEmpiricalSketch:
    def test_gain_matches_definition(self, rng):
        values = rng.uniform(0, 10, size=500)
        sketch = ExactEmpiricalSketch()
        sketch.add_many(values)
        tau = 6.0
        expected = np.maximum(values - tau, 0.0).mean()
        assert sketch.expected_marginal_gain(tau) == pytest.approx(expected)

    def test_mean_when_no_threshold(self, rng):
        values = rng.uniform(0, 10, size=100)
        sketch = ExactEmpiricalSketch()
        sketch.add_many(values)
        assert sketch.expected_marginal_gain(None) == \
            pytest.approx(values.mean())

    def test_threshold_above_max_zero(self):
        sketch = ExactEmpiricalSketch()
        sketch.add_many([1.0, 2.0])
        assert sketch.expected_marginal_gain(5.0) == 0.0

    def test_subtract_exact(self):
        a = ExactEmpiricalSketch()
        b = ExactEmpiricalSketch()
        a.add_many([1.0, 2.0, 3.0, 2.0])
        b.add_many([2.0, 3.0])
        a.subtract(b)
        assert a.total_mass == 2.0
        assert a.expected_marginal_gain(None) == pytest.approx(1.5)

    def test_subtract_foreign_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ExactEmpiricalSketch().subtract(AdaptiveHistogram())

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ExactEmpiricalSketch().add(-1.0)

    def test_quantile(self, rng):
        sketch = ExactEmpiricalSketch()
        sketch.add_many(np.arange(101, dtype=float))
        assert sketch.quantile(0.5) == pytest.approx(50.0)

    @given(pos_scores, st.floats(min_value=0, max_value=120))
    @settings(max_examples=80)
    def test_gain_is_exact_empirical(self, values, tau):
        sketch = ExactEmpiricalSketch()
        sketch.add_many(values)
        expected = np.maximum(np.asarray(values) - tau, 0.0).mean()
        assert sketch.expected_marginal_gain(tau) == \
            pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestReservoirSketch:
    def test_capacity_respected(self, rng):
        sketch = ReservoirSketch(capacity=32, rng=0)
        sketch.add_many(rng.uniform(0, 1, size=500))
        assert len(sketch.values()) == 32
        assert sketch.total_mass == 500.0

    def test_small_stream_kept_exactly(self):
        sketch = ReservoirSketch(capacity=100, rng=0)
        sketch.add_many([1.0, 2.0, 3.0])
        assert sorted(sketch.values()) == [1.0, 2.0, 3.0]

    def test_unbiased_gain_estimate(self, rng):
        """Reservoir estimate approximates the exact empirical gain."""
        values = rng.exponential(2.0, size=4000)
        exact = ExactEmpiricalSketch()
        exact.add_many(values)
        estimates = []
        for seed in range(10):
            sketch = ReservoirSketch(capacity=256, rng=seed)
            sketch.add_many(values)
            estimates.append(sketch.expected_marginal_gain(3.0))
        assert np.mean(estimates) == pytest.approx(
            exact.expected_marginal_gain(3.0), rel=0.25
        )

    def test_subtract_reduces_mass(self, rng):
        a = ReservoirSketch(capacity=64, rng=0)
        b = ReservoirSketch(capacity=64, rng=1)
        a.add_many(rng.uniform(0, 1, size=100))
        b.add_many(rng.uniform(0, 1, size=40))
        a.subtract(b)
        assert a.total_mass == pytest.approx(60.0)

    def test_subtract_shifts_distribution(self, rng):
        """Removing a low-valued child leaves a higher-valued parent."""
        a = ReservoirSketch(capacity=200, rng=0)
        low = rng.uniform(0, 1, size=100)
        high = rng.uniform(9, 10, size=100)
        a.add_many(np.concatenate([low, high]))
        child = ReservoirSketch(capacity=200, rng=1)
        child.add_many(low)
        before = a.expected_marginal_gain(None)
        a.subtract(child)
        assert a.expected_marginal_gain(None) > before

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            ReservoirSketch(capacity=0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ReservoirSketch().add(-0.5)


class TestSketchSwappedBandits:
    def run_engine(self, sketch_factory):
        dataset = SyntheticClustersDataset.generate(n_clusters=8,
                                                    per_cluster=100, rng=2)
        engine = TopKEngine(
            dataset.true_index(),
            EngineConfig(k=10, seed=0, sketch_factory=sketch_factory),
        )
        return engine.run(dataset, ReluScorer(), budget=300)

    def test_engine_with_reservoir(self):
        result = self.run_engine(lambda: ReservoirSketch(64, rng=0))
        assert len(result.items) == 10
        assert result.stk > 0

    def test_engine_with_exact(self):
        result = self.run_engine(ExactEmpiricalSketch)
        assert len(result.items) == 10

    def test_all_sketches_reach_similar_quality(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=8,
                                                    per_cluster=150, rng=3)
        optimal = sum(sorted(
            (dataset.fetch(i) for i in dataset.ids()), reverse=True
        )[:10])
        for factory in (None, ExactEmpiricalSketch,
                        lambda: ReservoirSketch(128, rng=0)):
            engine = TopKEngine(
                dataset.true_index(),
                EngineConfig(k=10, seed=1, sketch_factory=factory),
            )
            result = engine.run(dataset, ReluScorer(),
                                budget=len(dataset) // 2)
            assert result.stk >= 0.9 * optimal, factory

    @pytest.mark.parametrize("flat", [False, True])
    def test_policy_with_custom_sketch(self, tiny_tree, flat):
        policy = HierarchicalBanditPolicy(
            tiny_tree.flattened() if flat else tiny_tree,
            BanditConfig(sketch_factory=lambda: ReservoirSketch(16, rng=0)),
            rng=0,
        )
        for _ in range(4):  # too few to drain (and so drop) any leaf
            ids = policy.select(1, epsilon=0.5)
            policy.update([float(len(ids))], None)
        sketches = policy.sketches()
        assert len(sketches) == (4 if flat else 5)
        assert all(isinstance(sketch, ReservoirSketch)
                   for sketch in sketches.values())
        assert policy.root_sketch.total_mass == 4
