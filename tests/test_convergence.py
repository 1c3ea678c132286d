"""Tests for the confidence-bounded convergence layer.

Covers: :class:`TailSummary` survival evaluation (linear histogram and
step empirical kinds, JSON round-trip), :class:`ConvergenceBound`'s
adversarial budget allocation and running-minimum semantics, the sketch
``survival_curve`` / ``tail_mass`` implementations, the tails shipped
inside :class:`RoundOutcome`, the ``confidence`` early stop and bound
monotonicity on the streaming engine, and the round (sharded) engine's
final-answer displacement bound.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.convergence import (
    ConvergenceBound,
    TailSummary,
    check_confidence,
    tail_summary_from_engine,
)
from repro.core.histogram import AdaptiveHistogram
from repro.core.sketches import (
    EquiDepthSketch,
    ExactEmpiricalSketch,
    ReservoirSketch,
)
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError
from repro.parallel import ShardedTopKEngine
from repro.scoring.relu import ReluScorer
from repro.streaming import StreamingTopKEngine


@pytest.fixture(scope="module")
def world():
    dataset = SyntheticClustersDataset.generate(n_clusters=8,
                                                per_cluster=150, rng=0)
    return dataset, ReluScorer()


class TestSurvivalCurves:
    def test_histogram_curve_matches_tail_mass_exactly(self):
        """Linear interpolation over the curve reproduces tail_mass: the
        histogram's tail is piecewise linear with breakpoints at edges."""
        sketch = AdaptiveHistogram(n_bins=8)
        rng = np.random.default_rng(0)
        sketch.add_batch(rng.uniform(0.0, 5.0, size=500))
        support, survival, kind = sketch.survival_curve()
        assert kind == "linear"
        summary = TailSummary(n_remaining=10, support=support,
                              survival=survival, mass=sketch.total_mass)
        for tau in np.linspace(-0.5, sketch.max_range + 0.5, 41):
            expected = sketch.tail_mass(float(tau)) if tau >= 0 else 1.0
            if tau < support[0]:
                expected = 1.0
            assert summary.survival_at(float(tau)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_empirical_step_curve_is_exact(self):
        sketch = ExactEmpiricalSketch()
        for value in [1.0, 2.0, 2.0, 4.0]:
            sketch.add(value)
        support, survival, kind = sketch.survival_curve()
        assert kind == "step"
        summary = TailSummary(n_remaining=5, support=support,
                              survival=survival, mass=4.0, kind="step")
        # P(X > tau) is a right-continuous step function.
        assert summary.survival_at(0.5) == 1.0
        assert summary.survival_at(1.0) == pytest.approx(0.75)
        assert summary.survival_at(1.5) == pytest.approx(0.75)
        assert summary.survival_at(2.0) == pytest.approx(0.25)
        assert summary.survival_at(3.9) == pytest.approx(0.25)
        assert summary.survival_at(4.0) == 0.0
        assert summary.survival_at(9.0) == 0.0

    def test_reservoir_and_equidepth_tails(self):
        values = [0.5, 1.5, 2.5, 3.5]
        reservoir = ReservoirSketch(capacity=16, rng=0)
        equidepth = EquiDepthSketch(n_bins=2, capacity=16, rng=0)
        for value in values:
            reservoir.add(value)
            equidepth.add(value)
        assert reservoir.tail_mass(2.0) == pytest.approx(0.5)
        assert equidepth.tail_mass(2.0) == pytest.approx(0.5)
        assert reservoir.survival_curve() == equidepth.survival_curve()

    def test_empty_curve_is_conservative(self):
        summary = TailSummary(n_remaining=3, support=(), survival=(),
                              mass=0.0, kind="step")
        assert summary.survival_at(123.0) == 1.0
        drained = TailSummary(n_remaining=0, support=(), survival=(),
                              mass=0.0, kind="step")
        assert drained.survival_at(123.0) == 0.0

    def test_displacement_rate_is_clamped_survival(self):
        """A fresh draw is exchangeable with past draws, so the rate is
        the sketch survival itself — held answer rows included: their
        observations are evidence about the region's tail like any
        other (excluding them would certify churning answers)."""
        sketch = ExactEmpiricalSketch()
        for value in [1.0, 2.0, 3.0, 4.0]:
            sketch.add(value)
        support, survival, kind = sketch.survival_curve()
        summary = TailSummary(n_remaining=4, support=support,
                              survival=survival, mass=4.0, kind=kind)
        assert summary.displacement_rate(2.5) == pytest.approx(0.5)
        assert summary.displacement_rate(4.5) == 0.0
        assert summary.displacement_rate(-1.0) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="kind"):
            TailSummary(n_remaining=1, support=(), survival=(),
                        mass=0.0, kind="spline")
        with pytest.raises(ConfigurationError, match="equal length"):
            TailSummary(n_remaining=1, support=(0.0,), survival=(),
                        mass=0.0)
        with pytest.raises(ConfigurationError, match="confidence"):
            check_confidence(1.0)
        with pytest.raises(ConfigurationError, match="confidence"):
            check_confidence(0.0)
        assert check_confidence(None) is None
        assert check_confidence(0.95) == 0.95


def _tail(n_remaining, rate):
    """A flat tail summary whose displacement rate is ``rate`` everywhere."""
    return TailSummary(n_remaining=n_remaining, support=(0.0,),
                       survival=(rate,), mass=1.0, kind="step")


class TestConvergenceBound:
    def test_unknown_shard_keeps_bound_at_one(self):
        bound = ConvergenceBound(2)
        bound.update(0, _tail(10, 0.0))
        assert bound.refresh(1.0, True, 100) == 1.0

    def test_not_full_buffer_keeps_bound_at_one(self):
        bound = ConvergenceBound(1)
        bound.update(0, _tail(10, 0.0))
        assert bound.refresh(None, False, 100) == 1.0

    def test_adversarial_budget_allocation(self):
        """Remaining draws go to the most displacement-prone shards first,
        capped at each shard's undrawn count."""
        bound = ConvergenceBound(2)
        bound.update(0, _tail(5, 0.01))    # riskier shard, only 5 left
        bound.update(1, _tail(1000, 0.001))
        # R=10: 5 draws at 0.01 plus 5 at 0.001.
        assert bound.refresh(1.0, True, 10) == pytest.approx(0.055)
        # Exhaustive: every undrawn element counts.
        assert bound.exhaustive_bound == pytest.approx(
            min(1.0, 5 * 0.01 + 1000 * 0.001)
        )

    def test_zero_remaining_budget_certifies_drive(self):
        bound = ConvergenceBound(1)
        bound.update(0, _tail(1000, 0.5))
        assert bound.refresh(1.0, True, 0) == 0.0
        assert bound.exhaustive_bound == 1.0  # unscored mass still matters

    def test_running_minimum_and_drive_reset(self):
        bound = ConvergenceBound(1)
        bound.update(0, _tail(100, 0.0001))
        assert bound.refresh(1.0, True, 100) == pytest.approx(0.01)
        # A later, looser observation cannot loosen the certificate.
        bound.update(0, _tail(100, 0.5))
        assert bound.refresh(1.0, True, 100) == pytest.approx(0.01)
        # A new drive (fresh budget) resets the drive bound only.
        exhaustive = bound.exhaustive_bound
        bound.begin_drive()
        assert bound.drive_bound == 1.0
        assert bound.exhaustive_bound == exhaustive

    def test_caps_at_one(self):
        bound = ConvergenceBound(1)
        bound.update(0, _tail(10**6, 0.5))
        assert bound.refresh(1.0, True, 10**6) == 1.0


class TestEngineTails:
    def test_round_outcome_carries_tail(self, world):
        dataset, scorer = world
        with ShardedTopKEngine(dataset, scorer, k=10, n_workers=2,
                               seed=0) as engine:
            engine.run(200)
            outcome = engine._last_outcomes[0]
            partition_size = len(engine._partitions[0])
        tail = outcome.tail
        assert tail is not None
        assert tail.n_remaining == partition_size - outcome.n_scored_total
        assert 0 < tail.n_remaining < len(dataset)
        assert tail.mass > 0
        assert tail.support and tail.kind == "linear"

    def test_tail_summary_from_engine_matches_counts(self, world):
        dataset, scorer = world
        from repro.core.engine import EngineConfig, TopKEngine
        from repro.index.builder import IndexConfig, build_index

        index = build_index(dataset.features(), dataset.ids(),
                            IndexConfig(n_clusters=8), rng=0)
        engine = TopKEngine(index, EngineConfig(k=5, seed=0))
        engine.run(dataset, scorer, budget=100)
        tail = tail_summary_from_engine(engine)
        assert tail.n_remaining == len(dataset) - engine.n_scored
        assert tail.mass == pytest.approx(
            engine.policy.root_sketch.total_mass
        )


class TestStreamingConfidence:
    def test_bound_monotone_nonincreasing_as_budget_grows(self, world):
        """Acceptance pin: at a fixed seed the displacement bound never
        rises as spent budget grows within a drive, and neither does the
        exhaustive bound."""
        dataset, scorer = world
        engine = StreamingTopKEngine(dataset, scorer, k=10, n_workers=3,
                                     seed=0, slice_budget=50)
        snapshots = list(engine.results_iter(budget=900))
        engine.close()
        drive = [s.displacement_bound for s in snapshots]
        exhaustive = [s.exhaustive_bound for s in snapshots]
        assert all(a >= b - 1e-12 for a, b in zip(drive, drive[1:]))
        assert all(a >= b - 1e-12
                   for a, b in zip(exhaustive, exhaustive[1:]))
        assert all(0.0 <= b <= 1.0 for b in drive + exhaustive)

    def test_confidence_stops_early_and_matches_full_run(self, world):
        """CONFIDENCE stops before exhausting the table and returns the
        same answer the unstopped run reaches (deterministic serial)."""
        dataset, scorer = world
        stopped = StreamingTopKEngine(dataset, scorer, k=10, n_workers=3,
                                      seed=0, slice_budget=50,
                                      confidence=0.95)
        early = stopped.run(budget=None)
        stopped.close()
        full_engine = StreamingTopKEngine(dataset, scorer, k=10,
                                          n_workers=3, seed=0,
                                          slice_budget=50)
        full = full_engine.run(budget=None)
        full_engine.close()
        assert early.converged
        assert early.total_scored < full.total_scored
        assert early.ids == full.ids
        assert early.displacement_bound <= 0.05

    def test_invalid_confidence_rejected(self, world):
        dataset, scorer = world
        with pytest.raises(ConfigurationError, match="confidence"):
            StreamingTopKEngine(dataset, scorer, k=5, confidence=1.5)

    def test_confidence_survives_snapshot_resume(self, world):
        dataset, scorer = world
        engine = StreamingTopKEngine(dataset, scorer, k=10, n_workers=2,
                                     seed=0, slice_budget=50,
                                     confidence=0.9)
        engine.run(budget=200)
        snapshot = json.loads(json.dumps(engine.snapshot()))
        exhaustive = engine.exhaustive_bound
        engine.close()
        resumed = StreamingTopKEngine.restore(dataset, scorer, snapshot)
        assert resumed.confidence == 0.9
        assert resumed.exhaustive_bound == exhaustive
        resumed.close()

    def test_final_snapshot_reports_converged_bound(self, world):
        """A budget-exhausted drive ends with a zero drive bound (nothing
        left that could change the answer within this drive)."""
        dataset, scorer = world
        engine = StreamingTopKEngine(dataset, scorer, k=10, n_workers=3,
                                     seed=0, slice_budget=50)
        last = list(engine.results_iter(budget=300))[-1]
        engine.close()
        assert last.converged
        assert last.displacement_bound == 0.0


class TestShardedBound:
    def test_distributed_result_reports_displacement_bound(self, world):
        dataset, scorer = world
        with ShardedTopKEngine(dataset, scorer, k=10, n_workers=2,
                               seed=0) as engine:
            partial = engine.run(300)
            full = engine.run(None)
        assert 0.0 <= partial.displacement_bound <= 1.0
        # Scoring everything leaves nothing that could displace the answer.
        assert full.displacement_bound == 0.0
        assert full.displacement_bound <= partial.displacement_bound

    def test_bound_survives_sharded_snapshot(self, world):
        dataset, scorer = world
        with ShardedTopKEngine(dataset, scorer, k=10, n_workers=2,
                               seed=0) as engine:
            engine.run(None)
            snapshot = json.loads(json.dumps(engine.snapshot()))
        restored = ShardedTopKEngine.restore(dataset, scorer, snapshot)
        assert restored.displacement_bound == 0.0
        restored.close()
