"""Focused tests for remaining public surface: results, errors, scan-mode
pull protocol, session batching, distributed variants, and report edges."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig, TopKEngine
from repro.core.fallback import FallbackConfig
from repro.core.result import Checkpoint, QueryResult
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import (
    ConfigurationError,
    EmptyStructureError,
    ExhaustedError,
    IndexError_,
    NotFittedError,
    ReproError,
    SerializationError,
)
from repro.experiments.report import format_speedup_table
from repro.experiments.runner import RunCurve
from repro.parallel.engine import ShardedTopKEngine
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer
from repro.session import OpaqueQuerySession
from repro.index.builder import IndexConfig


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (ConfigurationError, EmptyStructureError,
                         ExhaustedError, IndexError_, SerializationError,
                         NotFittedError):
            assert issubclass(exc_type, ReproError)

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise ExhaustedError("drained")


class TestResultTypes:
    def make_result(self):
        return QueryResult(
            k=3,
            items=[("a", 9.0), ("b", 8.0), ("c", 7.0)],
            stk=24.0,
            n_scored=100,
            n_batches=100,
            n_explore=20,
            n_exploit=80,
            virtual_time=0.2,
            overhead_time=0.01,
            fallback_events=[(50, "flatten_tree")],
            checkpoints=[Checkpoint(50, 0.1, 0.005, 20.0, 6.0)],
        )

    def test_properties(self):
        result = self.make_result()
        assert result.ids == ["a", "b", "c"]
        assert result.scores == [9.0, 8.0, 7.0]
        assert result.total_time == pytest.approx(0.21)

    def test_summary_mentions_fallbacks(self):
        summary = self.make_result().summary()
        assert "flatten_tree" in summary
        assert "STK=24" in summary

    def test_summary_without_fallbacks(self):
        result = self.make_result()
        result.fallback_events = []
        assert "none" in result.summary()

    def test_checkpoint_total_time(self):
        cp = Checkpoint(10, 1.0, 0.5, 3.0, None)
        assert cp.total_time == 1.5


class TestScanModePullProtocol:
    """After the clustering fallback, next_batch pops the shuffled queue."""

    def make_scan_engine(self):
        dataset = SyntheticClustersDataset.generate(
            n_clusters=4, per_cluster=50, mu_range=(2.0, 2.0),
            sigma_range=(0.0, 0.01), rng=0,
        )
        engine = TopKEngine(
            dataset.true_index(),
            EngineConfig(k=3, seed=0, batch_size=7,
                         fallback=FallbackConfig(warmup_fraction=0.05,
                                                 check_frequency=0.05)),
            scoring_latency_hint=1e-12,
        )
        engine.overhead.elapsed = 100.0  # make the bandit look expensive
        return dataset, engine

    def test_scan_batches_respect_batch_size(self):
        dataset, engine = self.make_scan_engine()
        scorer = ReluScorer()
        while engine.mode != "scan" and not engine.exhausted:
            ids = engine.next_batch()
            engine.observe(ids, scorer.score_batch(dataset.fetch_batch(ids)))
        assert engine.mode == "scan"
        ids = engine.next_batch()
        assert 1 <= len(ids) <= 7
        engine.observe(ids, scorer.score_batch(dataset.fetch_batch(ids)))

    def test_scan_mode_visits_remaining_exactly_once(self):
        dataset, engine = self.make_scan_engine()
        scorer = ReluScorer()
        seen = []
        while not engine.exhausted:
            ids = engine.next_batch()
            seen.extend(ids)
            engine.observe(ids, scorer.score_batch(dataset.fetch_batch(ids)))
        assert sorted(seen) == sorted(dataset.ids())


class TestSessionBatchClause:
    def test_batch_changes_engine_batching(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=4,
                                                    per_cluster=100, rng=0)
        session = OpaqueQuerySession()
        session.register_table("t", dataset,
                               index_config=IndexConfig(n_clusters=4))
        session.register_udf("relu", ReluScorer())
        result = session.execute(
            "SELECT TOP 5 FROM t ORDER BY relu BUDGET 120 BATCH 30 SEED 0"
        )
        assert result.n_batches <= 5  # 120 / 30

    def test_default_index_config_used(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=4,
                                                    per_cluster=100, rng=0)
        session = OpaqueQuerySession(
            default_index_config=IndexConfig(n_clusters=3)
        )
        session.register_table("t", dataset)
        session.register_udf("relu", ReluScorer())
        session.execute("SELECT TOP 2 FROM t ORDER BY relu BUDGET 50")
        assert session._binding("t").index_for().n_leaves() == 3


class TestDistributedVariants:
    def test_no_threshold_sharing_still_exact_exhaustive(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=6,
                                                    per_cluster=80, rng=0)
        scorer = ReluScorer(FixedPerCallLatency(1e-3))
        executor = ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                                     backend="serial",
                                     share_threshold=False, seed=0)
        result = executor.run()
        truth_topk = sorted(
            (dataset.fetch(i) for i in dataset.ids()), reverse=True
        )[:10]
        assert result.stk == pytest.approx(sum(max(v, 0) for v in truth_topk))

    def test_single_worker_matches_engine_semantics(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=5,
                                                    per_cluster=60, rng=1)
        scorer = ReluScorer(FixedPerCallLatency(1e-3))
        executor = ShardedTopKEngine(dataset, scorer, k=8, n_workers=1,
                                     backend="serial", seed=2)
        result = executor.run(budget=150)
        assert result.total_scored >= 150
        assert len(result.workers) == 1
        assert result.workers[0].n_scored == result.total_scored


class TestReportEdges:
    def make_curve(self, name, stks, times=None):
        n = len(stks)
        return RunCurve(
            name=name,
            iterations=np.arange(1, n + 1),
            times=np.asarray(times) if times is not None
            else np.linspace(0.1, 1.0, n),
            stks=np.asarray(stks, dtype=float),
            precisions=np.zeros(n),
            overheads=np.zeros(n),
            final_stk=float(stks[-1]),
            n_scored=n,
        )

    def test_speedup_table_never_reached(self):
        slow = self.make_curve("Slow", [1.0, 2.0, 3.0])
        table = format_speedup_table([slow], optimal_stk=100.0)
        assert "never" in table

    def test_speedup_table_missing_baseline(self):
        ours = self.make_curve("Ours", [90.0, 95.0, 100.0])
        table = format_speedup_table([ours], optimal_stk=100.0,
                                     baseline="UniformSample")
        assert "-" in table
