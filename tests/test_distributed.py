"""The Section 6 combination on the ``serial`` simulation backend.

These checks used to run through the ``repro.distributed`` wrapper, which
only forwarded to ``ShardedTopKEngine(backend="serial")``; they now run on
the engine itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig, TopKEngine
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError
from repro.experiments.ground_truth import compute_ground_truth
from repro.index.builder import IndexConfig
from repro.parallel.engine import ShardedTopKEngine
from repro.parallel.worker import partition_ids
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer
from repro.streaming.engine import StreamingTopKEngine
from repro.utils.rng import RngFactory


def serial_engine(dataset, scorer, k, **kwargs):
    return ShardedTopKEngine(dataset, scorer, k, backend="serial", **kwargs)


@pytest.fixture(scope="module")
def world():
    dataset = SyntheticClustersDataset.generate(n_clusters=10,
                                                per_cluster=200, rng=0)
    scorer = ReluScorer(FixedPerCallLatency(1e-3))
    truth = compute_ground_truth(dataset, scorer)
    return dataset, scorer, truth


class TestValidation:
    def test_invalid_workers(self, world):
        dataset, scorer, _ = world
        with pytest.raises(ConfigurationError):
            serial_engine(dataset, scorer, k=5, n_workers=0)

    def test_invalid_sync(self, world):
        dataset, scorer, _ = world
        with pytest.raises(ConfigurationError):
            serial_engine(dataset, scorer, k=5, sync_interval=0)

    def test_more_workers_than_elements(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=1,
                                                    per_cluster=3, rng=0)
        with pytest.raises(ConfigurationError):
            serial_engine(dataset, ReluScorer(), k=1, n_workers=10)


class TestExecution:
    def test_exhaustive_run_is_exact(self, world):
        dataset, scorer, truth = world
        executor = serial_engine(
            dataset, scorer, k=20, n_workers=4,
            index_config=IndexConfig(n_clusters=4), seed=0,
        )
        result = executor.run()
        assert result.total_scored == len(dataset)
        assert result.stk == truth.optimal_stk(20)
        assert len(result.items) == 20

    def test_partitions_cover_dataset(self, world):
        dataset, _scorer, _ = world
        partitions = partition_ids(dataset.ids(), 3,
                                   RngFactory(1).named("partition"))
        union = sorted(eid for part in partitions for eid in part)
        assert union == sorted(dataset.ids())
        sizes = [len(part) for part in partitions]
        assert max(sizes) - min(sizes) <= 1

    def test_budget_respected(self, world):
        dataset, scorer, _ = world
        executor = serial_engine(dataset, scorer, k=10,
                                 n_workers=4, seed=0)
        result = executor.run(budget=400)
        assert result.total_scored <= 400 + 4  # batch-overshoot slack

    def test_wall_time_is_parallel(self, world):
        """W workers at 1 ms/score: wall time ~ total/W, not total."""
        dataset, scorer, _ = world
        executor = serial_engine(dataset, scorer, k=10,
                                 n_workers=4, seed=0)
        result = executor.run(budget=1200)
        sequential = result.total_scored * 1e-3
        assert result.wall_time < 0.5 * sequential
        assert result.wall_time >= sequential / 4 - 1e-9

    def test_exhaustive_wall_time_scales_with_workers(self, world):
        """Doubling workers halves the exhaustive wall clock (the point of
        the MapReduce combination); answer quality is unchanged."""
        dataset, scorer, truth = world

        def exhaustive(n_workers):
            executor = serial_engine(
                dataset, scorer, k=20, n_workers=n_workers,
                sync_interval=50, seed=3,
            )
            return executor.run(budget=len(dataset))

        one = exhaustive(1)
        four = exhaustive(4)
        assert four.wall_time == pytest.approx(one.wall_time / 4, rel=0.1)
        assert one.stk == truth.optimal_stk(20)
        assert four.stk == truth.optimal_stk(20)

    def test_checkpoints_monotone(self, world):
        dataset, scorer, _ = world
        executor = serial_engine(dataset, scorer, k=10,
                                 n_workers=2, seed=0)
        result = executor.run(budget=600)
        stks = [stk for _t, stk in result.checkpoints]
        times = [t for t, _s in result.checkpoints]
        assert all(a <= b + 1e-9 for a, b in zip(stks, stks[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))

    def test_worker_reports(self, world):
        dataset, scorer, _ = world
        executor = serial_engine(dataset, scorer, k=10,
                                 n_workers=3, seed=0)
        result = executor.run(budget=300)
        assert len(result.workers) == 3
        assert sum(w.n_scored for w in result.workers) == result.total_scored
        assert "workers" in result.summary()

    @pytest.mark.parametrize("streaming", [False, True],
                             ids=["sharded", "streaming"])
    def test_threshold_broadcast_sets_floor(self, world, streaming):
        """Each shard engine runs under the floor the coordinator
        broadcast with that shard's last slice, for both wait policies."""
        dataset, scorer, _ = world
        engine = (StreamingTopKEngine(dataset, scorer, k=5, n_workers=2,
                                      backend="serial", slice_budget=50,
                                      seed=0) if streaming else
                  serial_engine(dataset, scorer, k=5, n_workers=2,
                                sync_interval=50, seed=0))
        submitted = {}
        submit = engine.backend.submit

        def recording(worker, cap, floor):
            assert floor == engine._floor
            submitted[worker] = floor
            submit(worker, cap, floor)

        engine.backend.submit = recording
        with engine:
            engine.run(budget=300)
            shards = engine.backend.inline_workers()
            assert sorted(submitted) == [0, 1]
            for worker, shard in enumerate(shards):
                assert submitted[worker] is not None
                assert shard.engine.threshold_floor == submitted[worker]

    def test_deterministic_under_seed(self, world):
        dataset, scorer, _ = world

        def once():
            return serial_engine(
                dataset, scorer, k=10, n_workers=3, seed=9
            ).run(budget=500).stk

        assert once() == once()


class TestThresholdFloor:
    def test_engine_effective_threshold(self, world):
        dataset, _scorer, _ = world
        engine = TopKEngine(dataset.true_index(), EngineConfig(k=3, seed=0))
        assert engine.effective_threshold is None
        engine.threshold_floor = 5.0
        assert engine.effective_threshold == 5.0
        # Fill the local buffer above the floor.
        for score in (7.0, 8.0, 9.0):
            engine.buffer.offer(score)
        assert engine.effective_threshold == 7.0
        engine.threshold_floor = 7.5
        assert engine.effective_threshold == 7.5
