"""Tests for the sharded execution subsystem (repro.parallel).

The serial backend's bit-identity with the historical simulation is pinned
by ``tests/test_coordinator_golden.py``; this module covers backend
agreement, the coordinator merge's edge cases, small partitions, and
snapshot/resume of a sharded run.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.core.engine import EngineConfig
from repro.core.stk import TopKBuffer, stk
from repro.data.dataset import Dataset
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError, SerializationError
from repro.experiments.ground_truth import compute_ground_truth
from repro.index.builder import IndexConfig
from repro.parallel import (
    ShardedTopKEngine,
    available_backends,
    make_backend,
    merge_worker_topk,
)
from repro.parallel.worker import partition_ids
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer


@pytest.fixture(scope="module")
def world():
    dataset = SyntheticClustersDataset.generate(n_clusters=8,
                                                per_cluster=150, rng=0)
    scorer = ReluScorer(FixedPerCallLatency(1e-3))
    truth = compute_ground_truth(dataset, scorer)
    return dataset, scorer, truth


def run_sharded(dataset, scorer, backend, budget, **kw):
    defaults = dict(k=10, n_workers=3, seed=0)
    defaults.update(kw)
    engine = ShardedTopKEngine(dataset, scorer, backend=backend, **defaults)
    try:
        return engine.run(budget)
    finally:
        engine.close()


class TestBackendRegistry:
    def test_serial_first(self):
        assert available_backends()[0] == "serial"
        assert set(available_backends()) == {"serial", "thread", "process"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            make_backend("gpu")

    def test_only_process_ever_probes(self, monkeypatch, world):
        """Availability is lazy per name: resolving ``serial``/``thread``
        — parse, plan, ``make_backend``, engine construction — never forks
        the probe child (forked from a threaded server it can deadlock);
        only ``process`` does, and reports the probe's reason."""
        from repro.parallel import backends
        from repro.query import parse
        from repro.session import OpaqueQuerySession

        dataset, scorer, _ = world
        session = OpaqueQuerySession()
        session.register_table("t", dataset)
        session.register_udf("f", scorer)
        query = "SELECT TOP 5 FROM t ORDER BY f WORKERS 2 BACKEND {}"

        monkeypatch.setattr(backends, "_PROCESS_PROBE", None)
        monkeypatch.setattr(
            backends, "_probe_process",
            lambda: pytest.fail("probed for a backend that never forks"))
        for name in ("serial", "thread"):
            assert parse(query.format(name)).backend == name
            assert session.plan(query.format(name)).backend == name
            assert session.plan(
                parse("SELECT TOP 5 FROM t ORDER BY f").with_defaults(
                    workers=2, backend=name)).backend == name
            assert make_backend(name).name == name
            ShardedTopKEngine(dataset, scorer, k=5, backend=name).close()

        monkeypatch.setattr(backends, "_probe_process",
                            lambda: "fork is forbidden in this sandbox")
        for resolve in (
            lambda: make_backend("process"),
            lambda: parse(query.format("process")),
            lambda: parse("SELECT TOP 5 FROM t ORDER BY f").with_defaults(
                workers=2, backend="process"),
        ):
            with pytest.raises(ConfigurationError,
                               match="fork is forbidden in this sandbox"):
                resolve()
        assert available_backends() == ["serial", "thread"]

    def test_unknown_backend_at_engine_construction(self, world):
        dataset, scorer, _ = world
        with pytest.raises(ConfigurationError):
            ShardedTopKEngine(dataset, scorer, k=5, backend="nope")


class TestBackendAgreement:
    """With budget below every partition size, no shard exhausts mid-round,
    so the concurrent backends' pre-assigned caps equal serial's live
    allocation and all three backends produce identical answers."""

    def test_thread_matches_serial(self, world):
        dataset, scorer, _ = world
        serial = run_sharded(dataset, scorer, "serial", budget=600)
        thread = run_sharded(dataset, scorer, "thread", budget=600)
        assert thread.stk == serial.stk
        assert thread.items == serial.items
        assert thread.total_scored == serial.total_scored
        assert thread.n_rounds == serial.n_rounds
        assert thread.backend == "thread"

    def test_process_matches_serial(self, world):
        dataset, scorer, _ = world
        serial = run_sharded(dataset, scorer, "process", budget=400,
                             n_workers=2)
        process = run_sharded(dataset, scorer, "serial", budget=400,
                              n_workers=2)
        assert process.stk == serial.stk
        assert process.items == serial.items

    def test_thread_is_deterministic(self, world):
        dataset, scorer, _ = world
        one = run_sharded(dataset, scorer, "thread", budget=500)
        two = run_sharded(dataset, scorer, "thread", budget=500)
        assert one.stk == two.stk and one.items == two.items

    def test_real_backends_measure_real_clock(self, world):
        dataset, scorer, _ = world
        thread = run_sharded(dataset, scorer, "thread", budget=300)
        # 1 ms virtual scoring is never charged for real: measured
        # wall-clock is far below the 0.3 s the virtual clock would claim.
        assert thread.wall_time < 0.3


class TestFreshEngines:
    """What the removed ``repro.distributed`` wrapper guaranteed, on the
    engine itself: a seeded serial run is a pure function of its inputs."""

    def test_serial_engine_is_reproducible_bit_for_bit(self, world):
        dataset, scorer, _ = world
        first = run_sharded(dataset, scorer, "serial", budget=500, seed=5)
        again = run_sharded(dataset, scorer, "serial", budget=500, seed=5)
        assert again.items == first.items
        assert again.wall_time == first.wall_time
        assert again.checkpoints == first.checkpoints

    def test_fresh_engine_ignores_earlier_runs(self, world):
        """A new engine is an independent execution, never a continuation
        of a previous engine's run on the same dataset and seed."""
        dataset, scorer, _ = world
        run_sharded(dataset, scorer, "serial", budget=150, seed=7)
        second = run_sharded(dataset, scorer, "serial", budget=600, seed=7)
        fresh = run_sharded(dataset, scorer, "serial", budget=600, seed=7)
        assert second.total_scored == fresh.total_scored
        assert second.n_rounds == fresh.n_rounds
        assert second.items == fresh.items
        assert second.wall_time == fresh.wall_time


class TestCoordinatorMerge:
    def test_duplicate_ids_across_shards_offered_once(self):
        buffer = TopKBuffer(3)
        merged = set()
        merge_worker_topk(buffer, merged, [("a", 5.0), ("b", 4.0)])
        # A pathological duplicate of "a" from another shard (scores are
        # immutable, so the first sighting is authoritative).
        merge_worker_topk(buffer, merged, [("a", 9.0), ("c", 3.0)])
        items = {payload: score for score, payload in buffer.items()}
        assert len(buffer) == 3
        assert items["a"] == 5.0  # not overwritten by the duplicate
        assert set(items) == {"a", "b", "c"}

    def test_tie_scores_at_kth_boundary(self):
        buffer = TopKBuffer(2)
        merged = set()
        merge_worker_topk(buffer, merged, [("a", 4.0), ("b", 4.0)])
        merge_worker_topk(buffer, merged, [("c", 4.0)])
        # A tie with the k-th score must not evict (offer requires strictly
        # greater), so the earliest sightings win and STK is stable.
        assert sorted(buffer.payloads()) == ["a", "b"]
        assert buffer.stk == 8.0
        merge_worker_topk(buffer, merged, [("d", 4.5)])
        assert "d" in buffer.payloads() and buffer.stk == 8.5

    def test_worker_order_does_not_move_stk(self):
        """Shards arrive in any order; the merged STK is one float."""
        outcomes = [[("a", 0.1), ("b", 0.7)], [("c", 0.2), ("d", 1e-3)],
                    [("e", 0.3), ("f", 0.6)], [("g", 2.5e-2)]]
        scores = [score for items in outcomes for _id, score in items]
        found = set()
        for order in itertools.permutations(outcomes):
            buffer, merged = TopKBuffer(5), set()
            for items in order:
                merge_worker_topk(buffer, merged, items)
            found.add(buffer.stk.hex())
        assert found == {stk(scores, 5).hex()}

    def test_evicted_id_never_readmitted(self):
        buffer = TopKBuffer(1)
        merged = set()
        merge_worker_topk(buffer, merged, [("low", 1.0)])
        merge_worker_topk(buffer, merged, [("high", 9.0)])  # evicts "low"
        merge_worker_topk(buffer, merged, [("low", 1.0)])   # re-reported
        assert buffer.payloads() == ["high"]
        assert len(buffer) == 1


class TestShardMemoSlice:
    def shard(self, world, memo):
        from repro.core.engine import EngineConfig
        from repro.parallel.worker import ShardSpec, ShardWorker

        dataset, scorer, _ = world
        members = dataset.ids()[:120]
        spec = ShardSpec(worker_id=0, member_ids=members,
                         engine_config=EngineConfig(k=5, batch_size=4),
                         index_config=None, root_entropy=0, memo=memo)
        return ShardWorker(spec, dataset=dataset, scorer=scorer)

    def test_empty_slice_still_reports_fresh_scores(self, world):
        """``memo={}`` is "memo on, nothing stored yet", not "memo off":
        every score of the round is fresh and must travel home for the
        coordinator's write-back; ``memo=None`` ships nothing."""
        dataset, scorer, _ = world
        on = self.shard(world, {}).run_round(20)
        assert on.memo_hits == 0 and on.scored == 20
        assert len(on.fresh_scores) == 20
        assert all(score == scorer.score(dataset.fetch(element_id))
                   for element_id, score in on.fresh_scores)
        off = self.shard(world, None).run_round(20)
        assert off.fresh_scores == [] and off.memo_hits == 0
        # Same draws, same answer, same charged cost either way.
        assert (on.topk, on.cost, on.scored) == (off.topk, off.cost,
                                                 off.scored)

    def test_warm_slice_hits_and_stays_bit_identical(self, world):
        cold = self.shard(world, {}).run_round(20)
        warm = self.shard(world, dict(cold.fresh_scores)).run_round(20)
        assert warm.memo_hits == 20 and warm.fresh_scores == []
        assert (warm.topk, warm.cost, warm.scored) == (cold.topk, cold.cost,
                                                       cold.scored)


class TestSmallPartitions:
    def test_partition_smaller_than_k_stays_exact(self, world):
        """6 workers over 1200 elements with k=10: every partition holds
        200 > k, so shrink the dataset instead — 8 workers x 5 elements,
        k=10 > any partition; the exhaustive merge must still be exact."""
        dataset = SyntheticClustersDataset.generate(n_clusters=4,
                                                    per_cluster=10, rng=3)
        scorer = ReluScorer()
        truth = compute_ground_truth(dataset, scorer)
        result = run_sharded(dataset, scorer, "serial", budget=None,
                             n_workers=8, k=10, seed=3)
        assert result.total_scored == len(dataset)
        assert result.stk == truth.optimal_stk(10)
        assert len(result.items) == 10

    def test_partitions_balanced(self, world):
        dataset, _, _ = world
        from repro.utils.rng import RngFactory

        parts = partition_ids(dataset.ids(), 7,
                              RngFactory(1).named("partition"))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(i for p in parts for i in p) == sorted(dataset.ids())


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_shard_engines_take_the_query_k(world, backend):
    """The coordinator pins ``engine_config.k`` to the query's k once, so
    a shard keeps exactly the rows the lossless merge needs."""
    dataset, scorer, _ = world
    with ShardedTopKEngine(dataset, scorer, k=4, n_workers=2, seed=0,
                           backend=backend,
                           engine_config=EngineConfig(k=9, batch_size=2)
                           ) as engine:
        result = engine.run(80)
        configs = [worker.engine.config for worker in engine.backend.workers]
    assert [(c.k, c.batch_size) for c in configs] == [(4, 2), (4, 2)]
    assert len(result.items) == 4


class ContractOnlyDataset(Dataset):
    """The abstract ``Dataset`` contract and nothing more."""

    def __init__(self, inner):
        self._inner = inner

    def ids(self):
        return self._inner.ids()

    def fetch(self, element_id):
        return self._inner.fetch(element_id)

    def features(self):
        return self._inner.features()


def test_contract_only_dataset_shards_index_its_features(world):
    """Shard indexes read the features of any ``Dataset``: the same trees
    as over the in-memory table, not one leaf of zero vectors."""
    dataset, scorer, _ = world
    trees = []
    for table in (dataset, ContractOnlyDataset(dataset)):
        with ShardedTopKEngine(table, scorer, k=5, n_workers=2,
                               seed=3) as engine:
            engine.start()
            trees.append([json.dumps(shard.index.to_dict())
                          for shard in engine.backend.inline_workers()])
    assert trees[0] == trees[1]


def test_contract_only_dataset_sharded_answer_matches(world):
    """Same trees and seed, so the same draws: the sharded answer over the
    bare contract is the in-memory table's, score for score."""
    dataset, scorer, _ = world
    memory = run_sharded(dataset, scorer, "serial", budget=400)
    contract = run_sharded(ContractOnlyDataset(dataset), scorer, "serial",
                           budget=400)
    assert contract.items == memory.items
    assert contract.stk == memory.stk
    assert contract.total_scored == memory.total_scored


class TestSnapshotResume:
    def test_snapshot_is_json_safe(self, world):
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=2,
                                   seed=0)
        engine.run(budget=200)
        payload = json.dumps(engine.snapshot())
        assert "repro-sharded-snapshot/1" in payload

    def test_resume_continues_to_budget(self, world):
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                                   seed=0)
        partial = engine.run(budget=300)
        snapshot = json.loads(json.dumps(engine.snapshot()))
        resumed = ShardedTopKEngine.restore(dataset, scorer, snapshot)
        final = resumed.run(budget=600)
        assert final.total_scored >= 600 - 3  # batch-overshoot slack
        assert final.stk >= partial.stk - 1e-9
        assert len(final.items) == 10
        assert set(final.ids) <= set(dataset.ids())
        # No element is ever scored twice across the pause.
        assert final.total_scored <= len(dataset)

    def test_flattened_shard_survives_snapshot(self):
        """A shard past its tree fallback resumes with every leaf it had.

        Each shard nests the single-engine payload, so the flattened
        restore bug (``tests/test_snapshot_metrics.py``) silently dropped
        the whole unscored remainder of that shard.
        """
        dataset = SyntheticClustersDataset.generate(n_clusters=8,
                                                    per_cluster=60, rng=0)
        scorer = ReluScorer(FixedPerCallLatency(1e-3))
        truth = compute_ground_truth(dataset, scorer)
        shards = dict(index_config=IndexConfig(n_clusters=4),
                      engine_config=EngineConfig(k=10))
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                                   backend="serial", seed=1,
                                   sync_interval=50, **shards)
        partial = engine.run(budget=180)
        assert [report.fallback_events for report in partial.workers] == \
            [(), ((48, "flatten_tree"),), ()]
        snapshot = json.loads(json.dumps(engine.snapshot()))
        resumed = ShardedTopKEngine.restore(dataset, scorer, snapshot,
                                            backend="serial", **shards)
        midway = resumed.run(budget=300)
        assert midway.total_scored == 300
        assert midway.displacement_bound > 0.0
        final = resumed.run()
        assert final.total_scored == len(dataset)
        assert final.displacement_bound == 0.0
        assert final.stk == truth.optimal_stk(10)

    def test_resumed_run_monotone_checkpoints(self, world):
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=5, n_workers=2,
                                   seed=4)
        engine.run(budget=200)
        resumed = ShardedTopKEngine.restore(dataset, scorer,
                                            engine.snapshot())
        final = resumed.run(budget=500)
        stks = [stk for _t, stk in final.checkpoints]
        assert all(a <= b + 1e-9 for a, b in zip(stks, stks[1:]))
        assert final.n_rounds > 0

    def test_resume_across_backends(self, world):
        """A run snapshotted under serial resumes under process (and the
        shard state really crossed a pickle boundary to get there)."""
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=2,
                                   seed=0)
        partial = engine.run(budget=200)
        resumed = ShardedTopKEngine.restore(dataset, scorer,
                                            engine.snapshot(),
                                            backend="process")
        try:
            final = resumed.run(budget=400)
        finally:
            resumed.close()
        assert final.backend == "process"
        assert final.total_scored >= 400 - 2
        assert final.stk >= partial.stk - 1e-9

    def test_thread_midrun_snapshot_resumes_on_thread(self, world):
        """Snapshot taken mid-run under the thread backend (shards live on
        pool threads) resumes cleanly on the same backend."""
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                                   seed=0, backend="thread")
        partial = engine.run(budget=300)
        snapshot = json.loads(json.dumps(engine.snapshot()))
        engine.close()
        resumed = ShardedTopKEngine.restore(dataset, scorer, snapshot)
        try:
            final = resumed.run(budget=600)
        finally:
            resumed.close()
        assert final.backend == "thread"
        assert final.total_scored >= 600 - 3
        assert final.stk >= partial.stk - 1e-9

    def test_thread_midrun_snapshot_resumes_on_serial(self, world):
        """A run paused under thread continues under serial: the resumed
        virtual clock keeps the checkpoints monotone."""
        dataset, scorer, _ = world
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=2,
                                   seed=3, backend="thread")
        partial = engine.run(budget=250)
        snapshot = engine.snapshot()
        engine.close()
        resumed = ShardedTopKEngine.restore(dataset, scorer, snapshot,
                                            backend="serial")
        final = resumed.run(budget=500)
        assert final.backend == "serial"
        assert final.total_scored >= 500 - 2
        assert final.stk >= partial.stk - 1e-9
        stks = [stk for _t, stk in final.checkpoints]
        assert all(a <= b + 1e-9 for a, b in zip(stks, stks[1:]))

    def test_bad_format_rejected(self, world):
        dataset, scorer, _ = world
        with pytest.raises(SerializationError, match="sharded-snapshot/1"):
            ShardedTopKEngine.restore(dataset, scorer, {"format": "nope"})


class TestRoundIndexCache:
    def test_warm_cache_bit_identical(self, world):
        from repro.parallel import ShardIndexCache

        dataset, scorer, _ = world
        cache = ShardIndexCache()
        cold = run_sharded(dataset, scorer, "serial", budget=400,
                           index_cache=cache)
        assert len(cache) == 1 and cache.hits == 0
        warm = run_sharded(dataset, scorer, "serial", budget=400,
                           index_cache=cache)
        assert cache.hits == 1
        assert warm.items == cold.items
        assert warm.checkpoints == cold.checkpoints

    def test_thread_backend_harvests_too(self, world):
        from repro.parallel import ShardIndexCache

        dataset, scorer, _ = world
        cache = ShardIndexCache()
        run_sharded(dataset, scorer, "thread", budget=300,
                    index_cache=cache)
        assert len(cache) == 1


class TestExhaustiveParallel:
    def test_process_exhaustive_exact(self, world):
        dataset, scorer, truth = world
        result = run_sharded(dataset, scorer, "process", budget=None,
                             n_workers=2, k=15,
                             index_config=IndexConfig(n_clusters=4))
        assert result.total_scored == len(dataset)
        assert result.stk == truth.optimal_stk(15)
