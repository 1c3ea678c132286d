"""Tests for the zero-copy shard bootstrap (repro.parallel.shm).

Covers the acceptance guarantees of the shared-memory table layer: O(1)
pickled spec size in the partition size, bit-identity of shm-path and
copy-path answers, the segment lifecycle (normal close, engine error,
killed child — no orphan segments anywhere), idle shards costing the
process backend no IPC, and the probed backend availability registry.

``REPRO_DISABLE_SHM`` is the one switch between the two bootstrap paths,
so the tests pick a path the way an operator does: through the
environment (:func:`use_path`).
"""

from __future__ import annotations

import glob
import os
import pickle
import signal

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError
from repro.parallel import (
    ShardedTopKEngine,
    ShardIndexCache,
    backend_availability,
)
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    SharedFeatureTable,
    shm_available,
    shm_default_enabled,
)
from repro.parallel.worker import build_shard_specs
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer
from repro.utils.rng import RngFactory

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable here"
)


def live_segments():
    """Names of this library's shm segments currently linked in /dev/shm."""
    return sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


def make_dataset(per_cluster=100, rng=0):
    return SyntheticClustersDataset.generate(n_clusters=6,
                                             per_cluster=per_cluster, rng=rng)


def use_path(monkeypatch, path):
    """Select the ``"shm"`` or ``"copy"`` bootstrap for process runs."""
    if path == "copy":
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
    else:
        monkeypatch.delenv("REPRO_DISABLE_SHM", raising=False)


@pytest.fixture
def shm_path(monkeypatch):
    use_path(monkeypatch, "shm")


def make_specs(dataset, *, scorer=None, index_cache=None, n_workers=3,
               seed=0):
    factory = RngFactory(seed)
    return build_shard_specs(
        dataset, scorer or ReluScorer(), n_workers=n_workers, k=10,
        engine_config=EngineConfig(k=10), index_config=None,
        factory=factory,
        materialize=True, index_cache=index_cache,
    )


#: A warm-start prior no histogram can be rebuilt from: breaks the
#: child-side shard bootstrap (used by the leak tests).
EXPLODING_PRIORS = {"root": {"edges": "boom"}}


@needs_shm
class TestSharedFeatureTable:
    def test_roundtrip_ids_objects_features(self):
        features = np.arange(12, dtype=float).reshape(4, 3)
        table = SharedFeatureTable.create([{
            "member_ids": ["e1", "e2", "e30", "e400"],
            "objects": [{"v": 1}, [2.5], "three", (4,)],
            "features": features,
        }])
        try:
            resolved = table.ref(0).resolve()
            assert resolved.member_ids == ["e1", "e2", "e30", "e400"]
            assert resolved.objects == [{"v": 1}, [2.5], "three", (4,)]
            assert np.array_equal(resolved.features, features)
            assert not resolved.features.flags.writeable
        finally:
            table.close()

    def test_segment_visible_then_unlinked(self):
        table = SharedFeatureTable.create([{
            "member_ids": ["a"], "objects": [1.0],
            "features": np.ones((1, 2)),
        }])
        path = f"/dev/shm/{table.name}"
        assert os.path.exists(path)
        assert table.name.startswith(SEGMENT_PREFIX)
        table.close()
        assert not os.path.exists(path)
        assert table.closed
        table.close()  # idempotent

    def test_finalizer_unlinks_on_garbage_collection(self):
        table = SharedFeatureTable.create([{
            "member_ids": ["a"], "objects": [0], "features": np.ones((1, 1)),
        }])
        path = f"/dev/shm/{table.name}"
        assert os.path.exists(path)
        del table
        assert not os.path.exists(path)

    def test_resolve_after_close_raises(self):
        table = SharedFeatureTable.create([{
            "member_ids": ["a"], "objects": [0], "features": np.ones((1, 1)),
        }])
        ref = table.ref(0)
        table.close()
        with pytest.raises(ConfigurationError, match="does not exist"):
            ref.resolve()


@needs_shm
class TestSpecWireSize:
    CEILING = 4096  # bytes; a copied 600-row float block alone is ~5x this

    def test_pickled_spec_o1_in_partition_size(self, shm_path):
        """The shm spec's pickled size must not grow with the table."""
        sizes = {}
        for per_cluster in (100, 800):  # 600 vs 4800 elements
            dataset = make_dataset(per_cluster=per_cluster)
            _parts, specs, _hit, table = make_specs(dataset)
            assert table is not None
            try:
                sizes[per_cluster] = [len(pickle.dumps(s)) for s in specs]
            finally:
                table.close()
        for per_cluster, spec_sizes in sizes.items():
            assert all(size < self.CEILING for size in spec_sizes), (
                f"{per_cluster=}: pickled shm specs {spec_sizes} exceed "
                f"the {self.CEILING}-byte ceiling"
            )
        # 8x the table, (essentially) the same wire size.
        assert abs(max(sizes[800]) - max(sizes[100])) < 128

    def test_copy_path_grows_where_shm_does_not(self, monkeypatch):
        use_path(monkeypatch, "copy")
        dataset = make_dataset(per_cluster=200)
        _parts, inline_specs, _hit, table = make_specs(dataset)
        assert table is None
        inline = max(len(pickle.dumps(s)) for s in inline_specs)
        assert inline > self.CEILING  # the copy the tentpole removes

    @pytest.mark.parametrize("path", ["shm", "copy"])
    def test_warm_cache_ships_no_more_than_a_cold_build(self, monkeypatch,
                                                        path):
        """A cache hit hands process specs partitions, never a tree."""
        use_path(monkeypatch, path)
        dataset = make_dataset()
        cache = ShardIndexCache()
        with ShardedTopKEngine(dataset, ReluScorer(), k=10, n_workers=3,
                               seed=0, backend="serial",
                               index_cache=cache) as warm:
            warm.start()                     # banks partitions + trees
        shipped = {}
        for label, index_cache in (("cold", None), ("warm", cache)):
            _parts, specs, hit, table = make_specs(dataset,
                                                   index_cache=index_cache)
            assert hit == (label == "warm")
            assert all(spec.prebuilt_index is None for spec in specs)
            shipped[label] = ([len(pickle.dumps(spec)) for spec in specs],
                              None if table is None else table.nbytes)
            if table is not None:
                table.close()
        assert shipped["warm"] == shipped["cold"]


@needs_shm
class TestBitIdentity:
    def test_process_answers_identical_shm_vs_copy(self, monkeypatch):
        dataset = make_dataset()
        scorer = ReluScorer(FixedPerCallLatency(1e-3))
        results = {}
        for path in ("shm", "copy"):
            use_path(monkeypatch, path)
            engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                                       seed=0, backend="process")
            try:
                engine.start()
                assert (engine._shm_table is not None) == (path == "shm")
                results[path] = engine.run(400)
            finally:
                engine.close()
        assert results["shm"].items == results["copy"].items
        assert results["shm"].stk == results["copy"].stk
        assert results["shm"].total_scored == results["copy"].total_scored

    @pytest.mark.parametrize("path", ["shm", "copy"])
    def test_process_run_after_serial_warm_up_builds_its_own_indexes(
            self, monkeypatch, path):
        """A warm cache hands a process run its partitions, never a tree.

        The serial run banks partitions and shard trees; the process run
        that follows hits the cache, ships no ``prebuilt_index`` and has
        each child build its index from its ``index:{w}`` stream — the
        tree the cache holds, so the answer is the serial one.
        """
        import repro.parallel.coordinator as coordinator_module

        use_path(monkeypatch, path)
        built = []
        build = coordinator_module.build_shard_specs

        def recording(*args, **kwargs):
            partitions, specs, hit, table = build(*args, **kwargs)
            built.append((specs, hit))
            return partitions, specs, hit, table

        monkeypatch.setattr(coordinator_module, "build_shard_specs",
                            recording)
        dataset = make_dataset()
        scorer = ReluScorer(FixedPerCallLatency(1e-3))
        cache = ShardIndexCache()
        with ShardedTopKEngine(dataset, scorer, k=10, n_workers=3, seed=0,
                               backend="serial", index_cache=cache) as warm:
            baseline = warm.run(400)
        assert len(cache) == 1
        with ShardedTopKEngine(dataset, scorer, k=10, n_workers=3, seed=0,
                               backend="process",
                               index_cache=cache) as engine:
            result = engine.run(400)
        (_, warm_hit), (specs, hit) = built
        assert not warm_hit and hit
        assert all(spec.prebuilt_index is None for spec in specs)
        assert result.items == baseline.items
        assert result.stk == baseline.stk
        assert result.total_scored == baseline.total_scored


@needs_shm
class TestSegmentLeaks:
    def test_normal_close_leaves_no_segment(self, shm_path):
        dataset = make_dataset()
        engine = ShardedTopKEngine(dataset, ReluScorer(), k=10, n_workers=2,
                                   seed=0, backend="process")
        engine.start()
        assert engine._shm_table is not None
        engine.run(200)
        engine.close()
        assert live_segments() == []

    def test_engine_error_during_start_leaves_no_segment(self, shm_path):
        assert shm_default_enabled()     # start() packs a segment
        dataset = make_dataset()
        engine = ShardedTopKEngine(dataset, ReluScorer(), k=10,
                                   n_workers=2, seed=0, backend="process",
                                   priors=[EXPLODING_PRIORS] * 2)
        with pytest.raises(Exception):
            engine.start()
        assert engine._shm_table is None
        assert live_segments() == []
        engine.close()  # safe on the partially-started state

    def test_killed_child_leaves_no_segment(self, shm_path):
        dataset = make_dataset()
        engine = ShardedTopKEngine(dataset, ReluScorer(), k=10, n_workers=2,
                                   seed=0, backend="process")
        try:
            engine.start()
            assert engine._shm_table is not None
            processes = engine.backend._pools[0]._processes
            os.kill(next(iter(processes)), signal.SIGKILL)
        finally:
            engine.close()
        assert live_segments() == []


class TestFallbackAndOptOut:
    def test_disable_env_forces_copy_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        assert not shm_default_enabled()
        dataset = make_dataset()
        _parts, specs, _hit, table = make_specs(dataset)
        assert table is None
        assert all(s.features_ref is None and s.features is not None
                   for s in specs)

    def test_packing_failure_falls_back_to_copy(self, monkeypatch):
        import repro.parallel.worker as worker_module

        use_path(monkeypatch, "shm")

        def explode(cls, shards):
            raise OSError("no shm here")

        monkeypatch.setattr(worker_module.SharedFeatureTable, "create",
                            classmethod(explode))
        dataset = make_dataset()
        _parts, specs, _hit, table = make_specs(dataset)
        assert table is None
        assert all(s.features is not None and s.objects is not None
                   for s in specs)

    def test_serial_and_thread_never_allocate_a_table(self):
        dataset = make_dataset()
        factory = RngFactory(0)
        _parts, specs, _hit, table = build_shard_specs(
            dataset, ReluScorer(), n_workers=3, k=10,
            engine_config=EngineConfig(k=10), index_config=None,
            factory=factory,
            materialize=False,
        )
        assert table is None
        assert all(s.features_ref is None for s in specs)


class TestIdleShardsCostNoIpc:
    """The process backend used to synthesize idle outcomes for zero-cap
    and inactive shards; the barrier now simply does not submit them.
    Asserted where it matters: count ``submit`` calls on a real process
    run, and check totals / top-k still report every shard."""

    @staticmethod
    def counting(engine):
        """Record every ``(worker, cap)`` that crosses the pipe."""
        submits = []
        submit = engine.backend.submit

        def counted(worker_id, cap, floor):
            submits.append((worker_id, cap))
            submit(worker_id, cap, floor)

        engine.backend.submit = counted
        return submits

    @needs_shm
    def test_zero_cap_shard_is_not_submitted(self):
        dataset = make_dataset()
        with ShardedTopKEngine(dataset, ReluScorer(), k=5, n_workers=3,
                               seed=0, backend="process",
                               sync_interval=50) as engine:
            submits = self.counting(engine)
            result = engine.run(2)
        # Two calls of budget fund shards 0 and 1; shard 2's cap is 0.
        assert submits == [(0, 1), (1, 1)]
        assert result.total_scored == 2 and result.n_rounds == 1
        assert [w.n_scored for w in result.workers] == [1, 1, 0]
        assert len(result.items) == 2

    @needs_shm
    def test_inactive_shards_are_not_submitted(self):
        dataset = make_dataset()
        subset = dataset.ids()[:31]          # deals 11 / 10 / 10
        kwargs = dict(k=5, n_workers=3, seed=0, sync_interval=10, ids=subset)
        with ShardedTopKEngine(dataset, ReluScorer(), backend="process",
                               **kwargs) as engine:
            submits = self.counting(engine)
            result = engine.run()
        # Round 1 drains shards 1 and 2; only shard 0 has a row left.
        assert submits == [(0, 10), (1, 10), (2, 10), (0, 1)]
        assert result.total_scored == 31 and result.n_rounds == 2
        assert [w.n_scored for w in result.workers] == [11, 10, 10]
        with ShardedTopKEngine(dataset, ReluScorer(), backend="serial",
                               **kwargs) as oracle:
            assert result.items == oracle.run().items

    def test_tiny_budget_run_completes_with_idle_shards(self):
        """End-to-end: a budget smaller than one round per shard still
        terminates and reports zero scoring for the starved shards."""
        if not shm_available():
            pytest.skip("POSIX shared memory unavailable here")
        dataset = make_dataset()
        engine = ShardedTopKEngine(dataset, ReluScorer(), k=5, n_workers=3,
                                   seed=0, backend="process",
                                   sync_interval=10)
        try:
            result = engine.run(10)
        finally:
            engine.close()
        assert result.total_scored >= 10
        assert len(result.workers) == 3


class TestAvailability:
    def test_registry_reports_all_backends(self):
        availability = backend_availability()
        assert set(availability) == {"serial", "thread", "process"}
        assert availability["serial"] is None
        assert availability["thread"] is None

    def test_cli_info_mentions_zero_copy_status(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "zero-copy shard bootstrap:" in out
