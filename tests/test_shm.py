"""Tests for the zero-copy shard bootstrap (repro.parallel.shm).

Covers the acceptance guarantees of the shared-memory table layer: O(1)
pickled spec size in the partition size, bit-identity of shm-path and
copy-path answers (ids ending in NUL included), the segment lifecycle
(normal close, engine error, killed child, a process backend started
directly — no orphan segments anywhere), idle shards costing the process
backend no IPC, and the probed backend availability registry.

The process backend owns the segment: it turns the coordinator's
in-process specs into the specs its children get (:func:`shipped`), and
``REPRO_DISABLE_SHM`` is the one switch between the two bootstrap paths,
so the tests pick a path the way an operator does: through the
environment (:func:`use_path`).
"""

from __future__ import annotations

import glob
import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from tests.conftest import coordinator_specs
from repro.data.dataset import InMemoryDataset
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError
from repro.parallel import (
    ShardedTopKEngine,
    ShardIndexCache,
    backend_availability,
)
from repro.parallel.backends import ProcessBackend, SerialBackend
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    SharedFeatureTable,
    shm_available,
    shm_default_enabled,
)
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer

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


def shipped(dataset, **kwargs):
    """``(specs, backend)``: what a process backend ships its children
    for the coordinator's specs (``kwargs`` as for the coordinator).

    The caller owes ``backend.close()``, which unlinks the segment the
    shm path packs (``backend._table``).
    """
    specs = coordinator_specs(dataset, ReluScorer(), k=10, n_workers=3,
                              seed=0, **kwargs)
    backend = ProcessBackend()
    return backend._materialize(specs, dataset, ReluScorer()), backend


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
            specs, backend = shipped(dataset)
            assert backend._table is not None
            try:
                sizes[per_cluster] = [len(pickle.dumps(s)) for s in specs]
            finally:
                backend.close()
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
        inline_specs, backend = shipped(dataset)
        assert backend._table is None
        inline = max(len(pickle.dumps(s)) for s in inline_specs)
        assert inline > self.CEILING  # the copy the shm path removes

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
        warm_specs = coordinator_specs(dataset, ReluScorer(), k=10,
                                       n_workers=3, seed=0,
                                       index_cache=cache)
        assert all(spec.prebuilt_index is not None for spec in warm_specs)
        shipped_bytes = {}
        for label, index_cache in (("cold", None), ("warm", cache)):
            specs, backend = shipped(dataset, index_cache=index_cache)
            try:
                assert all(spec.prebuilt_index is None for spec in specs)
                shipped_bytes[label] = (
                    [len(pickle.dumps(spec)) for spec in specs],
                    None if backend._table is None
                    else backend._table.nbytes)
            finally:
                backend.close()
        assert shipped_bytes["warm"] == shipped_bytes["cold"]


def nul_dataset(kind):
    """A 200-row table whose ids end in ``'\\x00'`` (the shm id hazard).

    ``"suffixed"``: odd rows are ``e{i}\\x00`` and score highest, so the
    whole top 10 is NUL-suffixed.  ``"twins"``: ``e{i}`` and ``e{i}\\x00``
    side by side, ids a fixed-width unicode array could not tell apart.
    """
    if kind == "suffixed":
        ids = [f"e{i}\x00" if i % 2 else f"e{i}" for i in range(200)]
        objects = [float(i) if i % 2 else -float(i) for i in range(200)]
    else:
        ids = [f"e{i // 2}" + "\x00" * (i % 2) for i in range(200)]
        objects = [float(i) for i in range(200)]
    features = np.column_stack([objects, np.arange(200) % 7]).astype(float)
    return InMemoryDataset(ids, objects, features)


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
                assert ((engine.backend._table is not None)
                        == (path == "shm"))
                results[path] = engine.run(400)
            finally:
                engine.close()
        assert results["shm"].items == results["copy"].items
        assert results["shm"].stk == results["copy"].stk
        assert results["shm"].total_scored == results["copy"].total_scored

    @pytest.mark.parametrize("kind", ["suffixed", "twins"])
    @pytest.mark.parametrize("path", ["shm", "copy"])
    def test_ids_ending_in_nul_survive_the_process_bootstrap(
            self, monkeypatch, path, kind):
        """Ids cross into a child exactly, trailing ``'\\x00'`` and all.

        A fixed-width numpy unicode id array drops a trailing NUL: the
        shm path then answered ``'e77'`` for ``'e77\\x00'`` (an id not in
        the table), and twins killed the child ("element ids must be
        unique").
        """
        use_path(monkeypatch, path)
        dataset = nul_dataset(kind)
        kwargs = dict(k=10, n_workers=2, seed=1)
        with ShardedTopKEngine(dataset, ReluScorer(), backend="serial",
                               **kwargs) as oracle:
            expected = oracle.run(120)
        with ShardedTopKEngine(dataset, ReluScorer(), backend="process",
                               **kwargs) as engine:
            engine.start()
            assert bool(live_segments()) == (path == "shm")
            result = engine.run(120)
        assert result.items == expected.items
        assert result.stk == expected.stk
        assert {element_id for element_id, _ in result.items} <= set(
            dataset.ids())
        if kind == "suffixed":
            assert all(element_id.endswith("\x00")
                       for element_id, _ in result.items)

    @pytest.mark.parametrize("path", ["shm", "copy"])
    def test_process_run_after_serial_warm_up_builds_its_own_indexes(
            self, monkeypatch, path):
        """A warm cache hands a process run its partitions, never a tree.

        The serial run banks partitions and shard trees; the process run
        that follows hits the cache — its specs carry the cached trees —
        yet the backend ships no ``prebuilt_index`` and each child builds
        its index from its ``index:{w}`` stream: the tree the cache
        holds, so the answer is the serial one.
        """
        use_path(monkeypatch, path)
        materialized = []
        materialize = ProcessBackend._materialize

        def recording(self, specs, dataset, scorer):
            shipped_specs = materialize(self, specs, dataset, scorer)
            materialized.append((specs, shipped_specs))
            return shipped_specs

        monkeypatch.setattr(ProcessBackend, "_materialize", recording)
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
        [(specs, shipped_specs)] = materialized
        assert all(spec.prebuilt_index is not None for spec in specs)
        assert all(spec.prebuilt_index is None for spec in shipped_specs)
        assert result.items == baseline.items
        assert result.stk == baseline.stk
        assert result.total_scored == baseline.total_scored


class TestDirectProcessStart:
    """``ProcessBackend.start`` takes the coordinator's in-process specs
    as they are: every backend starts from the same specs."""

    @pytest.mark.parametrize("path", ["shm", "copy"])
    def test_answers_like_serial_and_close_unlinks(self, monkeypatch, path):
        if path == "shm" and not shm_available():
            pytest.skip("POSIX shared memory unavailable here")
        use_path(monkeypatch, path)
        dataset = make_dataset()
        specs = coordinator_specs(dataset, ReluScorer(), k=10, n_workers=2,
                                  seed=0)
        outcomes = {}
        for backend in (SerialBackend(), ProcessBackend()):
            try:
                backend.start(specs, dataset, ReluScorer())
                if backend.name == "process":
                    assert ((backend._table is not None) == (path == "shm")
                            and bool(live_segments()) == (path == "shm"))
                for worker in range(2):
                    backend.submit(worker, 60, None)
                events = sorted((backend.next_event().outcome
                                 for _ in range(2)),
                                key=lambda outcome: outcome.worker_id)
            finally:
                backend.close()
            outcomes[backend.name] = [
                (o.worker_id, o.topk, o.scored, o.cost, o.n_scored_total,
                 o.local_stk, o.exhausted) for o in events]
        assert outcomes["process"] == outcomes["serial"]
        assert live_segments() == []

    @needs_shm
    def test_failed_start_leaves_no_segment(self, shm_path):
        dataset = make_dataset()
        specs = coordinator_specs(dataset, ReluScorer(), k=10, n_workers=2,
                                  seed=0, priors=[EXPLODING_PRIORS] * 2)
        backend = ProcessBackend()
        with pytest.raises(BrokenProcessPool):   # the children's bootstrap
            backend.start(specs, dataset, ReluScorer())
        assert backend._table is None
        assert live_segments() == []
        backend.close()  # safe on the failed state


@needs_shm
class TestSegmentLeaks:
    def test_normal_close_leaves_no_segment(self, shm_path):
        dataset = make_dataset()
        engine = ShardedTopKEngine(dataset, ReluScorer(), k=10, n_workers=2,
                                   seed=0, backend="process")
        engine.start()
        assert engine.backend._table is not None
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
        assert engine.backend._table is None
        assert live_segments() == []
        engine.close()  # safe on the partially-started state

    def test_killed_child_leaves_no_segment(self, shm_path):
        dataset = make_dataset()
        engine = ShardedTopKEngine(dataset, ReluScorer(), k=10, n_workers=2,
                                   seed=0, backend="process")
        try:
            engine.start()
            assert engine.backend._table is not None
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
        specs, backend = shipped(dataset)
        assert backend._table is None
        assert all(s.features_ref is None and s.features is not None
                   for s in specs)

    def test_packing_failure_falls_back_to_copy(self, monkeypatch):
        use_path(monkeypatch, "shm")

        def explode(cls, shards):
            raise OSError("no shm here")

        monkeypatch.setattr(SharedFeatureTable, "create",
                            classmethod(explode))
        dataset = make_dataset()
        specs, backend = shipped(dataset)
        assert backend._table is None
        assert all(s.features is not None and s.objects is not None
                   and s.features_ref is None for s in specs)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_serial_and_thread_never_allocate_a_table(self, monkeypatch,
                                                      backend):
        use_path(monkeypatch, "shm")
        created = []
        create = SharedFeatureTable.create.__func__

        def counting(cls, shards):
            created.append(len(shards))
            return create(cls, shards)

        monkeypatch.setattr(SharedFeatureTable, "create",
                            classmethod(counting))
        dataset = make_dataset()
        with ShardedTopKEngine(dataset, ReluScorer(), k=10, n_workers=3,
                               seed=0, backend=backend) as engine:
            engine.run(100)
            assert all(s.features_ref is None
                       for s in (w.spec for w in engine.backend.workers))
        assert created == []


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
