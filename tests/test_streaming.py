"""Tests for the barrier-free streaming subsystem (repro.streaming).

Covers: registry parity with repro.parallel, the deterministic serial
interleave (snapshot-testable merge-on-arrival simulation), agreement of
the streaming serial answer with the round-based serial engine on a fixed
seed, the anytime ``results_iter`` API (granularity, monotonicity,
time-to-first-result, convergence, early stop), real thread/process
backends, snapshot/resume across backends, and the shard-index cache
shared with the round engine.
"""

from __future__ import annotations

import json

import pytest

from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError
from repro.experiments.ground_truth import compute_ground_truth
from repro.index.builder import IndexConfig
from repro.parallel import BACKENDS, ShardIndexCache, ShardedTopKEngine
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer
from repro.streaming import ProgressiveResult, StreamingTopKEngine


@pytest.fixture(scope="module")
def world():
    dataset = SyntheticClustersDataset.generate(n_clusters=8,
                                                per_cluster=150, rng=0)
    scorer = ReluScorer(FixedPerCallLatency(1e-3))
    truth = compute_ground_truth(dataset, scorer)
    return dataset, scorer, truth


def run_streaming(dataset, scorer, backend, budget, **kw):
    defaults = dict(k=10, n_workers=3, seed=0, slice_budget=50)
    defaults.update(kw)
    engine = StreamingTopKEngine(dataset, scorer, backend=backend,
                                 **defaults)
    try:
        return engine.run(budget)
    finally:
        engine.close()


class TestBackendRegistry:
    """There is one registry now; its order and its unknown-name message
    are pinned by ``tests/test_parallel.py::TestBackendRegistry``."""

    def test_both_engines_draw_from_the_one_registry(self, world):
        dataset, scorer, _ = world
        for name, backend_cls in BACKENDS.items():
            for engine_cls in (StreamingTopKEngine, ShardedTopKEngine):
                engine = engine_cls(dataset, scorer, k=5, backend=name)
                assert type(engine.backend) is backend_cls

    def test_constructor_validation(self, world):
        dataset, scorer, _ = world
        with pytest.raises(ConfigurationError):
            StreamingTopKEngine(dataset, scorer, k=5, backend="nope")
        with pytest.raises(ConfigurationError, match="n_workers"):
            StreamingTopKEngine(dataset, scorer, k=5, n_workers=0)
        with pytest.raises(ConfigurationError, match="slice_budget"):
            StreamingTopKEngine(dataset, scorer, k=5, slice_budget=0)
        with pytest.raises(ConfigurationError, match="stable_slices"):
            StreamingTopKEngine(dataset, scorer, k=5, stable_slices=0)
        with pytest.raises(ConfigurationError, match="k must be"):
            StreamingTopKEngine(dataset, scorer, k=0)


class TestSerialDeterminism:
    """The serial backend is an event-driven simulation: same seed, same
    arrival interleave, same progressive trace — snapshot-testable."""

    def test_identical_runs_identical_traces(self, world):
        dataset, scorer, _ = world
        one = run_streaming(dataset, scorer, "serial", budget=600)
        two = run_streaming(dataset, scorer, "serial", budget=600)
        assert one.items == two.items
        assert one.progressive == two.progressive
        assert one.wall_time == two.wall_time
        assert one.time_to_first_result == two.time_to_first_result

    def test_exhaustive_matches_round_engine_exactly(self, world):
        """Full-budget streaming and round answers are both exact."""
        dataset, scorer, truth = world
        streaming = run_streaming(dataset, scorer, "serial", budget=None)
        with ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                               seed=0) as sharded:
            round_based = sharded.run(None)
        assert streaming.items == round_based.items
        assert streaming.stk == pytest.approx(truth.optimal_stk(10),
                                              rel=1e-9)
        assert streaming.total_scored == len(dataset)
        assert streaming.converged

    def test_partial_budget_matches_round_engine_on_fixed_seed(self, world):
        """Acceptance pin: at seed 0 with matching slice/sync cadence the
        streaming serial top-k equals the round-based serial answer."""
        dataset, scorer, _ = world
        streaming = run_streaming(dataset, scorer, "serial", budget=600,
                                  slice_budget=100)
        with ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                               seed=0, sync_interval=100) as sharded:
            round_based = sharded.run(600)
        assert streaming.items == round_based.items
        assert streaming.stk == round_based.stk
        assert streaming.total_scored == round_based.total_scored

    def test_virtual_clock_reflects_overlap(self, world):
        """3 workers x 1 ms calls: the virtual wall-clock of the merged
        pipeline is about a third of the sequential scoring time."""
        dataset, scorer, _ = world
        result = run_streaming(dataset, scorer, "serial", budget=600)
        sequential = 600 * 1e-3
        assert result.wall_time <= sequential / 3 + 0.05
        assert result.wall_time > 0.0


class TestAnytimeAPI:
    def test_progressive_snapshots_monotone(self, world):
        dataset, scorer, _ = world
        engine = StreamingTopKEngine(dataset, scorer, k=10, n_workers=3,
                                     seed=0, slice_budget=50)
        snapshots = list(engine.results_iter(budget=600))
        engine.close()
        assert len(snapshots) > 1
        assert all(isinstance(s, ProgressiveResult) for s in snapshots)
        spent = [s.budget_spent for s in snapshots]
        assert spent == sorted(spent)
        stks = [s.stk for s in snapshots]
        assert all(a <= b + 1e-9 for a, b in zip(stks, stks[1:]))
        walls = [s.wall_time for s in snapshots]
        assert all(a <= b + 1e-12 for a, b in zip(walls, walls[1:]))
        assert not snapshots[0].converged
        assert snapshots[-1].converged
        assert snapshots[-1].budget_spent == 600

    def test_first_result_arrives_after_one_slice(self, world):
        """Time-to-first-result is one slice of work, not the whole run."""
        dataset, scorer, _ = world
        engine = StreamingTopKEngine(dataset, scorer, k=10, n_workers=3,
                                     seed=0, slice_budget=50)
        first = next(engine.results_iter(budget=600))
        assert first.budget_spent == 50
        assert first.n_merges == 1
        assert len(first.top_k) == 10
        engine._quiesce()
        engine.close()
        result = engine.result()
        assert result.time_to_first_result is not None
        assert result.time_to_first_result < result.wall_time

    def test_every_throttles_snapshots(self, world):
        dataset, scorer, _ = world
        engine = StreamingTopKEngine(dataset, scorer, k=10, n_workers=3,
                                     seed=0, slice_budget=50)
        snapshots = list(engine.results_iter(budget=600, every=200))
        engine.close()
        spent = [s.budget_spent for s in snapshots]
        assert all(b - a >= 200 for a, b in zip(spent[:-2], spent[1:-1]))
        assert len(snapshots) < 12  # far fewer than one per merge

    def test_threshold_is_global_kth_score(self, world):
        dataset, scorer, _ = world
        engine = StreamingTopKEngine(dataset, scorer, k=5, n_workers=2,
                                     seed=0, slice_budget=50)
        final = list(engine.results_iter(budget=400))[-1]
        engine.close()
        assert final.threshold == pytest.approx(
            min(score for _id, score in final.top_k)
        )
        assert final.ids == [element_id for element_id, _ in final.top_k]

    def test_early_stop_rule_terminates_before_exhaustion(self, world):
        """With stable_slices the run quiesces once no shard moves the
        top-k, well before scoring the whole table (deterministic at this
        seed), and reports converged."""
        dataset, scorer, _ = world
        result = run_streaming(dataset, scorer, "serial", budget=None,
                               stable_slices=2)
        assert result.converged
        assert result.total_scored < len(dataset)

    def test_small_budget_engages_every_shard(self, world):
        """budget < n_workers * slice_budget is dealt fairly, not
        front-loaded onto worker 0."""
        dataset, scorer, _ = world
        result = run_streaming(dataset, scorer, "serial", budget=60,
                               n_workers=4, slice_budget=100)
        assert result.total_scored == 60
        assert result.converged
        scored_workers = [w for w in result.workers if w.n_scored > 0]
        assert len(scored_workers) == 4

    def test_midslice_exhaustion_frees_budget_for_idle_shards(self):
        """A shard that exhausts mid-slice returns its unused reservation,
        which must reach shards that were denied at first submission —
        the full-table run really scores the full table and converges."""
        dataset = SyntheticClustersDataset.generate(n_clusters=2,
                                                    per_cluster=65, rng=5)
        scorer = ReluScorer()
        result = run_streaming(dataset, scorer, "serial", budget=None,
                               n_workers=4, slice_budget=100, seed=5,
                               index_config=IndexConfig(n_clusters=2))
        assert result.total_scored == len(dataset)
        assert result.converged
        assert all(w.n_scored > 0 for w in result.workers)

    def test_summary_mentions_first_result(self, world):
        dataset, scorer, _ = world
        result = run_streaming(dataset, scorer, "serial", budget=300)
        assert "first result after" in result.summary()
        assert "top-10" in result.summary()


class TestRealBackends:
    def test_thread_reaches_budget(self, world):
        dataset, scorer, _ = world
        result = run_streaming(dataset, scorer, "thread", budget=600)
        assert result.total_scored == 600
        assert result.backend == "thread"
        assert len(result.items) == 10
        assert result.n_merges >= 600 // 50
        # 1 ms virtual scoring is never charged for real.
        assert result.wall_time < 0.3
        assert result.time_to_first_result < result.wall_time

    def test_thread_stk_sane_vs_serial(self, world):
        """Arrival order differs under real concurrency (thresholds are
        asynchronous), but the merged answer quality stays in family."""
        dataset, scorer, _ = world
        serial = run_streaming(dataset, scorer, "serial", budget=600)
        thread = run_streaming(dataset, scorer, "thread", budget=600)
        assert thread.stk >= 0.9 * serial.stk
        assert set(thread.ids) <= set(dataset.ids())

    def test_process_small_run(self, world):
        dataset, scorer, _ = world
        result = run_streaming(dataset, scorer, "process", budget=300,
                               n_workers=2,
                               index_config=IndexConfig(n_clusters=4))
        assert result.total_scored == 300
        assert result.backend == "process"
        assert len(result.items) == 10


class TestSnapshotResume:
    def test_snapshot_is_json_safe(self, world):
        dataset, scorer, _ = world
        engine = StreamingTopKEngine(dataset, scorer, k=10, n_workers=2,
                                     seed=0, slice_budget=50)
        engine.run(budget=200)
        payload = json.dumps(engine.snapshot())
        engine.close()
        assert "repro-streaming-snapshot/1" in payload

    def test_resume_continues_to_budget(self, world):
        dataset, scorer, _ = world
        engine = StreamingTopKEngine(dataset, scorer, k=10, n_workers=3,
                                     seed=0, slice_budget=50)
        partial = engine.run(budget=300)
        snapshot = json.loads(json.dumps(engine.snapshot()))
        engine.close()
        resumed = StreamingTopKEngine.restore(dataset, scorer, snapshot)
        final = resumed.run(budget=600)
        resumed.close()
        assert final.total_scored >= 600 - 3
        assert final.total_scored <= len(dataset)
        assert final.stk >= partial.stk - 1e-9
        assert len(final.items) == 10

    def test_thread_midrun_snapshot_resumes_on_serial(self, world):
        """Satellite: snapshot taken mid-run under the thread backend,
        resumed onto a different backend."""
        dataset, scorer, _ = world
        engine = StreamingTopKEngine(dataset, scorer, k=10, n_workers=2,
                                     seed=0, slice_budget=50,
                                     backend="thread")
        partial = engine.run(budget=200)
        snapshot = json.loads(json.dumps(engine.snapshot()))
        engine.close()
        resumed = StreamingTopKEngine.restore(dataset, scorer, snapshot,
                                              backend="serial")
        final = resumed.run(budget=500)
        resumed.close()
        assert final.backend == "serial"
        assert final.total_scored >= 500 - 2
        assert final.stk >= partial.stk - 1e-9
        stks = [stk for _t, _b, stk in final.progressive]
        assert all(a <= b + 1e-9 for a, b in zip(stks, stks[1:]))

    def test_serial_snapshot_resumes_on_process(self, world):
        """The shard state really crosses a pickle boundary on resume."""
        dataset, scorer, _ = world
        engine = StreamingTopKEngine(dataset, scorer, k=10, n_workers=2,
                                     seed=0, slice_budget=50)
        partial = engine.run(budget=200)
        snapshot = engine.snapshot()
        engine.close()
        resumed = StreamingTopKEngine.restore(dataset, scorer, snapshot,
                                              backend="process")
        try:
            final = resumed.run(budget=400)
        finally:
            resumed.close()
        assert final.backend == "process"
        assert final.total_scored >= 400 - 2
        assert final.stk >= partial.stk - 1e-9

    def test_bad_format_rejected(self, world):
        dataset, scorer, _ = world
        with pytest.raises(Exception, match="format"):
            StreamingTopKEngine.restore(dataset, scorer, {"format": "nope"})


class TestShardIndexCache:
    def test_cache_roundtrip_is_bit_identical(self, world):
        """A warm cache reproduces the cold run exactly (named RNG streams
        are independent, so skipping the index builds changes nothing)."""
        dataset, scorer, _ = world
        cache = ShardIndexCache()
        cold = run_streaming(dataset, scorer, "serial", budget=600,
                             index_cache=cache)
        assert len(cache) == 1 and cache.hits == 0
        warm = run_streaming(dataset, scorer, "serial", budget=600,
                             index_cache=cache)
        assert cache.hits == 1
        assert warm.items == cold.items
        assert warm.progressive == cold.progressive

    def test_cache_shared_between_round_and_streaming(self, world):
        """A sharded (round) run warms the cache for a streaming run with
        the same seed / workers / index config, and vice versa."""
        dataset, scorer, _ = world
        cache = ShardIndexCache()
        with ShardedTopKEngine(dataset, scorer, k=10, n_workers=3, seed=0,
                               index_cache=cache) as sharded:
            sharded.run(300)
        assert len(cache) == 1
        run_streaming(dataset, scorer, "serial", budget=300,
                      index_cache=cache)
        assert cache.hits == 1
        assert len(cache) == 1  # same key: no second entry

    def test_cache_skips_index_builds(self, world, monkeypatch):
        dataset, scorer, _ = world
        import repro.parallel.worker as worker_mod

        calls = []
        real_build = worker_mod.build_index

        def counting_build(*args, **kwargs):
            calls.append(1)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(worker_mod, "build_index", counting_build)
        cache = ShardIndexCache()
        run_streaming(dataset, scorer, "serial", budget=200,
                      index_cache=cache)
        cold_builds = len(calls)
        assert cold_builds == 3  # one per shard
        run_streaming(dataset, scorer, "serial", budget=200,
                      index_cache=cache)
        assert len(calls) == cold_builds  # warm run builds nothing

    def test_different_seed_misses(self, world):
        dataset, scorer, _ = world
        cache = ShardIndexCache()
        run_streaming(dataset, scorer, "serial", budget=200,
                      index_cache=cache)
        run_streaming(dataset, scorer, "serial", budget=200, seed=1,
                      index_cache=cache)
        assert cache.hits == 0
        assert len(cache) == 2

    def test_lru_bound(self):
        cache = ShardIndexCache(maxsize=2)
        for entropy in range(4):
            cache.put((entropy, 1, "cfg", 10), [["a"]], [object()])
        assert len(cache) == 2
