"""Differential cold-vs-warm matrix for the cross-query score memo.

The memo's contract is *transparency*: a hit skips only the real UDF
invocation — draws, RNG streams, budget counters, and the virtual clock
are untouched — so a warm run must be bit-identical to a cold one.  This
suite proves it differentially across the execution matrix:

* ``single`` engine, and ``sharded`` × {serial, thread, process} — fully
  deterministic protocols, so *every* reported field must match;
* ``streaming`` × serial — deterministic event simulation, full match;
* ``streaming`` × {thread, process} — arrival order is racy, so the
  comparison runs to exhaustion and checks the order-insensitive facts
  (answer set, scores, totals);
* snapshot → resume with a warm memo.

The *savings* show up only where they should: in the wrapped scorer's
real call counts, never in the engine's accounting.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from tests.conftest import TABLE_PREDICATE, make_session, make_table

QUERY = "SELECT TOP 5 FROM t ORDER BY f BUDGET 60 SEED 11"


def _single_fields(result):
    return (result.items, result.n_scored, result.n_batches,
            result.n_explore, result.n_exploit, result.virtual_time,
            result.exhausted)


def _sharded_fields(result, virtual_clock):
    fields = [result.items, result.stk, result.total_scored,
              result.n_rounds, result.displacement_bound,
              [(r.worker_id, r.n_elements, r.n_scored, r.local_stk)
               for r in result.workers]]
    if virtual_clock:
        fields.append(result.wall_time)
        fields.append([(r.worker_id, r.virtual_time)
                       for r in result.workers])
    return fields


class TestSingleEngineBitIdentity:
    def test_warm_run_bit_identical_and_free(self, session_builder):
        baseline, base_scorer = session_builder(enable_cache=False)
        cold_result = baseline.execute(QUERY)

        session, scorer = session_builder()
        first = session.execute(QUERY)
        calls_cold = scorer.n_elements
        second = session.execute(QUERY)
        calls_warm = scorer.n_elements - calls_cold

        # Caching changes nothing: cache-off, cold, and warm all agree on
        # every accounting field, including the virtual clock.
        assert _single_fields(cold_result) == _single_fields(first)
        assert _single_fields(first) == _single_fields(second)
        # ... but the warm run paid zero real UDF calls.
        assert calls_cold == base_scorer.n_elements == 60
        assert calls_warm == 0
        stats = session.cache_stats("t")
        assert stats["hits"] == 60 and stats["entries"] == 60

    def test_warm_run_with_where_filter(self, session_builder):
        query = (f"SELECT TOP 3 FROM t ORDER BY f WHERE {TABLE_PREDICATE} "
                 f"BUDGET 20 SEED 4")
        session, scorer = session_builder()
        first = session.execute(query)
        calls_cold = scorer.n_elements
        second = session.execute(query)
        assert _single_fields(first) == _single_fields(second)
        assert scorer.n_elements == calls_cold  # all 20 draws were hits

    def test_memo_shared_across_overlapping_subsets(self, session_builder):
        """Scores memoized under one WHERE subset serve another."""
        session, scorer = session_builder()
        session.execute(f"SELECT TOP 3 FROM t ORDER BY f "
                        f"WHERE {TABLE_PREDICATE} BUDGET 30 SEED 4")
        calls_cold = scorer.n_elements
        # The unfiltered query draws from the whole table; every element
        # already scored under the subset is served from the memo.
        session.execute("SELECT TOP 3 FROM t ORDER BY f BUDGET 60 SEED 4")
        fresh = scorer.n_elements - calls_cold
        stats = session.cache_stats("t")
        assert stats["hits"] > 0
        assert fresh == 60 - stats["hits"]

    def test_use_cache_false_pays_again(self, session_builder):
        session, scorer = session_builder()
        session.execute(QUERY)
        calls_cold = scorer.n_elements
        session.execute(QUERY, use_cache=False)
        assert scorer.n_elements == 2 * calls_cold


class TestShardedBitIdentity:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_warm_matches_cold_and_cache_off(self, session_builder,
                                             backend):
        virtual = backend == "serial"
        baseline, _ = session_builder(enable_cache=False)
        query = f"{QUERY} WORKERS 3 BACKEND {backend}"
        off = baseline.execute(query)

        session, scorer = session_builder()
        cold = session.execute(query)
        calls_cold = scorer.n_elements
        warm = session.execute(query)
        calls_warm = scorer.n_elements - calls_cold

        assert _sharded_fields(off, virtual) == _sharded_fields(cold,
                                                                virtual)
        assert _sharded_fields(cold, virtual) == _sharded_fields(warm,
                                                                 virtual)
        if backend != "process":
            # In-process backends share the registered CountingScorer, so
            # the savings are directly observable; process children own
            # their pickled copies (counters stay in the child).
            assert calls_cold == cold.total_scored
            assert calls_warm == 0
        stats = session.cache_stats("t")
        assert stats["hits"] == warm.total_scored
        assert stats["entries"] == cold.total_scored

    def test_process_specs_ship_restricted_memo(self, memo_table):
        """Each shard spec carries only its own partition's scores."""
        from repro.memo.store import MemoStore
        from repro.parallel.backends import ProcessBackend
        from repro.scoring.base import FunctionScorer
        from tests.conftest import coordinator_specs

        store = MemoStore()
        view = store.view("fp")
        all_ids = memo_table.ids()
        view.record(all_ids[:50], [float(i) for i in range(50)])
        scorer = FunctionScorer(lambda v: float(v))
        specs = coordinator_specs(memo_table, scorer, k=3, n_workers=4,
                                  seed=0, memo=view)
        backend = ProcessBackend()
        try:
            shipped = backend._materialize(specs, memo_table, scorer)
        finally:
            backend.close()
        seen = set()
        for spec, sent in zip(specs, shipped):
            assert sent.memo is spec.memo
            assert spec.memo is not None  # empty dict still means "on"
            assert set(spec.memo) <= set(spec.member_ids)
            assert not set(spec.memo) & seen
            seen |= set(spec.memo)
        assert seen == set(all_ids[:50])  # disjoint partitions lose nothing


class TestStreamingBitIdentity:
    def test_serial_streaming_full_bit_identity(self, session_builder):
        query = QUERY + " STREAM"
        baseline, _ = session_builder(enable_cache=False)
        off = baseline.execute(query)

        session, scorer = session_builder()
        cold = session.execute(query)
        calls_cold = scorer.n_elements
        warm = session.execute(query)
        calls_warm = scorer.n_elements - calls_cold

        for a, b in ((off, cold), (cold, warm)):
            # Virtual clocks, merge counts, and the full anytime curve:
            # memo hits charge full batch cost, so the serial event
            # order — keyed on virtual completion — never shifts.
            assert a.items == b.items
            assert a.total_scored == b.total_scored
            assert a.wall_time == b.wall_time
            assert a.n_merges == b.n_merges
            assert a.progressive == b.progressive
            assert a.time_to_first_result == b.time_to_first_result
        assert calls_cold == cold.total_scored
        assert calls_warm == 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_concurrent_streaming_exhaustive_equivalence(
            self, session_builder, backend):
        """Racy arrival order: compare the order-insensitive facts.

        With an exhaustive budget every element is scored exactly once
        regardless of interleaving, so the answer set, the scores, and
        the totals must agree cold vs warm — that is the strongest claim
        a real-concurrency run supports.
        """
        query = (f"SELECT TOP 5 FROM t ORDER BY f SEED 11 "
                 f"WORKERS 2 BACKEND {backend} STREAM")
        session, scorer = session_builder()
        cold = session.execute(query)
        calls_cold = scorer.n_elements
        warm = session.execute(query)
        calls_warm = scorer.n_elements - calls_cold

        assert sorted(cold.items) == sorted(warm.items)
        assert cold.total_scored == warm.total_scored == 100
        if backend == "thread":
            assert calls_cold == 100 and calls_warm == 0
        stats = session.cache_stats("t")
        assert stats["entries"] == 100
        assert stats["hits"] == 100


class TestBudgetAccounting:
    def test_memo_hits_still_charge_the_clock(self, memo_table):
        """Core invariant at the engine level: hits cost full batch time."""
        from repro.core.engine import EngineConfig, TopKEngine
        from repro.index.builder import IndexConfig, build_index
        from repro.memo.store import MemoStore
        from repro.scoring.base import FixedPerCallLatency, FunctionScorer

        index = build_index(memo_table.features(), memo_table.ids(),
                            IndexConfig(n_clusters=5), rng=0)
        scorer = FunctionScorer(lambda v: max(0.0, float(v)),
                                latency=FixedPerCallLatency(1e-3))
        store = MemoStore()

        cold = TopKEngine(index, EngineConfig(k=5, seed=9)).run(
            memo_table, scorer, budget=50, memo=store.view("fp")
        )
        warm = TopKEngine(index, EngineConfig(k=5, seed=9)).run(
            memo_table, scorer, budget=50, memo=store.view("fp")
        )
        assert cold.virtual_time == warm.virtual_time > 0.0
        assert cold.n_scored == warm.n_scored == 50
        assert cold.items == warm.items
        assert store.hits == 50 and store.misses == 50


class TestSnapshotResume:
    def test_sharded_resume_with_warm_memo(self, memo_table):
        from repro.memo.store import MemoStore
        from repro.parallel.engine import ShardedTopKEngine
        from repro.scoring.base import FunctionScorer

        scorer = FunctionScorer(lambda v: max(0.0, float(v)))
        store = MemoStore()
        view = store.view("fp")
        engine = ShardedTopKEngine(memo_table, scorer, k=5, n_workers=2,
                                   seed=7, memo=view)
        engine.run(40)
        payload = engine.snapshot()
        engine.close()
        assert payload["memo"]["scores"]  # warm slice rides the snapshot

        # Resume attached to the live view: the run continues warm.
        resumed = ShardedTopKEngine.restore(memo_table, scorer, payload,
                                            memo=view)
        result = resumed.run(100)
        resumed.close()
        assert result.total_scored == 100
        assert store.n_entries("fp") == 100  # no element recorded twice
        assert store.hits == 0  # fresh draws only; nothing re-scored

        # A second full run over the now-warm memo is all hits.
        rerun = ShardedTopKEngine(memo_table, scorer, k=5, n_workers=2,
                                  seed=7, memo=view)
        rerun.run(100)
        rerun.close()
        assert store.hits == 100

    def test_restore_without_view_revives_standalone_memo(self,
                                                          memo_table):
        from repro.memo.store import MemoStore
        from repro.parallel.engine import ShardedTopKEngine
        from repro.scoring.base import CountingScorer, FunctionScorer

        scorer = CountingScorer(FunctionScorer(lambda v: abs(float(v))))
        store = MemoStore()
        engine = ShardedTopKEngine(memo_table, scorer, k=5, n_workers=2,
                                   seed=7, memo=store.view("fp"))
        engine.run(60)
        payload = engine.snapshot()
        engine.close()

        calls_before = scorer.n_elements
        resumed = ShardedTopKEngine.restore(memo_table, scorer, payload)
        result = resumed.run(100)
        resumed.close()
        assert result.total_scored == 100
        # The revived memo served the 60 snapshot scores; only the
        # remaining 40 fresh draws paid a UDF call.
        assert scorer.n_elements - calls_before == 40

    def test_restore_refuses_the_view_of_another_udf(self, memo_table):
        """A snapshot's memo slice holds one UDF's scores.  Restored into
        another UDF's view, they used to be recorded under that UDF and
        served to its later queries from the shared store."""
        from repro.errors import ConfigurationError
        from repro.memo.store import MemoStore
        from repro.parallel.engine import ShardedTopKEngine
        from repro.scoring.base import FunctionScorer

        scorer = FunctionScorer(lambda v: max(0.0, float(v)))
        store = MemoStore()
        with ShardedTopKEngine(memo_table, scorer, k=5, n_workers=2, seed=7,
                               memo=store.view("udf-A")) as engine:
            engine.run(20)
            payload = engine.snapshot()
        with pytest.raises(ConfigurationError, match="'udf-A'.*'udf-B'"):
            ShardedTopKEngine.restore(memo_table, scorer, payload,
                                      memo=store.view("udf-B"))
        assert store.n_entries("udf-B") == 0
        assert store.n_entries("udf-A") == 20

    def test_memo_store_roundtrip_via_core_snapshot(self):
        from repro.core.histogram import AdaptiveHistogram
        from repro.core.snapshot import restore_memo, snapshot_memo
        from repro.errors import SerializationError
        from repro.memo import MemoStore, PriorStore

        store = MemoStore()
        store.view("fp").record(["a", "b"], [1.0, 2.0])
        priors = PriorStore()
        node = AdaptiveHistogram().to_dict()
        priors.put("fp", "single:", {"n0": node})
        payload = snapshot_memo(store, priors)
        memo2, priors2 = restore_memo(payload)
        assert memo2.view("fp").lookup(["a", "b"])[0] == [1.0, 2.0]
        assert priors2.get("fp", "single:") == {"n0": node}
        memo3, priors3 = restore_memo(snapshot_memo(store))
        assert memo3.n_entries("fp") == 2 and len(priors3) == 0
        with pytest.raises(SerializationError):
            restore_memo({"format": "bogus"})


class TestWarmStartPriors:
    def test_warm_start_is_deterministic_but_not_identical(
            self, session_builder):
        query = "SELECT TOP 5 FROM t ORDER BY f BUDGET 40 SEED 3"
        session, _ = session_builder()
        cold = session.execute(query)
        warm_a = session.execute(query, warm_start=True)
        # Same priors + same seed -> same run; re-harvesting after warm_a
        # only replaces the priors with richer ones, so rerun from the
        # same state in a twin session instead.
        twin, _ = session_builder()
        twin.execute(query)
        warm_b = twin.execute(query, warm_start=True)
        assert warm_a.items == warm_b.items
        assert len(warm_a.items) == len(cold.items) == 5

    def test_prior_store_is_lru_bounded(self):
        from repro.core.histogram import AdaptiveHistogram
        from repro.memo.priors import MAX_PRIOR_PAYLOADS, PriorStore

        def node(mass: int) -> dict:
            sketch = AdaptiveHistogram()
            sketch.add_many([0.05] * mass)
            return sketch.to_dict()

        store = PriorStore()
        for i in range(MAX_PRIOR_PAYLOADS):
            store.put("fp", f"single:{i}", {"root": node(i), "n1": node(0)})
        assert store.get("fp", "single:0")          # a get is a use
        store.put("fp", "single:new", {"root": node(0)})
        assert len(store) == MAX_PRIOR_PAYLOADS
        assert store.get("fp", "single:0") and store.get("fp", "single:new")
        assert store.get("fp", "single:1") is None  # the stalest one went
        # The rest of the surface is unchanged by the bound.
        twin = PriorStore.from_dict(store.to_dict())
        assert len(twin) == len(store)
        assert twin.get("fp", "single:0") == {"root": node(0), "n1": node(0)}
        assert twin.drop_nodes(["n1"]) == MAX_PRIOR_PAYLOADS - 1

    def test_prior_store_stays_bounded_over_a_soak(self, memo_table,
                                                   session_builder):
        """Every cached dispatch banks a harvest, asked for or not: shard
        scopes of a seedless run (no later plan can rebuild their root
        entropy) are not banked at all, the rest is LRU-bounded."""
        from repro.memo.priors import MAX_PRIOR_PAYLOADS, shard_scope
        from repro.utils.rng import RngFactory

        seeded = "SELECT TOP 3 FROM t ORDER BY f BUDGET 30 SEED 3 WORKERS 2"
        session, _ = session_builder()
        session.execute(seeded)
        store = session._prior_stores["t"]
        assert len(store) == 2                      # one payload per shard
        for _ in range(50):
            session.execute(
                "SELECT TOP 3 FROM t ORDER BY f BUDGET 20 WORKERS 2")
            session.execute(
                "SELECT TOP 3 FROM t ORDER BY f BUDGET 20 WORKERS 2 STREAM")
        assert len(store) == 2
        column = sorted(memo_table.features()[:, 0])
        sizes = set()
        for below, above in zip(column[49:99], column[50:]):
            query = (f"SELECT TOP 3 FROM t ORDER BY f WHERE feature[0] < "
                     f"{(below + above) / 2:.9f} BUDGET 10 SEED 1")
            sizes.add(session.plan(query).n_candidates)
            session.execute(query)
        assert len(sizes) == 50                     # 50 distinct subsets
        assert len(store) == MAX_PRIOR_PAYLOADS
        # A seeded repeat still finds what its first run learned.
        session.execute(seeded)
        fingerprint = session.plan(seeded).fingerprint
        entropy = RngFactory(3).root_entropy
        assert all(store.get(fingerprint, shard_scope(worker, 2, entropy))
                   for worker in range(2))
        assert len(session.execute(seeded, warm_start=True).items) == 3

    #: Single and in-process sharded runs (deterministic ones: the
    #: serial backend), each then warm-started.
    BANKED = ("SELECT TOP 5 FROM t ORDER BY f BUDGET 40 SEED 3",
              "SELECT TOP 5 FROM t ORDER BY f BUDGET 40 SEED 3 WORKERS 2",
              "SELECT TOP 5 FROM t ORDER BY f BUDGET 40 SEED 3 WORKERS 2 "
              "STREAM")

    def test_lazy_priors_are_the_eager_harvest_byte_for_byte(
            self, session_builder, monkeypatch):
        """Banking the histograms and serializing them on read gives the
        warm starts and the store document that serializing every harvest
        at once gave."""
        import json

        import repro.query.executors as executors
        from repro.memo.priors import harvest_priors

        def drive():
            session, _ = session_builder()
            answers = []
            for query in self.BANKED:
                session.execute(query)
                answers.append(session.execute(query, warm_start=True).items)
            document = json.dumps(session._prior_stores["t"].to_dict())
            return answers, document

        lazy = drive()
        monkeypatch.setattr(executors, "harvest_histograms", harvest_priors)
        eager = drive()
        assert lazy == eager
        assert json.loads(lazy[1])["priors"]

    def test_a_query_nobody_warm_starts_serializes_no_histogram(
            self, session_builder, monkeypatch):
        from repro.core.histogram import AdaptiveHistogram

        calls = []
        real = AdaptiveHistogram.to_dict
        monkeypatch.setattr(AdaptiveHistogram, "to_dict",
                            lambda self: calls.append(self) or real(self))
        session, _ = session_builder()
        for query in self.BANKED:
            session.execute(query)
            session.execute(query)          # replaces the banked harvest
        store = session._prior_stores["t"]
        # One single scope and two shard scopes (both engines share them).
        assert len(store) == 3 and calls == []
        store.drop_nodes(["root"])          # node ids are enough
        assert calls == []
        assert store.to_dict()["priors"] and calls   # built when read

    def test_priors_refuse_a_run_engine(self, memo_table):
        from repro.core.engine import EngineConfig, TopKEngine
        from repro.index.builder import IndexConfig, build_index
        from repro.memo.priors import apply_priors, harvest_priors
        from repro.scoring.base import FunctionScorer

        index = build_index(memo_table.features(), memo_table.ids(),
                            IndexConfig(n_clusters=5), rng=0)
        engine = TopKEngine(index, EngineConfig(k=3, seed=0))
        engine.run(memo_table, FunctionScorer(lambda v: abs(float(v))),
                   budget=20)
        priors = harvest_priors(engine)
        assert priors  # every node serialized
        fresh = TopKEngine(index, EngineConfig(k=3, seed=0))
        assert apply_priors(fresh, priors) == len(priors)
        with pytest.raises(ConfigurationError):
            apply_priors(engine, priors)


class TestUnfingerprintableScorers:
    def test_opaque_scorer_disables_caching_gracefully(self, memo_table):
        from repro.memo import udf_fingerprint
        from tests.conftest import make_session

        class Opaque:
            """No stable state: default repr carries a memory address."""

            def __init__(self):
                self._lambda_soup = object()

        from repro.scoring.base import Scorer

        class OpaqueScorer(Scorer):
            def __init__(self):
                self.blob = object()

            def score(self, obj):
                return max(0.0, float(obj))

        scorer = OpaqueScorer()
        assert udf_fingerprint(scorer) is None
        session, _ = make_session(memo_table, scorer=scorer)
        plan = session.execute("EXPLAIN SELECT TOP 3 FROM t ORDER BY f "
                               "BUDGET 20 SEED 0")
        assert plan.cache_enabled is False
        assert plan.explain().splitlines()[-1] == "cache:     off"
        result = session.execute("SELECT TOP 3 FROM t ORDER BY f "
                                 "BUDGET 20 SEED 0")
        assert len(result.items) == 3
        assert session.cache_stats("t")["entries"] == 0
