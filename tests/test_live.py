"""Live tables: versioned writes, incremental maintenance, standing queries.

Four contracts under test:

* **Snapshot isolation** — a query plans against one pinned
  ``TableSnapshot``; writes racing the execution (or landing mid-drive)
  never change that query's answer vs its pre-write solo run, on every
  backend.
* **Incremental index maintenance** — after appends/updates/deletes the
  incrementally maintained cluster tree answers exhaustive queries
  *identically* to a freshly rebuilt index, across the full
  {single, sharded, streaming} x {serial, thread, process} matrix, warm
  and cold memo (the differential the tentpole demands: tree shape may
  differ, answers may not).
* **MVCC memo** — a committed write invalidates exactly the rewritten
  ids; re-running after a write scores only those, and version-stamped
  memo snapshots refuse to revive against a different table version.
* **Standing queries** — ``CONTINUOUS`` re-emits exact top-k snapshots
  on answer-changing commits only, without rescoring unchanged
  memoized elements, re-arms its budget grant between cycles, and
  disconnects cleanly (driver-level and service-hosted).
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.live import ContinuousQuery, IndexMaintainer, LiveTable

EXHAUSTIVE = "SELECT TOP 5 FROM t ORDER BY f SEED 3"

#: The full execution matrix (mode label -> mode clauses).
MATRIX = {
    "single": "",
    "sharded-serial": " WORKERS 2 BACKEND serial",
    "sharded-thread": " WORKERS 2 BACKEND thread",
    "sharded-process": " WORKERS 2 BACKEND process",
    "streaming-serial": " WORKERS 2 BACKEND serial STREAM",
    "streaming-thread": " WORKERS 2 BACKEND thread STREAM",
    "streaming-process": " WORKERS 2 BACKEND process STREAM",
}


def make_live_table(n_rows: int = 100, seed: int = 0, n_features: int = 3,
                    name: str = "t") -> LiveTable:
    """The live twin of :func:`tests.conftest.make_table`."""
    generator = np.random.default_rng(seed)
    features = generator.normal(size=(n_rows, n_features))
    features[:, 1] = (np.arange(n_rows) % 10) / 10.0
    ids = [f"e{i:05d}" for i in range(n_rows)]
    return LiveTable(ids, features[:, 0].tolist(), features, name=name)


def make_live_session(table: LiveTable | None = None, *, n_clusters: int = 5,
                      enable_cache: bool = True):
    """``(session, scorer, table)`` with live table ``t`` and UDF ``f``."""
    from repro.index.builder import IndexConfig
    from repro.scoring.base import CountingScorer, FunctionScorer
    from repro.session import OpaqueQuerySession

    if table is None:
        table = make_live_table()
    scorer = CountingScorer(FunctionScorer(lambda v: max(0.0, float(v))))
    session = OpaqueQuerySession(enable_cache=enable_cache)
    session.register_table("t", table,
                           index_config=IndexConfig(n_clusters=n_clusters))
    session.register_udf("f", scorer)
    return session, scorer, table


def append_rows(table: LiveTable, values, prefix: str = "new") -> list:
    """Append scalar-valued rows matching the test table's feature layout."""
    values = [float(v) for v in values]
    ids = [f"{prefix}-{i:04d}" for i in range(len(values))]
    features = np.zeros((len(values), table._dim))
    features[:, 0] = values
    table.append(ids, values, features)
    return ids


def answer(result):
    """The order-sensitive exact answer: ((id, score), ...) plus stk."""
    items = getattr(result, "items", None)
    if items is None:          # ProgressiveResult carries top_k instead
        items = result.top_k
    return tuple((str(i), float(s)) for i, s in items), float(result.stk)


# -- the versioned write surface ---------------------------------------------


class TestLiveTable:
    def test_writes_commit_monotone_versions(self):
        table = make_live_table(n_rows=10)
        assert table.version == 0
        v1 = append_rows(table, [3.0]) and table.version
        v2 = table.update(["e00001"], np.zeros((1, 3)))
        v3 = table.delete(["e00002"])
        assert (v1, v2, v3) == (1, 2, 3)
        deltas = table.deltas_since(0)
        assert [d.kind for d in deltas] == ["append", "update", "delete"]
        assert [d.version for d in deltas] == [1, 2, 3]
        assert table.deltas_since(2, upto=3)[0].kind == "delete"

    def test_snapshot_is_isolated_from_later_writes(self):
        table = make_live_table(n_rows=10)
        before = table.snapshot()
        old_row = before.feature_of("e00003").copy()
        table.update(["e00003"], np.full((1, 3), 9.0))
        table.delete(["e00004"])
        append_rows(table, [1.0])
        # The pinned snapshot still sees version-0 rows and membership.
        assert np.array_equal(before.feature_of("e00003"), old_row)
        assert "e00004" in before.ids()
        assert len(before) == 10
        after = table.snapshot()
        assert after.version == 3
        assert np.all(after.feature_of("e00003") == 9.0)
        assert "e00004" not in after.ids()

    def test_write_validation(self):
        table = make_live_table(n_rows=5)
        with pytest.raises(ConfigurationError):
            table.append(["e00001"], [0.0], np.zeros((1, 3)))  # duplicate
        with pytest.raises(ConfigurationError):
            table.update(["ghost"], np.zeros((1, 3)))
        with pytest.raises(ConfigurationError):
            table.delete([])
        with pytest.raises(ConfigurationError):
            LiveTable()  # empty without dim=
        assert len(LiveTable(dim=4)) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_feature_is_refused_at_the_door(self, bad):
        """It used to be accepted, and the next query (or, on an indexed
        table, the next churn rebuild) died inside k-means++ with numpy's
        "Probabilities contain NaN"."""
        table = make_live_table(n_rows=5)
        append_rows(table, [1.0])
        before = (table.version, table.ids(), table.stats(),
                  [d.version for d in table.deltas_since(0)])
        poisoned = [[0.0, bad, 1.0]]
        with pytest.raises(ConfigurationError, match="finite.*'x'"):
            table.append(["ok", "x"], [1.0, 1.0], [[0.0, 0.0, 0.0]] + poisoned)
        with pytest.raises(ConfigurationError, match="e00002"):
            table.update(["e00002"], poisoned)
        with pytest.raises(ConfigurationError, match="'q'"):
            LiveTable(["p", "q"], [1.0, 1.0], [[0.0] * 3] + poisoned)
        assert before == (table.version, table.ids(), table.stats(),
                          [d.version for d in table.deltas_since(0)])
        assert np.isfinite(table.features()).all()

    def test_wait_for_commit_wakes_on_write(self):
        table = make_live_table(n_rows=5)
        assert table.wait_for_commit(0, timeout=0.01) == 0  # timeout path
        timer = threading.Timer(0.05, append_rows, (table, [1.0]))
        timer.start()
        try:
            assert table.wait_for_commit(0, timeout=5.0) == 1
        finally:
            timer.cancel()


# -- incremental maintenance == fresh rebuild (the tentpole differential) ----


def _mutate(table: LiveTable) -> list:
    """A mixed write burst: dominating appends, updates, and deletes."""
    appended = append_rows(table, [5.5, 6.25, 7.125, 0.01, 0.02], "hi")
    table.update(["e00010", "e00011"],
                 np.column_stack([[4.75, 4.875],
                                  np.zeros(2), np.zeros(2)]),
                 objects=[4.75, 4.875])
    table.delete(["e00020", "e00021"])
    return appended


class TestIncrementalDifferential:
    @pytest.mark.parametrize("mode", list(MATRIX))
    def test_matches_fresh_rebuild_warm_and_cold(self, mode):
        query = EXHAUSTIVE + MATRIX[mode]
        table = make_live_table(n_rows=120, seed=5)
        session, _, _ = make_live_session(table)
        session.execute(query)                          # builds the index
        _mutate(table)

        warm = session.execute(query)                   # incremental + warm memo
        assert session.table_info("t")["index_freshness"] == "incremental"

        cold_session, _, _ = make_live_session(table)   # fresh build, cold memo
        cold = cold_session.execute(query)
        assert cold_session.table_info("t")["index_freshness"] == "built"

        assert answer(warm) == answer(cold)
        assert {i for i, _ in warm.items} >= {"hi-0000", "hi-0001", "hi-0002"}

    def test_rebuild_threshold_fallback_matches_too(self):
        table = make_live_table(n_rows=40, seed=2)
        session, _, _ = make_live_session(table)
        session.execute(EXHAUSTIVE)
        # Churn past the threshold (0.5 x 40): the maintainer gives up on
        # routing and rebuilds — a fallback, not a failure.
        for burst in range(5):
            append_rows(table, 1.0 + np.arange(5) * 0.25 + burst,
                        prefix=f"b{burst}")
        incremental = session.execute(EXHAUSTIVE)
        assert session.table_info("t")["index_freshness"] == "rebuilt"
        fresh_session, _, _ = make_live_session(table)
        assert answer(incremental) == answer(fresh_session.execute(EXHAUSTIVE))

    def test_leaf_overflow_splits_and_preserves_membership(self):
        from repro.index.builder import IndexConfig, build_index

        table = make_live_table(n_rows=24, seed=9)
        snapshot = table.snapshot()
        tree = build_index(snapshot.features(), snapshot.ids(),
                           IndexConfig(n_clusters=3), rng=0)
        maintainer = IndexMaintainer(
            tree, snapshot, lambda snap: build_index(
                snap.features(), snap.ids(), IndexConfig(n_clusters=3),
                rng=0),
            max_leaf_size=6, rebuild_threshold=10.0)
        # A tight burst: every row routes to the same nearest-mean leaf,
        # overflowing it well past max_leaf_size.
        append_rows(table, 2.5 + np.arange(10) * 1e-4)
        report = maintainer.advance(table.deltas_since(0), table.snapshot())
        assert report.splits >= 1 and maintainer.n_splits >= 1
        assert maintainer.freshness == "incremental"
        members = {m for leaf in maintainer.tree.leaves()
                   for m in leaf.member_ids}
        assert members == set(table.snapshot().ids())
        # Every leaf the burst landed in was split back under the cap
        # (untouched leaves keep whatever size the builder gave them).
        assert all(len(leaf.member_ids) <= 6
                   for leaf in maintainer.tree.leaves()
                   if any(m.startswith("new-") for m in leaf.member_ids))

    def test_split_then_rewrite_in_one_batch_matches_rebuild(self):
        """append (overflows a leaf) -> update -> delete of that leaf's
        members, folded in by ONE advance().  The split used to read the
        post-batch snapshot, where the deleted member is gone (``unknown
        element id``) and the updated one already carries its new row."""
        table = make_live_table(n_rows=60, seed=4)
        session, _, _ = make_live_session(table)
        session.execute(EXHAUSTIVE)                     # builds the index
        maintainer = session._binding("t").maintainer
        assert maintainer.max_leaf_size == 24

        burst = append_rows(table, 2.5 + np.arange(25) * 1e-4)
        table.update([burst[1]], np.array([[9.5, 0.0, 0.0]]), objects=[9.5])
        table.delete([burst[0]])
        incremental = session.execute(EXHAUSTIVE)       # one 3-delta advance
        assert maintainer.n_splits >= 1
        assert session.table_info("t")["index_freshness"] == "incremental"

        snapshot = table.snapshot()
        leaves = list(maintainer.tree.leaves())
        assert (sorted(m for leaf in leaves for m in leaf.member_ids)
                == sorted(snapshot.ids()))
        # The running aggregates routing relies on survived the batch:
        # a split over post-update rows would leave them off by the move.
        for leaf in leaves:
            rows = snapshot.features_of(list(leaf.member_ids))
            np.testing.assert_allclose(maintainer._sum[leaf.node_id],
                                       rows.sum(axis=0), atol=1e-9)
        fresh_session, _, _ = make_live_session(table)
        assert answer(incremental) == answer(fresh_session.execute(EXHAUSTIVE))
        assert incremental.items[0][0] == burst[1]

    def test_advance_never_mutates_published_tree(self):
        from repro.index.builder import IndexConfig, build_index

        table = make_live_table(n_rows=20, seed=1)
        snapshot = table.snapshot()
        tree = build_index(snapshot.features(), snapshot.ids(),
                           IndexConfig(n_clusters=3), rng=0)
        maintainer = IndexMaintainer(
            tree, snapshot, lambda snap: build_index(
                snap.features(), snap.ids(), IndexConfig(n_clusters=3),
                rng=0))
        pinned = maintainer.tree
        pinned_members = {m for leaf in pinned.leaves()
                          for m in leaf.member_ids}
        append_rows(table, [4.0, 5.0])
        maintainer.advance(table.deltas_since(0), table.snapshot())
        # An in-flight query holding the old tree sees exactly what it saw.
        assert {m for leaf in pinned.leaves()
                for m in leaf.member_ids} == pinned_members
        assert maintainer.tree is not pinned


# -- concurrent writers vs in-flight readers (snapshot isolation) ------------


class TestWriterReaderRace:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_append_mid_stream_never_changes_the_answer(self, backend):
        """An append racing a streaming drive is invisible to that drive."""
        query = (f"SELECT TOP 5 FROM t ORDER BY f SEED 3 WORKERS 2 "
                 f"BACKEND {backend} STREAM EVERY 20")
        solo_session, _, _ = make_live_session(make_live_table(seed=13))
        baseline = None
        for baseline in solo_session.stream(query):
            pass

        table = make_live_table(seed=13)
        session, _, _ = make_live_session(table)
        stream = session.stream(query)
        next(stream)                       # plan pinned, shards running
        append_rows(table, [50.0, 60.0])   # would dominate the top-k
        last = None
        for last in stream:
            pass
        # Exact same top-k; stk only approx — racy arrival order on the
        # thread/process backends permutes the float summation.
        assert answer(last)[0] == answer(baseline)[0]
        assert last.stk == pytest.approx(baseline.stk)
        assert all(not i.startswith("new-") for i, _ in last.top_k)
        # The *next* query sees the committed rows.
        after = session.execute(EXHAUSTIVE)
        assert {i for i, _ in after.items[:2]} == {"new-0000", "new-0001"}

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_append_from_inside_the_scorer_is_invisible(self, backend):
        """A write committed *during* scoring doesn't leak into the run."""
        from repro.scoring.base import FunctionScorer

        solo_session, _, _ = make_live_session(make_live_table(seed=13))
        query = f"{EXHAUSTIVE} WORKERS 2 BACKEND {backend}"
        baseline = solo_session.execute(query)

        table = make_live_table(seed=13)
        session, _, _ = make_live_session(table)
        fired = threading.Event()

        def scoring_writer(value):
            if not fired.is_set():
                fired.set()
                append_rows(table, [50.0, 60.0])
            return max(0.0, float(value))

        # Same relu math as "f", but committing a write on first call.
        session.register_udf("w", FunctionScorer(scoring_writer))
        racy = session.execute(query.replace("ORDER BY f", "ORDER BY w"))
        assert fired.is_set() and table.version == 1
        assert [i for i, _ in racy.items] == [i for i, _ in baseline.items]


# -- MVCC memo and version-stamped snapshots ---------------------------------


class TestMemoVersioning:
    def test_update_invalidates_only_rewritten_ids(self):
        session, scorer, table = make_live_session()
        first = session.execute(EXHAUSTIVE)
        cold_calls = scorer.n_elements
        top_id = first.items[0][0]
        table.update([top_id], np.zeros((1, 3)), objects=[0.0])
        second = session.execute(EXHAUSTIVE)
        # Exactly one fresh UDF call: the rewritten element.
        assert scorer.n_elements - cold_calls == 1
        assert top_id not in [i for i, _ in second.items]

    def test_append_scores_only_the_new_rows(self):
        session, scorer, table = make_live_session()
        session.execute(EXHAUSTIVE)
        cold_calls = scorer.n_elements
        appended = append_rows(table, [9.0, 8.0, 0.5])
        second = session.execute(EXHAUSTIVE)
        assert scorer.n_elements - cold_calls == len(appended)
        assert [i for i, _ in second.items[:2]] == ["new-0000", "new-0001"]

    def test_store_pins_readers_to_their_snapshot(self):
        from repro.memo.store import MemoStore

        store = MemoStore()
        store.view("fp").record(["a", "b"], [1.0, 2.0])
        store.apply_writes(["a"], version=1)
        stale = store.view("fp", reader_version=0)
        scores, misses = stale.lookup(["a", "b"])
        assert scores == [None, 2.0] and misses == [0]
        # A stale reader's fresh score for a rewritten id is dropped, not
        # recorded — it describes rows that no longer exist.
        stale.record(["a"], [7.0])
        assert store.view("fp", reader_version=1).lookup(["a"])[0] == [None]
        store.view("fp", reader_version=1).record(["a"], [3.0])
        assert store.view("fp", reader_version=1).lookup(["a"])[0] == [3.0]

    def test_restore_memo_rejects_version_mismatch(self):
        from repro.core.snapshot import restore_memo, snapshot_memo

        session, _, table = make_live_session()
        session.execute(EXHAUSTIVE)
        append_rows(table, [2.0])
        session.execute(EXHAUSTIVE)
        store = session._binding("t").memo
        assert store.table_version == 1 and store.n_entries() > 0
        payload = snapshot_memo(store)
        assert payload["table_version"] == 1

        same, _ = restore_memo(payload, expected_table_version=1)
        assert same.n_entries() == store.n_entries()
        drifted, priors = restore_memo(payload, expected_table_version=4)
        # Mismatch: cleared, not silently served stale.
        assert drifted.n_entries() == 0 and drifted.table_version == 4
        assert len(priors) == 0

    @pytest.mark.parametrize("engine_mod", ["parallel", "streaming"])
    def test_engine_restore_rejects_version_drift(self, engine_mod):
        from repro.scoring.base import FunctionScorer
        from tests.conftest import make_table

        if engine_mod == "parallel":
            from repro.parallel.engine import ShardedTopKEngine as Engine
        else:
            from repro.streaming.engine import StreamingTopKEngine as Engine
        dataset = make_table()
        scorer = FunctionScorer(lambda v: max(0.0, float(v)))
        engine = Engine(dataset, scorer, k=5, n_workers=2, seed=0,
                        table_version=2)
        try:
            engine.run(60)
            payload = engine.snapshot()
        finally:
            engine.close()
        assert payload["table_version"] == 2
        restored = Engine.restore(dataset, scorer, payload, table_version=2)
        restored.close()
        with pytest.raises(ConfigurationError, match="table version"):
            Engine.restore(dataset, scorer, payload, table_version=3)

    def test_shard_cache_evicts_stale_versions(self):
        session, _, table = make_live_session()
        session.execute(EXHAUSTIVE + " WORKERS 2")
        cache = session._binding("t").shard_cache
        assert all(key[5] == 0 for key in cache._entries)
        append_rows(table, [1.0])
        session.execute(EXHAUSTIVE + " WORKERS 2")
        assert cache._entries and all(key[5] == 1 for key in cache._entries)


# -- the table binding (one door to per-table state) --------------------------


class TestTableBinding:
    def test_static_pin_is_the_dataset_itself(self):
        from tests.conftest import make_session

        session, _ = make_session()
        binding = session._binding("t")
        assert binding.pin() == (session.table("t"), 0, None)
        assert binding.memo_view("fp", 0).reader_version is None
        assert binding.touched_since(0) == set()
        assert binding.info()["index_freshness"] == "unbuilt"
        tree = binding.index_for()
        assert binding.index_for(0, session.table("t")) is tree
        assert binding.info()["index_freshness"] == "static"
        with pytest.raises(ConfigurationError, match="unknown table 'nope'"):
            session.table("nope")

    def test_live_pin_reconciles_once_across_forks(self, monkeypatch):
        session, _, table = make_live_session()
        session.execute(EXHAUSTIVE + " WORKERS 2")  # index, memo, shard cache
        binding = session._binding("t")
        assert len(binding.shard_cache) == 1
        calls = []
        for owner, method in ((binding.maintainer, "advance"),
                              (binding.memo, "apply_writes"),
                              (binding.shard_cache, "evict_stale")):
            real = getattr(owner, method)
            monkeypatch.setattr(
                owner, method,
                lambda *args, _real=real, _name=method: (
                    calls.append(_name), _real(*args))[1])
        new_ids = append_rows(table, [9.0, 8.0])

        fork_a, fork_b = session.fork(), session.fork()
        pins = [fork._binding("t").pin() for fork in (fork_a, fork_b)]
        assert sorted(calls) == ["advance", "apply_writes", "evict_stale"]
        for snapshot, version, freshness in pins:
            assert version == snapshot.version == table.version == 1
            assert freshness == "incremental"
            assert set(new_ids) <= set(snapshot.ids())
        assert binding.maintainer.version == binding.memo.table_version == 1
        assert len(binding.shard_cache) == 0        # version-0 partitions
        assert binding.memo_view("fp", 1).reader_version == 1
        # Each fork dirties its own priors from the one shared log.
        touched = binding.touched_since(0)
        assert touched and touched == binding.touched_since(0)
        assert binding.touched_since(1) == set()

    def test_stale_pin_gets_a_one_off_tree_over_the_pinned_rows(self):
        session, _, table = make_live_session()
        binding = session._binding("t")
        pinned, version, _ = binding.pin()
        new_ids = append_rows(table, [9.0])         # commits after the pin
        stale = binding.index_for(version, pinned)
        members = {m for leaf in stale.leaves() for m in leaf.member_ids}
        assert members == set(pinned.ids()) and not members & set(new_ids)
        # Uncached: the maintained tree moved on and serves the new pin.
        fresh, now, _ = binding.pin()
        current = binding.index_for(now, fresh)
        assert current is binding.maintainer.tree is not stale
        assert set(new_ids) <= {m for leaf in current.leaves()
                                for m in leaf.member_ids}

    def test_prebuilt_index_adopted_only_when_it_covers_the_live_ids(self):
        from repro.index.builder import IndexConfig, build_index
        from repro.session import OpaqueQuerySession

        table = make_live_table(n_rows=40)
        snapshot = table.snapshot()
        prebuilt = build_index(snapshot.features(), snapshot.ids(),
                               IndexConfig(n_clusters=4), rng=5)
        for write_first, adopted in ((False, True), (True, False)):
            session = OpaqueQuerySession()
            session.register_table("t", table, index=prebuilt)
            if write_first:     # same row count, different ids
                table.delete([snapshot.ids()[0]])
                append_rows(table, [1.0])
            binding = session._binding("t")
            binding.pin()
            assert (binding.maintainer.tree is prebuilt) == adopted


# -- what a write costs, structurally (no clock) ------------------------------


class TestWriteCost:
    """One row appended to a 20k-row table must not cost 20k rows of work."""

    @pytest.fixture
    def big(self):
        table = make_live_table(n_rows=20_000, seed=2)
        session, _, _ = make_live_session(table, n_clusters=8)
        session.execute("SELECT TOP 5 FROM t ORDER BY f BUDGET 50 SEED 1")
        return session, table, session._binding("t").maintainer

    def test_snapshot_is_a_view_over_shared_storage(self, big, monkeypatch):
        from repro.data.dataset import InMemoryDataset

        _, table, _ = big
        built = []
        monkeypatch.setattr(InMemoryDataset, "__init__",
                            lambda self, *args: built.append(self))
        before = table.snapshot()
        new_ids = append_rows(table, [1.0])
        after = table.snapshot()
        assert not built and not isinstance(after, InMemoryDataset)
        assert after is not before and after.version == before.version + 1
        assert np.shares_memory(before.feature_of("e00007"),
                                after.feature_of("e00007"))
        assert new_ids[0] in after.ids() and new_ids[0] not in before.ids()
        # Shared, so nobody may write through it.
        with pytest.raises(ValueError):
            after.feature_of("e00007")[0] = 1.0

    def test_advance_leaves_untouched_leaves_alone(self, big, monkeypatch):
        from repro.index.tree import ClusterTree

        session, table, maintainer = big
        old = {leaf.node_id: leaf.member_ids
               for leaf in maintainer.tree.leaves()}
        validations = []
        real = ClusterTree.validate
        monkeypatch.setattr(ClusterTree, "validate",
                            lambda self: validations.append(self))
        new_ids = append_rows(table, [1.0])
        session._binding("t").pin()
        monkeypatch.setattr(ClusterTree, "validate", real)

        assert not validations and maintainer.freshness == "incremental"
        maintainer.tree.validate()                  # and yet it is valid
        changed = [leaf for leaf in maintainer.tree.leaves()
                   if leaf.member_ids is not old[leaf.node_id]]
        assert [leaf.member_ids[-1] for leaf in changed] == new_ids
        assert len(maintainer.tree.leaves()) == len(old) == 8

    def test_delete_delta_rebuilds_one_tuple_per_touched_leaf(
            self, big, monkeypatch):
        import repro.live.maintenance as maintenance

        session, table, maintainer = big
        old = {leaf.node_id: leaf.member_ids
               for leaf in maintainer.tree.leaves()}
        built = []
        monkeypatch.setattr(
            maintenance, "tuple",
            lambda items=(): built.append(1) or tuple(items), raising=False)
        doomed = table.ids()[::200]
        assert len(doomed) == 100
        table.delete(doomed)
        session._binding("t").pin()
        touched = [leaf for leaf in maintainer.tree.leaves()
                   if leaf.member_ids is not old[leaf.node_id]]
        # One per touched leaf, and the report's tuple of touched nodes.
        assert 1 < len(touched) and len(built) <= len(touched) + 1
        for leaf in touched:                        # order kept, ids gone
            assert list(leaf.member_ids) == [
                m for m in old[leaf.node_id] if m not in set(doomed)]


# -- nothing a write owns grows with uptime -----------------------------------


class TestBoundedGrowth:
    def test_soak_keeps_log_block_and_touched_log_bounded(self):
        """3 000 write -> query cycles on 2 000 rows (memo off: it is
        unbounded by design until ROADMAP 2(c))."""
        rows = 2_000
        table = make_live_table(n_rows=rows, seed=6)
        session, _, _ = make_live_session(table, n_clusters=8)
        sql = "SELECT TOP 5 FROM t ORDER BY f BUDGET 2% BATCH 64 SEED 4"
        rng = np.random.default_rng(11)
        live = table.ids()
        for cycle in range(3_000):
            count = int(rng.integers(1, 9))
            kind = cycle % 3
            if kind == 0:
                live += append_rows(table, rng.normal(size=count),
                                    prefix=f"c{cycle}")
            else:
                picks = sorted(rng.choice(len(live), size=count,
                                          replace=False).tolist())
                ids = [live[position] for position in picks]
                if kind == 1:
                    table.update(ids, rng.normal(size=(count, 3)))
                else:
                    table.delete(ids)
                    for position in reversed(picks):
                        del live[position]
            session.execute(sql, use_cache=False)
        stats = table.stats()
        assert stats["rows"] == len(live) and stats["version"] == 3_000
        assert len(table.deltas_since(0)) <= 8
        assert stats["rows_written"] <= 2 * stats["rows"] + 256
        assert len(table._block) <= 4 * stats["rows"]
        assert len(session._binding("t").maintainer.touched_log) <= 128
        fresh, _, _ = make_live_session(table, n_clusters=8)
        assert (session.execute(EXHAUSTIVE, use_cache=False).items
                == fresh.execute(EXHAUSTIVE).items)

    def test_pinned_snapshot_survives_a_compaction(self):
        table = make_live_table(n_rows=40)
        pinned = table.snapshot()
        ids, rows = pinned.ids(), pinned.features().copy()
        objects = pinned.fetch_batch(ids)
        storage = table._block
        table.update(ids[:30], np.full((30, 3), 7.0), objects=["x"] * 30)
        table.delete(ids[5:35])          # 60 dead rows against 10 live
        stats = table.stats()
        assert table._block is not storage           # compacted
        assert stats["rows_written"] == stats["rows"] == 10
        assert pinned.ids() == ids and len(pinned) == 40
        assert np.array_equal(pinned.features(), rows)
        assert np.array_equal(pinned.features_of(ids[::-1]), rows[::-1])
        assert pinned.fetch_batch(ids) == objects
        after = table.snapshot()
        assert after.ids() == ids[:5] + ids[35:]
        assert after.fetch_batch(ids[:5]) == ["x"] * 5
        assert np.all(after.features_of(ids[:5]) == 7.0)
        assert np.array_equal(after.features_of(ids[35:]), rows[35:])

    def test_compacted_objects_are_collectable(self):
        import gc
        import weakref

        class Payload:
            pass

        payloads = [Payload() for _ in range(20)]
        ids = [f"p{i}" for i in range(20)]
        table = LiveTable(ids, payloads, np.zeros((20, 2)))
        gone = weakref.ref(payloads[0])
        pinned = table.snapshot()
        del payloads
        table.delete(ids[:11])                       # 11 dead against 9 live
        assert table.stats()["rows_written"] == 9    # compacted away
        gc.collect()
        assert gone() is pinned.fetch("p0")          # a reader still sees it
        del pinned
        gc.collect()
        assert gone() is None

    def test_idle_second_session_sees_no_gap(self):
        import gc

        table = make_live_table(n_rows=60, seed=8)
        busy, _, _ = make_live_session(table)
        idle, _, _ = make_live_session(table)
        assert busy.execute(EXHAUSTIVE).items == idle.execute(
            EXHAUSTIVE).items
        for commit in range(500):
            if commit % 5 == 4:
                table.delete([f"w{commit - 2}-0000"])
            else:
                append_rows(table, [commit / 100.0], prefix=f"w{commit}")
            if commit % 50 == 49:
                busy.execute(EXHAUSTIVE)
        # The idle binding's cursor pins every delta it has not pulled.
        assert [d.version for d in table.deltas_since(0)] == list(
            range(1, 501))
        fresh, _, _ = make_live_session(table)
        assert (idle.execute(EXHAUSTIVE).items
                == fresh.execute(EXHAUSTIVE).items
                == busy.execute(EXHAUSTIVE).items)
        assert table.deltas_since(0) == []
        # Subscribers that go away stop pinning the log.
        del idle, fresh
        gc.collect()
        append_rows(table, [3.0], prefix="late")
        busy.execute(EXHAUSTIVE)
        assert table.deltas_since(0) == []


# -- standing CONTINUOUS queries ---------------------------------------------


CONTINUOUS = "SELECT TOP 3 FROM t ORDER BY f SEED 3 STREAM CONTINUOUS"


class TestContinuousQuery:
    def test_emits_initial_then_only_on_answer_change(self):
        session, scorer, table = make_live_session()
        standing = ContinuousQuery(session, CONTINUOUS)
        initial = standing.refresh()
        assert initial is not None and len(initial.top_k) == 3
        assert standing.refresh(timeout=0.01) is None      # nothing committed
        cold_calls = scorer.n_elements

        append_rows(table, [9.5], prefix="hot")
        changed = standing.refresh(timeout=5.0)
        assert changed is not None
        assert changed.top_k[0][0] == "hot-0000"
        # The cycle rescored only the appended element — everything else
        # was served by the memo.
        assert scorer.n_elements - cold_calls == 1

        # A commit that leaves the top-k intact runs a cycle, emits nothing.
        append_rows(table, [0.001], prefix="dud")
        assert standing.refresh(timeout=5.0) is None
        assert standing.n_emits == 2 and standing.n_cycles == 3

    def test_snapshots_iterator_and_cancel(self):
        session, _, table = make_live_session()
        standing = ContinuousQuery(session, CONTINUOUS, poll=0.01)
        emitted = []

        def consume():
            for snapshot in standing.snapshots():
                emitted.append(snapshot)

        consumer = threading.Thread(target=consume)
        consumer.start()
        try:
            deadline = 50
            while not emitted and deadline:
                deadline -= 1
                threading.Event().wait(0.05)
            append_rows(table, [9.9], prefix="hot")
            while len(emitted) < 2 and deadline:
                deadline -= 1
                threading.Event().wait(0.05)
        finally:
            standing.cancel()
            consumer.join(timeout=10)
        assert not consumer.is_alive() and standing.cancelled
        assert len(emitted) == 2
        assert emitted[1].top_k[0][0] == "hot-0000"
        assert standing.refresh(timeout=0.01) is None  # cancelled stays quiet

    def test_grant_rearmed_between_cycles(self):
        from repro.service.budget import BudgetScheduler

        session, _, table = make_live_session()
        scheduler = BudgetScheduler(budget=500)
        grant = scheduler.admit("tenant", 200)
        standing = ContinuousQuery(session, CONTINUOUS, gate=grant)
        try:
            standing.run_once()
            assert grant.granted_units > 0     # the cycle was metered...
            assert grant.consumed == 0         # ...and re-armed afterwards
            append_rows(table, [9.0])
            standing.run_once()
            assert grant.consumed == 0
        finally:
            grant.retire()
        assert scheduler.stats()["committed"] == 0

    def test_rejections(self):
        session, _, _ = make_live_session()
        static_session, *_ = __import__("tests.conftest",
                                        fromlist=["make_session"]
                                        ).make_session()
        with pytest.raises(ConfigurationError, match="CONTINUOUS"):
            ContinuousQuery(session, EXHAUSTIVE)
        with pytest.raises(ConfigurationError, match="LiveTable"):
            ContinuousQuery(static_session, CONTINUOUS)
        with pytest.raises(ConfigurationError, match="standing"):
            session.execute(CONTINUOUS)
        with pytest.raises(ConfigurationError, match="standing"):
            next(session.stream(CONTINUOUS))

    def test_explain_renders_live_and_standing_lines(self):
        session, _, table = make_live_session()
        append_rows(table, [1.0])
        plan = session.execute(f"EXPLAIN {CONTINUOUS}")
        rendered = plan.explain()
        assert "standing:  CONTINUOUS (re-emits on committed writes)" in rendered
        assert "live:      table version 1" in rendered


class TestServiceHostedContinuous:
    def test_standing_query_emits_meters_and_disconnects(self):
        from repro.service import QueryService

        async def scenario():
            table = make_live_table(seed=21)
            session, _, _ = make_live_session(table)
            service = QueryService(budget=5_000, session=session)
            handle = await service.submit(CONTINUOUS, tenant="alice",
                                          poll=0.01)
            stream = handle.snapshots()
            first = await asyncio.wait_for(stream.__anext__(), timeout=60)
            assert len(first.top_k) == 3
            assert handle.state == "running"
            committed = service.stats()["scheduler"]["committed"]
            assert 0 < committed <= 5_000

            append_rows(table, [42.0], prefix="hot")
            second = await asyncio.wait_for(stream.__anext__(), timeout=60)
            assert second.top_k[0][0] == "hot-0000"

            handle.cancel()   # the disconnect: normal completion, no error
            final = await asyncio.wait_for(handle.result(), timeout=60)
            assert handle.state == "done"
            assert final.top_k == second.top_k
            with pytest.raises(StopAsyncIteration):
                await asyncio.wait_for(stream.__anext__(), timeout=60)
            await service.close()
            assert service.scheduler.stats()["committed"] == 0

        asyncio.run(asyncio.wait_for(scenario(), timeout=180))


# -- observability + table cards ---------------------------------------------


class TestLiveObservability:
    def test_write_metrics_and_spans(self):
        from repro.obs.metrics import REGISTRY

        def total(snap, kind):
            return sum(cell["value"]
                       for cell in snap.get("writes_total",
                                            {}).get("values", [])
                       if cell["labels"] == {"table": "obs-t",
                                             "kind": kind})

        table = make_live_table(n_rows=10, name="obs-t")
        before = REGISTRY.snapshot()
        append_rows(table, [1.0])
        table.delete(["e00001"])
        after = REGISTRY.snapshot()

        assert total(after, "append") - total(before, "append") == 1
        assert total(after, "delete") - total(before, "delete") == 1
        assert [s["name"] for s in table.spans] == ["write[append]",
                                                    "write[delete]"]
        assert [s["attrs"]["version"] for s in table.spans] == [1, 2]

    def test_table_info_cards(self):
        session, _, table = make_live_session()
        card = session.table_info("t")
        assert card == {"table": "t", "rows": 100, "live": True,
                        "version": 0, "index_freshness": "unbuilt",
                        "writes": {"append": 0, "update": 0, "delete": 0}}
        session.execute(EXHAUSTIVE)
        append_rows(table, [3.0])
        session.execute(EXHAUSTIVE)
        card = session.table_info("t")
        assert card["version"] == 1 and card["rows"] == 101
        assert card["index_freshness"] == "incremental"
        assert card["writes"]["append"] == 1
        with pytest.raises(ConfigurationError):
            session.table_info("ghost")

    def test_cli_live_append_reports_card(self, capsys):
        from repro.cli import main

        code = main(["query", "SELECT TOP 5 FROM demo ORDER BY relu",
                     "--rows", "500", "--append", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "appended 10 rows" in out
        assert "version 1, index incremental" in out
        assert "510 rows" in out
