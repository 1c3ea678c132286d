"""Rows inside, ids at the boundary: the row-keyed memo and row slots.

The single engine draws, memoizes and ranks rows of the dataset it
reads; ids appear at the pull interface, in results and in persisted
documents.  Pinned here:

* every leaf of every tree a live binding pins names block rows of the
  pinned snapshot — after the first build over a table with dead rows,
  after incremental advances, compactions and a churn rebuild;
* the memo refuses, on write, the scores its own reader refuses;
* the pull interface (``next_batch`` / ``observe``, ids) and ``run``
  (rows) give the same items, counts and checkpoints, memo on or off,
  at ``BATCH`` 1 and 64, on a static table and on a live one after a
  rebuild;
* the row rule on live tables: a reader pinned before an update is
  served the old row's score and one pinned after misses on the new row,
  memo hits survive a compaction while a reader of the older storage
  records nothing, and hundreds of write -> query cycles keep the memo
  within the table's rows.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.engine import EngineConfig, TopKEngine
from repro.data.dataset import InMemoryDataset
from repro.errors import SerializationError
from repro.memo import MemoStore
from repro.scoring.base import FixedPerCallLatency, FunctionScorer
from repro.session import OpaqueQuerySession
from tests.test_live import (EXHAUSTIVE, answer, append_rows,
                             make_live_session, make_live_table)


def assert_leaves_name_rows(snapshot, tree) -> None:
    """Each slot ``s`` of each leaf is the block row of ``names[s]``."""
    for leaf in tree.leaves():
        members = leaf.member_ids
        slots = list(members.slots)
        ids = [members.names[slot] for slot in slots]
        assert members.names is snapshot.row_ids, leaf.node_id
        assert snapshot.rows_of(ids) == slots, leaf.node_id


def cold_answer(snapshot, sql: str = EXHAUSTIVE):
    """The answer of a fresh session over a static copy of ``snapshot``."""
    ids = snapshot.ids()
    session = OpaqueQuerySession(enable_cache=False)
    session.register_table("t", InMemoryDataset(
        ids, snapshot.fetch_batch(ids), snapshot.features()))
    session.register_udf("f", FunctionScorer(lambda v: max(0.0, float(v))))
    return answer(session.execute(sql))


# -- leaf slots are block rows -------------------------------------------------


def test_live_leaves_name_block_rows_after_every_build():
    table = make_live_table(n_rows=2000, seed=4)
    ids = table.ids()
    # Dead rows before the first pin: the first build reads around them.
    table.delete(ids[:500])
    session, _, _ = make_live_session(table, n_clusters=8)
    binding = session._binding("t")
    snapshot, _, tree = binding.pin()
    assert len(snapshot.block) > len(snapshot)
    assert_leaves_name_rows(snapshot, tree)
    generator = np.random.default_rng(1)
    rebuilds = binding.maintainer.n_rebuilds
    for step in range(12):
        live = snapshot.ids()
        table.update(live[:20], generator.normal(size=(20, 3)))
        table.delete(live[20:120])
        append_rows(table, generator.normal(size=60), prefix=f"s{step}")
        snapshot, _, tree = binding.pin()
        assert_leaves_name_rows(snapshot, tree)
    assert binding.maintainer.n_rebuilds > rebuilds
    assert table.stats()["rows_written"] < 2000 + 12 * 80  # compacted


def test_an_adopted_index_is_republished_over_block_rows():
    table = make_live_table(n_rows=60)
    from repro.index.builder import IndexConfig, build_index

    snapshot = table.snapshot()
    prebuilt = build_index(snapshot.features(), list(reversed(
        snapshot.ids())), IndexConfig(n_clusters=3), rng=2,
        rows=np.arange(59, -1, -1))
    session = OpaqueQuerySession()
    session.register_table("t", table, index=prebuilt)
    pinned, _, tree = session._binding("t").pin()
    assert tree.to_dict() == prebuilt.to_dict()
    assert_leaves_name_rows(pinned, tree)


# -- the memo holds only what its reader accepts -------------------------------


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, "x", True])
def test_the_memo_refuses_to_record_a_score_it_would_refuse_to_read(bad):
    store = MemoStore()
    view = store.view("x")
    for record in (lambda: view.record(["a", "b"], [1.0, bad]),
                   lambda: view.record_pairs([("a", 1.0), ("b", bad)])):
        with pytest.raises(SerializationError) as error:
            record()
        assert "repro-memo/1" in str(error.value)
        assert "'b'" in str(error.value)
    assert view.lookup(["a", "b"]) == ([None, None], [0, 1])
    assert MemoStore.from_dict(store.to_dict()).n_entries() == 0


# -- the pull interface and run -------------------------------------------------


def pull(engine, dataset, scorer, budget):
    """``run``'s loop through ``next_batch`` / ``observe``, with its
    checkpoints: ``(iteration, virtual time, stk, threshold)``."""
    limit = min(budget, engine.n_total)
    cadence = max(1, limit // 200)
    checkpoints, next_checkpoint, clock = [], cadence, 0.0
    while engine.n_scored < limit and not engine.exhausted:
        ids = engine.next_batch()
        engine.observe(ids, scorer.score_batch(dataset.fetch_batch(ids)))
        clock += scorer.batch_cost(len(ids))
        if engine.n_scored >= next_checkpoint:
            checkpoints.append((engine.n_scored, clock, engine.stk,
                                engine.threshold))
            next_checkpoint += cadence
    return checkpoints


def static_reader():
    table = make_live_table(n_rows=600, seed=2)
    ids = table.ids()
    dataset = InMemoryDataset(ids, table.fetch_batch(ids), table.features())
    session = OpaqueQuerySession()
    session.register_table("t", dataset)
    binding = session._binding("t")
    return binding, dataset, binding.index_for()


def live_reader():
    table = make_live_table(n_rows=600, seed=2)
    session, _, _ = make_live_session(table, n_clusters=8)
    binding = session._binding("t")
    binding.pin()
    live = table.ids()
    table.delete(live[:250])
    table.update(live[250:350], np.random.default_rng(3).normal(
        size=(100, 3)), objects=[float(v) for v in range(100)])
    snapshot, freshness, tree = binding.pin()
    assert freshness == "rebuilt"
    return binding, snapshot, tree


@pytest.mark.parametrize("memo", [False, True], ids=["memo-off", "memo-on"])
@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("reader", [static_reader, live_reader],
                         ids=["static", "live"])
def test_pull_interface_and_run_agree(reader, batch, memo):
    binding, dataset, tree = reader()
    # A second a call: the fallback's slope test reads the scoring
    # latency, which the measured bandit overhead cannot tip.
    scorer = FunctionScorer(lambda v: max(0.0, float(v)),
                            latency=FixedPerCallLatency(1.0))
    config = EngineConfig(k=7, batch_size=batch, seed=11)
    budget = 450
    view = binding.memo_view("fp", dataset) if memo else None
    if memo:    # warm: part of what run draws is memoized
        TopKEngine(tree, EngineConfig(k=7, batch_size=batch, seed=5)).run(
            dataset, scorer, budget=200, memo=view)
        assert view.lookup_rows(list(range(len(dataset.block))))[1]
    ran = TopKEngine(tree, config)
    result = ran.run(dataset, scorer, budget=budget, memo=view)
    pulled = TopKEngine(tree, config, scoring_latency_hint=1.0)
    checkpoints = pull(pulled, dataset, scorer, budget)
    assert pulled.topk_items() == result.items
    assert (pulled.n_scored, pulled.t_batches, pulled.n_explore,
            pulled.n_exploit, pulled.fallback_events) == (
        result.n_scored, result.n_batches, result.n_explore,
        result.n_exploit, result.fallback_events)
    assert checkpoints == [(c.iteration, c.virtual_time, c.stk, c.threshold)
                           for c in result.checkpoints]
    assert pulled.snapshot()["buffer"] == ran.snapshot()["buffer"]


# -- the row rule on live tables ------------------------------------------------


def test_readers_either_side_of_an_update_equal_cold_runs():
    session, scorer, table = make_live_session()
    first = session.execute(EXHAUSTIVE)            # every row memoized
    top_id = first.items[0][0]
    before = session.plan(EXHAUSTIVE)              # pins the old row
    table.update([top_id], np.zeros((1, 3)), objects=[0.25])
    after = session.plan(EXHAUSTIVE)               # pins the new row
    calls = scorer.n_elements
    old = session.execute(before)
    assert scorer.n_elements == calls               # the old row's score
    assert answer(old) == answer(first) == cold_answer(before.dataset)
    new = session.execute(after)
    assert scorer.n_elements == calls + 1           # only the new row
    assert answer(new) == cold_answer(after.dataset)
    assert top_id not in [element_id for element_id, _ in new.items]


@pytest.mark.parametrize("n_deleted, rate", [(1, 1.0), (60, 0.0)])
def test_explain_counts_hits_through_its_own_pin(monkeypatch, n_deleted,
                                                 rate):
    session, _, table = make_live_session()
    session.execute(EXHAUSTIVE)                    # every row memoized
    binding = session._binding("t")
    sql = ("EXPLAIN SELECT TOP 5 FROM t ORDER BY f WHERE feature[0] > 0 "
           "SEED 3")
    fork = session.fork()
    pin = binding.pin
    deleted = []

    def pin_then_write():
        # Between this plan's pin and its probe, a fork deletes ids of
        # the plan's WHERE set first and follows the write.
        monkeypatch.setattr(binding, "pin", pin)
        pinned = pin()
        snapshot = pinned[0]
        kept = snapshot.features()[:, 0] > 0
        ids = np.asarray(snapshot.ids(), dtype=object)
        deleted.extend([*ids[kept], *ids[~kept]][:n_deleted])
        table.delete(deleted)
        fork.plan(sql)
        return pinned

    monkeypatch.setattr(binding, "pin", pin_then_write)
    plan = session.plan(sql)
    assert deleted[0] in plan.allowed_ids
    # One delete keeps the storage: every candidate is a hit.  Sixty
    # compact it: the run would miss every row it reads.
    assert plan.expected_hit_rate == rate


def test_memo_hits_survive_a_compaction():
    session, scorer, table = make_live_session(make_live_table(n_rows=60))
    session.execute(EXHAUSTIVE)
    store = session._binding("t").memo
    old = session.plan(EXHAUSTIVE)
    rows_before = table.stats()["rows_written"]
    table.delete(table.ids()[:31])                  # dead rows > live
    assert table.stats()["rows_written"] < rows_before  # compacted
    calls = scorer.n_elements
    warm = session.execute(EXHAUSTIVE)
    assert scorer.n_elements == calls               # all hits, remapped
    assert store.n_entries() == 29 == len(store._scores[
        old.fingerprint])
    assert answer(warm) == cold_answer(table.snapshot())
    # A reader of the storage before the compaction misses, records
    # nothing, and still answers exactly.
    stale = session.execute(old)
    assert scorer.n_elements == calls + 60
    assert store.n_entries() == 29
    assert answer(stale) == cold_answer(old.dataset)


def test_write_query_soak_keeps_the_memo_within_the_table_rows():
    table = make_live_table(n_rows=120, seed=6)
    session, _, _ = make_live_session(table, n_clusters=4)
    binding = session._binding("t")
    store = binding.memo
    generator = np.random.default_rng(9)
    sql = "SELECT TOP 5 FROM t ORDER BY f BUDGET 40 BATCH 8 SEED {}"
    for cycle in range(300):
        live = table.ids()
        picked = generator.choice(len(live), size=6, replace=False)
        table.delete([live[i] for i in picked[:3]])
        table.update([live[i] for i in picked[3:]],
                     generator.normal(size=(3, 3)),
                     objects=generator.normal(size=3).tolist())
        append_rows(table, generator.normal(size=3), prefix=f"c{cycle}")
        result = session.execute(sql.format(cycle % 7))
        assert len(result.items) == 5
        rows = table.stats()["rows_written"]
        (scores,) = store._scores.values()
        assert len(scores) <= rows
        assert store.n_entries() <= rows
        assert store._own is None and not store._stamps
        if cycle % 50 == 0:
            snapshot, _, tree = binding.pin()
            assert_leaves_name_rows(snapshot, tree)
    assert binding.maintainer.n_rebuilds >= 1
    assert table.stats()["writes"]["update"] == 300
