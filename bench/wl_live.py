"""``live-append``: writes beside reads, and the vectorised core path.

One operation commits a batch of writes to a ``LiveTable`` over ``mix``
— 100 rows deleted, 100 fresh mixture rows appended, on every 8th
operation also 50 rows updated — and then queries it with the memo
**on**: ``BUDGET 4% BATCH 64``.  It is the "same layer, used
differently" workload: ``index`` is maintained incrementally instead of
built, ``data`` copies a snapshot per write, ``memo`` reconciles the
write log and serves most scores, and ``core`` runs batched.  Most of an
operation is write-induced work — the O(n)-per-write candidate.

Sizing.

* **The table does not grow.**  Everything an operation does scales with
  the row count, so with appends alone (200 rows per operation on 50 000)
  the operation time rose from 166 ms to 360 ms over 370 operations, and
  the median depended on how many operations the window held.  Deleting
  as many rows as are appended keeps it level.
* **100 + 100 rows, not 200 + 200.**  The index maintainer rebuilds from
  scratch once cumulative churn passes half the table; ~206 rows of
  churn per operation keep that beyond 240 operations, more than a
  window holds, so no window pays a 2.5 s rebuild that another does not.
* **``BUDGET 4%``** is below the winner cluster's share of the table
  (5 %), so the answer cannot be exact and ``stk_ratio`` (0.996) has
  room to move either way.  It also keeps the fallback warm-up, whose
  checks depend on measured time, out of reach.

``udf_calls_per_op`` is the mean over a fixed set of operations from a
cold memo: the 8 of the warm-up (each query seed once) and the first 56
of the window, which runs on until it has that many.  With the memo on,
each operation calls the UDF less than the one before (4 000 -> 250 over
130 operations), so a mean over *all* of the window would depend on how
many operations fit in it.  Writes, query seeds and therefore the calls
of operation ``i`` are a function of ``--seed`` alone.

The traced pass alternates plain operations with instrumented ones
(append / snapshot / plan / execute spans, then a steady-state repeat
that must return the same answer).  The pull loop cannot be replayed
here: the maintained index of a live table has no public handle.
"""

from __future__ import annotations

import statistics
from time import perf_counter, process_time
from typing import Dict, List

from repro.live import LiveTable
from repro.memo import MemoStore

from harness import (EXHAUSTIVE_SQL, InProcessWorkload, Op, calibrate,
                     calls_to_q95, harness_metrics, layer_seconds, median,
                     memo_metrics, shm_leaks, timed_loop)
from inputs import K, QUERY_SEEDS, TABLE, WriteStream
from spans import SpanRecorder

#: Rows deleted and rows appended by every operation.
WRITE_ROWS = 100
UPDATE_EVERY = 8
UPDATE_ROWS = 50
BATCH = 64
BUDGET_PERCENT = 4
SQL = (f"SELECT TOP {K} FROM {TABLE} ORDER BY free BUDGET {BUDGET_PERCENT}% "
       f"BATCH {BATCH} SEED {{seed}}")
#: Window operations ``udf_calls_per_op`` counts (see module docstring).
CALLS_OPS = 56


class LiveAppend(InProcessWorkload):
    name = "live-append"
    variants = QUERY_SEEDS

    def make_dataset(self):
        return LiveTable(self.table.ids, self.table.values,
                         self.table.features, name=TABLE)

    def setup(self, traced: bool = False) -> None:
        super().setup(traced)
        self.writes = WriteStream(self.seed, self.table)
        self.n_ops = 0
        self.exhaustive_items = None

    def _draw_writes(self) -> List[tuple]:
        """The next operation's writes: ``(kind, ids, values, features)``.

        Deletes and updates go first.  The session folds all of an
        operation's writes into the index in one ``advance``; when an
        append earlier in that batch splits a leaf, the split reads the
        post-batch snapshot and fails on a member a later delete of the
        same batch removed (``unknown element id``, hit at seed 48 after
        ~100 operations).  That is a defect of ``repro.live`` for a
        later issue; a benchmark needs operations that do not fail.
        """
        self.n_ops += 1
        drawn = [("delete", self.writes.delete(WRITE_ROWS), None, None)]
        if self.n_ops % UPDATE_EVERY == 0:
            drawn.append(("update", *self.writes.update(UPDATE_ROWS)))
        drawn.append(("append", *self.writes.append(WRITE_ROWS)))
        return drawn

    def _commit(self, writes: List[tuple]) -> None:
        table = self.dataset
        for kind, ids, values, features in writes:
            if kind == "delete":
                table.delete(ids)
            elif kind == "update":
                table.update(ids, features, values)
            else:
                table.append(ids, values, features)

    def _query(self, sql: str, writes: List[tuple], start: float) -> Op:
        calls = self.free.calls
        result = self.session.execute(sql)
        wall = perf_counter() - start
        self.last_result = result
        return Op(wall, result.items, result.budget_spent,
                  max(K, int(BUDGET_PERCENT / 100.0 * len(self.table.ids))),
                  slack=BATCH - 1, udf_calls=self.free.calls - calls,
                  template=sql,
                  writes=[write[:3] for write in writes])

    def _op(self, query_seed: int) -> Op:
        sql = SQL.format(seed=query_seed)
        # Drawing the rows is the benchmark's work: before the clock.
        writes = self._draw_writes()
        start = perf_counter()
        self._commit(writes)
        return self._query(sql, writes, start)

    def warm_up(self) -> None:
        # Not thrown away: the oracle must see every write.
        self.warm_ops = [self._op(seed) for seed in self.variants]

    def run_window(self, seconds: float) -> List[Op]:
        return timed_loop(seconds, self.order, self._op, at_least=CALLS_OPS)

    def verify(self, ops: List[Op]) -> None:
        super().verify(self.warm_ops)
        super().verify(ops)
        # Only now has the oracle replayed every write: the exhaustive
        # answer of the traced pass is checked against the final table.
        if self.exhaustive_items is not None:
            self.trace_violations += self.oracle.violations(
                self.exhaustive_items, exhaustive=True)

    def hygiene(self) -> List[str]:
        return [f"leaked shared-memory segment {path}"
                for path in shm_leaks()]

    def udf_calls_per_op(self, ops: List[Op]) -> float:
        counted = self.warm_ops + ops[:CALLS_OPS]
        return float(statistics.fmean(op.udf_calls for op in counted))

    # -- traced pass ---------------------------------------------------------

    def _traced_op(self, sql: str, recorder: SpanRecorder,
                   operation: int) -> Op:
        """One operation, a span at every boundary the program exposes."""
        writes = self._draw_writes()
        with recorder.open("op", operation) as root:
            with recorder.open("live.append"):
                self._commit(writes)
            with recorder.open("live.snapshot"):
                self.dataset.snapshot()
            with recorder.open("query.plan"):
                self.session.plan(sql)
            with recorder.open("session.execute"):
                op = self._query(sql, writes, root.start)
        return op

    def trace_window(self, seconds: float,
                     recorder: SpanRecorder) -> Dict[str, float]:
        plain_walls, traced_walls, steady_walls, steady_plans = [], [], [], []
        cpu, calib, obs_walls, results = [], [], [], []
        lookup_us, record_us = [], []
        obs_spans = 0
        scratch_memo = MemoStore().view("bench")
        deadline = perf_counter() + seconds
        iteration = 0
        while perf_counter() < deadline:
            query_seed = next(self.order)
            sql = SQL.format(seed=query_seed)
            calib.append(calibrate())
            cpu_start = process_time()
            plain = self._op(query_seed)
            cpu.append(process_time() - cpu_start)
            plain_walls.append(plain.wall_s)
            results.append(self.last_result)

            traced = self._traced_op(sql, recorder, iteration)
            traced_walls.append(traced.wall_s)

            # Steady state: same query, no write in between.  The memo
            # is transparent, so the answer must not change.
            start = perf_counter()
            self.session.plan(sql)
            steady_plans.append(perf_counter() - start)
            start = perf_counter()
            steady = self._query(sql, [], start)
            steady_walls.append(steady.wall_s)
            if steady.items != traced.items:
                self.trace_violations.append(
                    f"steady repeat of {sql!r} changed the answer")
            self.traced_ops += [plain, traced, steady]

            if iteration % 4 == 0:
                start = perf_counter()
                observed = self.session.execute(sql, trace=True)
                obs_walls.append(perf_counter() - start)
                obs_spans = observed.trace.span_count()
                if observed.items != traced.items:
                    self.trace_violations.append(
                        f"trace=True changed the answer of {sql!r}")

            # The memo view's own cost, per id, on a store of ours.
            ids = [row[0] for row in traced.items]
            scores = [row[1] for row in traced.items]
            start = perf_counter()
            for _ in range(20):
                scratch_memo.record(ids, scores)
            middle = perf_counter()
            for _ in range(20):
                scratch_memo.lookup(ids)
            end = perf_counter()
            record_us.append((middle - start) / (20 * len(ids)) * 1e6)
            lookup_us.append((end - middle) / (20 * len(ids)) * 1e6)
            iteration += 1
        self.exhaustive_items = self.session.execute(
            EXHAUSTIVE_SQL, use_cache=False).items

        times = recorder.self_times()
        post_write = [t.get("live.snapshot", 0.0) + t.get("query.plan", 0.0)
                      + t.get("session.execute", 0.0)
                      for op_id, t in sorted(times.items()) if op_id >= 0]
        info = self.session.table_info(TABLE)
        scored = median([r.n_scored for r in results])
        return {
            **self.index_metrics(),
            "query.plan_ms": median(steady_plans) * 1e3,
            "core.n_batches": median([r.n_batches for r in results]),
            "core.n_explore": median([r.n_explore for r in results]),
            "core.n_exploit": median([r.n_exploit for r in results]),
            "core.fallback_events": median(
                [len(r.fallback_events) for r in results]),
            "core.calls_to_q95": median(
                [calls_to_q95([(c.iteration, c.stk)
                               for c in r.checkpoints], r.stk)
                 for r in results]),
            "scoring.udf_calls": median(
                [op.udf_calls for op in self.traced_ops]),
            "scoring.batches": scored / BATCH,
            "memo.lookup_us_per_id": median(lookup_us),
            "memo.record_us_per_id": median(record_us),
            **memo_metrics(self.session.cache_stats(TABLE)),
            "live.append_ms": median(
                layer_seconds(times, "live.append")) * 1e3,
            "live.snapshot_ms": median(
                layer_seconds(times, "live.snapshot")) * 1e3,
            "live.post_write_plan_ms": median(
                layer_seconds(times, "query.plan")) * 1e3,
            "live.steady_plan_ms": median(steady_plans) * 1e3,
            "live.post_write_query_ms": median(post_write) * 1e3,
            "live.steady_query_ms": median(steady_walls) * 1e3,
            "live.rebuilds": info.get("index_rebuilds", 0),
            "live.deltas_len": len(self.dataset.deltas_since(0)),
            "session.glue_ms": (median(plain_walls)
                                - median(traced_walls)) * 1e3,
            "session.cpu_ms_per_op": median(cpu) * 1e3,
            "obs.trace_overhead_ratio": (median(obs_walls)
                                         / median(steady_walls)),
            "obs.spans": obs_spans,
            **harness_metrics(recorder, times, plain_walls, traced_walls,
                              calib),
        }
