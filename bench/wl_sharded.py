"""``udf-sharded-2w``: the paper's regime — the UDF carries the wall.

One caller, memo off, a UDF that really sleeps 0.5 ms per element, two
shard worker threads (= ``nproc``).  ``core`` does little here; what
decides the wall beyond the sleeps is ``repro.parallel``: how well the
two workers overlap, the round merge, the threshold broadcast.  It is
the bypass workload for ``core`` changes (prediction: no change) and the
mechanism workload for ``parallel`` changes.

Sharded plans cache one partition index per query seed; a cold seed
costs ~1.9 s of k-means here, so the workload cycles three seeds and
warms each before the window.

The traced pass replays each plan on a ``ShardedTopKEngine`` built as
the sharded executor builds it (construct / start / run / close spans,
one ``scoring.score`` span per UDF batch from the worker threads), reads
the program's own ``trace=True`` span tree for per-shard busy time, and
repeats one cold query under a fresh UDF fingerprint to time the warm
memo path.
"""

from __future__ import annotations

from time import perf_counter, process_time
from typing import Dict, List

from repro.core.engine import EngineConfig
from repro.parallel.cache import ShardIndexCache
from repro.parallel.engine import ShardedTopKEngine
from repro.query import parse

from harness import (SYNC_INTERVAL, InProcessWorkload, Op, calibrate,
                     calls_to_q95, harness_metrics, layer_seconds, median,
                     memo_metrics, timed_loop)
from inputs import K, QUERY_SEEDS, TABLE, index_config
from spans import SpanRecorder

BUDGET = 500
BATCH = 8
WORKERS = 2
SQL = (f"SELECT TOP {K} FROM {TABLE} ORDER BY slow BUDGET {BUDGET} "
       f"BATCH {BATCH} WORKERS {WORKERS} BACKEND thread SEED {{seed}}")


class UdfSharded(InProcessWorkload):
    name = "udf-sharded-2w"
    needs = WORKERS
    variants = QUERY_SEEDS[:3]

    def _op(self, query_seed: int, use_cache: bool = False) -> Op:
        sql = SQL.format(seed=query_seed)
        calls = self.slow.calls
        start = perf_counter()
        result = self.session.execute(sql, use_cache=use_cache)
        wall = perf_counter() - start
        self.last_result = result
        # Each shard's last batch of a round may cross its cap.
        return Op(wall, result.items, result.budget_spent, BUDGET,
                  slack=WORKERS * BATCH,
                  udf_calls=self.slow.calls - calls, template=sql)

    def warm_up(self) -> None:
        # First sight of a seed builds its partition indexes.
        self.cold_walls = [self._op(seed).wall_s for seed in self.variants]

    def run_window(self, seconds: float) -> List[Op]:
        return timed_loop(seconds, self.order, self._op, lanes=WORKERS)

    # -- traced pass ---------------------------------------------------------

    def _replay(self, sql: str, recorder: SpanRecorder, operation: int):
        """The sharded executor's work through the engine's public API."""
        with recorder.open("op", operation) as root:
            with recorder.open("query.parse"):
                logical = parse(sql)
            with recorder.open("query.plan"):
                plan = self.session.plan(logical, use_cache=False)
            with recorder.open("parallel.construct"):
                engine = ShardedTopKEngine(
                    self.dataset, self.slow, k=plan.k,
                    n_workers=plan.workers, backend=plan.backend,
                    index_config=index_config(),
                    engine_config=EngineConfig(k=plan.k,
                                               batch_size=plan.batch_size),
                    sync_interval=SYNC_INTERVAL, seed=plan.seed,
                    index_cache=self.replay_cache)
            try:
                with recorder.open("parallel.start"):
                    engine.start()
                with recorder.open("parallel.run"):
                    self.slow.recorder = recorder
                    result = engine.run(plan.budget)
                    self.slow.recorder = None
            finally:
                with recorder.open("parallel.close"):
                    engine.close()
        return result.items, root.wall

    def trace_window(self, seconds: float,
                     recorder: SpanRecorder) -> Dict[str, float]:
        # The replay engines share one partition cache of their own (the
        # session's is private); warm it like the session's was warmed.
        self.replay_cache = ShardIndexCache()
        self.slow.timed = True
        throwaway = SpanRecorder()
        for query_seed in self.variants:
            self._replay(SQL.format(seed=query_seed), throwaway, -1)

        plain_walls, replay_walls, traced_walls, warm_walls = [], [], [], []
        cpu, calib, overlap, rounds, q95 = [], [], [], [], []
        shard_busy, shard_scoring, plain_ops = [], [], []
        obs_spans = 0
        deadline = perf_counter() + seconds
        iteration = 0
        while perf_counter() < deadline:
            query_seed = next(self.order)
            sql = SQL.format(seed=query_seed)
            calib.append(calibrate())
            busy, cpu_start = self.slow.busy_s, process_time()
            op = self._op(query_seed)
            cpu.append(process_time() - cpu_start)
            plain_walls.append(op.wall_s)
            overlap.append((self.slow.busy_s - busy) / op.wall_s)
            rounds.append(self.last_result.n_rounds)
            # One checkpoint per round of SYNC_INTERVAL calls per worker.
            q95.append(calls_to_q95(
                [(number * SYNC_INTERVAL * WORKERS, stk)
                 for number, (_wall, stk)
                 in enumerate(self.last_result.checkpoints, 1)],
                self.last_result.stk))
            plain_ops.append(op)

            items, wall = self._replay(sql, recorder, iteration)
            replay_walls.append(wall)
            if items != op.items:
                self.trace_violations.append(
                    f"replay of {sql!r} differs from session.execute")

            # The program's own span tree: per-shard busy time.
            busy = self.slow.busy_s
            start = perf_counter()
            traced = self.session.execute(sql, use_cache=False, trace=True)
            traced_walls.append(perf_counter() - start)
            shard_scoring.append(self.slow.busy_s - busy)
            shard_busy.append(sum(
                span.wall for _depth, span in traced.trace.walk()
                if span.name.startswith("shard[")))
            obs_spans = traced.trace.span_count()
            if traced.items != op.items:
                self.trace_violations.append(
                    f"trace=True changed the answer of {sql!r}")

            # Memo: cold under a fresh fingerprint, then the warm repeat.
            self.slow.salt += 1
            cold = self._op(query_seed, use_cache=True)
            warm = self._op(query_seed, use_cache=True)
            warm_walls.append(warm.wall_s)
            self.traced_ops += [op, cold, warm]
            if warm.udf_calls != 0:
                self.trace_violations.append(
                    f"warm repeat of {sql!r} made {warm.udf_calls} UDF "
                    f"calls")
            if not cold.items == warm.items == op.items:
                self.trace_violations.append(
                    f"memo changed the answer of {sql!r}")
            iteration += 1
        self.slow.timed = False

        times = recorder.self_times()
        score_s = layer_seconds(times, "scoring.")
        attributed = [wall - times[op_id]["op"]
                      for op_id, wall in enumerate(replay_walls)]
        calls = median([op.udf_calls for op in plain_ops])
        return {
            **self.index_metrics(),
            "query.parse_us": median(
                layer_seconds(times, "query.parse")) * 1e6,
            "query.plan_ms": median(
                layer_seconds(times, "query.plan")) * 1e3,
            # Worker time outside the UDF: select, fetch, observe.
            "core.share": median([(b - s) / b for b, s
                                  in zip(shard_busy, shard_scoring)]),
            "core.calls_to_q95": median(q95),
            "scoring.score_s": median(score_s),
            "scoring.share": median([s / b for b, s
                                     in zip(shard_busy, shard_scoring)]),
            "scoring.udf_calls": calls,
            "scoring.batches": calls / BATCH,
            **memo_metrics(self.session.cache_stats(TABLE)),
            "memo.warm_query_ms": median(warm_walls) * 1e3,
            "parallel.bootstrap_ms": (median(self.cold_walls)
                                      - median(plain_walls)) * 1e3,
            "parallel.rounds": median(rounds),
            "parallel.overlap_ratio": median(overlap),
            "session.glue_ms": (median(plain_walls)
                                - median(attributed)) * 1e3,
            "session.cpu_ms_per_op": median(cpu) * 1e3,
            "obs.trace_overhead_ratio": (median(traced_walls)
                                         / median(plain_walls)),
            "obs.spans": obs_spans,
            **harness_metrics(recorder, times, plain_walls, replay_walls,
                              calib),
        }
