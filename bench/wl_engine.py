"""``engine-scalar``: the scalar select/observe path, alone.

One caller, memo off, ``BATCH 1`` over the virtual-latency UDF: nearly
all of the wall is ``repro.core`` choosing a leaf and folding one score
into the histograms, a thousand times per query.  ``scoring``,
``parallel``, ``service`` and ``live`` do nothing, so a bookkeeping
optimisation must show here — and nowhere else.

The traced pass replays each query's plan through the pull interface
(``next_batch`` → ``fetch_batch`` → ``score_batch`` → ``observe``) with
the ``EngineConfig`` the single executor would build, one chained span
per call.
"""

from __future__ import annotations

from time import perf_counter, process_time
from typing import Dict, List

from repro.core.engine import EngineConfig, TopKEngine
from repro.query import parse

from harness import (EXHAUSTIVE_SQL, InProcessWorkload, Op, calibrate,
                     calls_to_q95, harness_metrics, layer_seconds, median,
                     timed_loop)
from inputs import K, QUERY_SEEDS, TABLE
from spans import SpanRecorder

BUDGET = 1000
SQL = (f"SELECT TOP {K} FROM {TABLE} ORDER BY free "
       f"BUDGET {BUDGET} BATCH 1 SEED {{seed}}")

class EngineScalar(InProcessWorkload):
    name = "engine-scalar"
    variants = QUERY_SEEDS

    def _op(self, query_seed: int) -> Op:
        sql = SQL.format(seed=query_seed)
        calls = self.free.calls
        start = perf_counter()
        result = self.session.execute(sql, use_cache=False)
        wall = perf_counter() - start
        self.last_result = result
        return Op(wall, result.items, result.budget_spent, BUDGET,
                  udf_calls=self.free.calls - calls, template=sql)

    def warm_up(self) -> None:
        for query_seed in self.variants:
            self._op(query_seed)

    def run_window(self, seconds: float) -> List[Op]:
        return timed_loop(seconds, self.order, self._op)

    # -- traced pass ---------------------------------------------------------

    def _replay(self, sql: str, recorder: SpanRecorder, operation: int):
        """The single executor's work, one span per layer call."""
        scorer, dataset = self.free, self.dataset
        with recorder.open("op", operation) as root:
            chain = recorder.chain()
            logical = parse(sql)
            chain.lap("query.parse")
            plan = self.session.plan(logical, use_cache=False)
            chain.lap("query.plan")
            engine = TopKEngine(
                self.index,
                EngineConfig(k=plan.k, batch_size=plan.batch_size,
                             seed=plan.seed),
                scoring_latency_hint=scorer.batch_cost(plan.batch_size)
                / max(1, plan.batch_size))
            chain.lap("core.construct")
            limit = min(plan.budget, engine.n_total)
            next_batch, observe = engine.next_batch, engine.observe
            fetch, score, lap = (dataset.fetch_batch, scorer.score_batch,
                                 chain.lap)
            while engine.n_scored < limit and not engine.exhausted:
                ids = next_batch()
                lap("core.select")
                objects = fetch(ids)
                lap("data.fetch")
                scores = score(objects)
                lap("scoring.score")
                observe(ids, scores)
                lap("core.observe")
            items = engine.topk_items()
            chain.lap("core.result")
        return items, root.wall

    def trace_window(self, seconds: float,
                     recorder: SpanRecorder) -> Dict[str, float]:
        plain_walls, replay_walls, traced_walls = [], [], []
        cpu, calib, obs_spans = [], [], 0
        results = []
        deadline = perf_counter() + seconds
        iteration = 0
        while perf_counter() < deadline:
            query_seed = next(self.order)
            sql = SQL.format(seed=query_seed)
            calib.append(calibrate())
            cpu_start = process_time()
            op = self._op(query_seed)
            cpu.append(process_time() - cpu_start)
            plain_walls.append(op.wall_s)
            results.append(self.last_result)
            items, wall = self._replay(sql, recorder, iteration)
            replay_walls.append(wall)
            if items != op.items:
                self.trace_violations.append(
                    f"replay of {sql!r} differs from session.execute")
            if iteration % 4 == 0:
                start = perf_counter()
                traced = self.session.execute(sql, use_cache=False,
                                              trace=True)
                traced_walls.append(perf_counter() - start)
                obs_spans = traced.trace.span_count()
                if traced.items != op.items:
                    self.trace_violations.append(
                        f"trace=True changed the answer of {sql!r}")
            self.traced_ops.append(op)
            iteration += 1
        exhaustive = self.session.execute(EXHAUSTIVE_SQL, use_cache=False)
        self.trace_violations += self.oracle.violations(
            exhaustive.items, exhaustive=True)

        times = recorder.self_times()
        scored = float(BUDGET)
        select = layer_seconds(times, "core.select")
        observe = layer_seconds(times, "core.observe")
        core = layer_seconds(times, "core.")
        score_s = layer_seconds(times, "scoring.")
        attributed = [wall - times[op_id]["op"]
                      for op_id, wall in enumerate(replay_walls)]
        metrics = self.index_metrics()
        metrics.update({
            "query.parse_us": median(
                layer_seconds(times, "query.parse")) * 1e6,
            "query.plan_ms": median(
                layer_seconds(times, "query.plan")) * 1e3,
            "core.select_us_per_elem": median(select) / scored * 1e6,
            "core.observe_us_per_elem": median(observe) / scored * 1e6,
            "core.share": median(
                [c / w for c, w in zip(core, replay_walls)]),
            "core.n_batches": median([r.n_batches for r in results]),
            "core.n_explore": median([r.n_explore for r in results]),
            "core.n_exploit": median([r.n_exploit for r in results]),
            "core.fallback_events": median(
                [len(r.fallback_events) for r in results]),
            "core.calls_to_q95": median(
                [calls_to_q95([(c.iteration, c.stk)
                               for c in r.checkpoints], r.stk)
                 for r in results]),
            "data.fetch_us_per_elem": median(
                layer_seconds(times, "data.fetch")) / scored * 1e6,
            "scoring.score_s": median(score_s),
            "scoring.share": median(
                [s / w for s, w in zip(score_s, replay_walls)]),
            "scoring.udf_calls": median(
                [op.udf_calls for op in self.traced_ops]),
            "scoring.batches": scored,
            "memo.entries": self.session.cache_stats(TABLE)["entries"],
            "session.glue_ms": (median(plain_walls)
                                - median(attributed)) * 1e3,
            "session.cpu_ms_per_op": median(cpu) * 1e3,
            "obs.trace_overhead_ratio": (median(traced_walls)
                                         / median(plain_walls)),
            "obs.spans": obs_spans,
            **harness_metrics(recorder, times, plain_walls, replay_walls,
                              calib),
        })
        return metrics
