"""Observability (PR 8): spans, metrics, EXPLAIN ANALYZE, trace export.

Covers the :mod:`repro.obs` primitives in isolation, the differential
contract that tracing never changes an answer (trace-on vs trace-off
bit-identity across every engine mode × backend), the span-tree shape
pins for ``EXPLAIN ANALYZE`` on fixed-seed queries, the Stopwatch
re-entrancy fix, the replayed-timeline contract, and the CLI surface
(``--trace-out`` emits Chrome trace-event JSON).
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data.dataset import InMemoryDataset
from repro.errors import (QueryCancelledError, ReplayDivergenceError,
                          SerializationError)
from repro.index.builder import IndexConfig
from repro.obs.analyze import ExplainAnalyzeReport
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import COUNTER_KEYS, TRACE_FORMAT, Span, TraceContext
from repro.parallel.backends import SerialBackend
from repro.parallel.engine import ShardedTopKEngine
from repro.replay import replay_run
from repro.scoring.base import CountingScorer, FixedPerCallLatency
from repro.scoring.relu import ReluScorer
from repro.session import OpaqueQuerySession
from repro.streaming.engine import StreamingTopKEngine
from repro.utils.timer import Stopwatch

N_ROWS = 800
K = 10
BUDGET = 240
BATCH = 16
SEED = 7
WORKERS = 2

#: Every (mode, backend) cell of the differential matrix.
MATRIX = [
    ("single", None),
    ("sharded", "serial"),
    ("sharded", "thread"),
    ("sharded", "process"),
    ("streaming", "serial"),
    ("streaming", "thread"),
    ("streaming", "process"),
]


def build_dataset(n: int = N_ROWS) -> InMemoryDataset:
    rng = np.random.default_rng(0)
    values = np.maximum(rng.normal(1.0, 0.5, n), 0.0)
    return InMemoryDataset(
        [f"e{i}" for i in range(n)], values.tolist(),
        np.column_stack([values, rng.random(n)]),
    )


def build_session(dataset: InMemoryDataset,
                  enable_cache: bool = False) -> OpaqueQuerySession:
    session = OpaqueQuerySession(enable_cache=enable_cache)
    session.register_table(
        "t", dataset, index_config=IndexConfig(n_clusters=8, flat=True))
    session.register_udf("score", ReluScorer(FixedPerCallLatency(1e-4)))
    return session


def query_text(mode: str, backend=None) -> str:
    """The mode's statement; ``backend`` shards it by WORKERS/BACKEND."""
    text = (f"SELECT TOP {K} FROM t ORDER BY score "
            f"BUDGET {BUDGET} BATCH {BATCH} SEED {SEED}")
    if mode != "single" and backend is not None:
        text += f" WORKERS {WORKERS} BACKEND {backend}"
    if mode == "streaming":
        text += " STREAM"
    return text


# ---------------------------------------------------------------------------
# Stopwatch re-entrancy (satellite a)
# ---------------------------------------------------------------------------


class TestStopwatchReentrancy:
    def test_nested_blocks_count_wall_once(self):
        sw = Stopwatch()
        with sw:
            with sw:
                with sw:
                    pass
        assert sw._depth == 0
        first = sw.elapsed
        assert first >= 0.0
        # A second, separate block accumulates — nesting did not corrupt
        # the start slot.
        with sw:
            pass
        assert sw.elapsed >= first

    def test_nested_exit_does_not_double_charge(self):
        import time

        sw = Stopwatch()
        with sw:
            with sw:
                time.sleep(0.01)
        # Were each nested exit charging, elapsed would be ~2x the sleep.
        assert sw.elapsed < 0.015 * 2

    def test_reset_clears_depth(self):
        sw = Stopwatch()
        with sw:
            pass
        sw.reset()
        assert sw.elapsed == 0.0 and sw._depth == 0
        with sw:
            pass
        assert sw._depth == 0


# ---------------------------------------------------------------------------
# Span primitives
# ---------------------------------------------------------------------------


class TestSpans:
    def test_counters_roll_up_to_parent(self):
        trace = TraceContext()
        with trace.span("outer"):
            with trace.span("inner"):
                trace.add(udf_calls=10, vclock=0.5)
            trace.add(udf_calls=1)
        outer = trace.roots[0]
        assert outer.counters["udf_calls"] == 11
        assert outer.counters["vclock"] == 0.5
        assert outer.children[0].counters["udf_calls"] == 10

    def test_add_outside_any_span_is_noop(self):
        trace = TraceContext()
        trace.add(udf_calls=5)
        assert trace.roots == []

    def test_native_round_trip(self):
        trace = TraceContext()
        with trace.span("a", mode="x"):
            trace.add(scored=3)
            with trace.span("b"):
                trace.add(memo_hits=2)
        payload = trace.to_dict()
        assert payload["format"] == TRACE_FORMAT
        rebuilt = TraceContext.from_dict(json.loads(json.dumps(payload)))
        assert rebuilt.to_dict() == payload
        assert rebuilt.walk_names() == trace.walk_names()

    def test_from_dict_rejects_unknown_format(self):
        with pytest.raises(SerializationError, match="repro-trace/1"):
            TraceContext.from_dict({"format": "bogus", "spans": []})

    def test_attach_rebases_and_merges(self):
        trace = TraceContext()
        fragment = Span("shard[0].slice[0]", start=100.0, wall=0.25,
                        counters={"scored": 40.0}).to_dict()
        with trace.span("round[0]"):
            attached = trace.attach(fragment, rename="shard[0]")
        assert attached.name == "shard[0]"
        # Rebased so the fragment *ends* at the coordinator's now — its
        # recorded start=100 (the worker's own clock) is discarded.
        end = attached.start + attached.wall
        assert attached.start != 100.0
        assert 0.0 <= end < 1.0
        assert attached.wall == 0.25
        assert trace.roots[0].counters["scored"] == 40.0

    def test_chrome_trace_fields(self):
        trace = TraceContext()
        with trace.span("parse"):
            pass
        with trace.span("execute[single]"):
            with trace.span("window[0]"):
                trace.add(udf_calls=4)
        events = trace.to_chrome_trace()
        assert len(events) == 3
        for event in events:
            assert event["ph"] == "X"
            assert {"name", "ts", "dur", "pid", "tid", "cat",
                    "args"} <= set(event)
        depths = [e["tid"] for e in events]
        assert depths == [0, 0, 1]
        assert events[1]["args"]["udf_calls"] == 4
        json.dumps(events)   # must be JSON-safe end to end

    def test_timeline_excludes_real_stopwatch(self):
        trace = TraceContext()
        with trace.span("drive[0]"):
            trace.add(scored=5)
        (entry,) = trace.timeline()
        assert set(entry) == {"depth", "name", "counters"}
        assert entry["counters"]["scored"] == 5

    def test_render_has_cost_columns(self):
        trace = TraceContext()
        with trace.span("round[0]", threshold=1.25):
            trace.add(udf_calls=7, memo_hits=3, vclock=0.1)
        text = trace.render()
        assert re.search(r"span\s+wall\s+vclock\s+udf\s+memo", text)
        assert "threshold=1.25" in text

    def test_counter_keys_vocabulary(self):
        assert COUNTER_KEYS == ("vclock", "udf_calls", "memo_hits",
                                "scored")


# ---------------------------------------------------------------------------
# Metrics primitives
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_and_negative_rejected(self):
        registry = MetricsRegistry()
        calls = registry.counter("calls", "test counter")
        calls.inc(3, table="a")
        calls.inc(table="a")
        calls.inc(5, table="b")
        assert calls.value(table="a") == 4
        assert calls.value(table="b") == 5
        with pytest.raises(ValueError):
            calls.inc(-1, table="a")

    def test_gauge_set(self):
        registry = MetricsRegistry()
        width = registry.gauge("width", "test gauge")
        width.set(0.5, mode="single")
        width.set(0.25, mode="single")
        assert width.value(mode="single") == 0.25

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lag", "test histogram",
                                  buckets=(1, 5, 10))
        for value in (0, 1, 3, 7, 100):
            hist.observe(value)
        (cell,) = registry.snapshot()["lag"]["values"]
        assert cell["value"]["count"] == 5
        assert cell["value"]["sum"] == 111
        assert cell["value"]["buckets"]["1"] == 2     # 0, 1
        assert cell["value"]["buckets"]["5"] == 3     # + 3
        assert cell["value"]["buckets"]["10"] == 4    # + 7
        assert cell["value"]["buckets"]["+inf"] == 5  # + 100

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", "as counter")
        with pytest.raises(TypeError):
            registry.gauge("x", "as gauge")

    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("x", "one")
        b = registry.counter("x", "one")
        assert a is b

    def test_reset_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("x", "h")
        counter.inc(9, q="z")
        registry.reset()
        assert counter.value(q="z") == 0
        assert "x" in registry.names()

    def test_global_registry_preregistered(self):
        names = REGISTRY.names()
        for expected in ("queries_total", "udf_calls_total",
                         "memo_hits_total", "memo_hit_rate",
                         "rounds_total", "slices_total",
                         "threshold_staleness", "bound_width"):
            assert expected in names
        described = {m["name"]: m["type"] for m in REGISTRY.describe()}
        assert described["queries_total"] == "counter"
        assert described["bound_width"] == "gauge"
        assert described["threshold_staleness"] == "histogram"
        json.dumps(REGISTRY.snapshot())


# ---------------------------------------------------------------------------
# Differential matrix: tracing never changes the answer (satellite c)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset():
    return build_dataset()


class TestTraceDifferential:
    @pytest.mark.parametrize("mode,backend", MATRIX,
                             ids=[f"{m}-{b}" for m, b in MATRIX])
    def test_trace_on_off_bit_identical(self, dataset, mode, backend):
        sql = query_text(mode, backend)
        off = build_session(dataset).execute(sql)
        on = build_session(dataset).execute(sql, trace=True)
        assert on.ids == off.ids
        assert on.scores == off.scores
        assert on.budget_spent == off.budget_spent
        assert getattr(off, "trace", None) is None
        assert on.trace is not None and on.trace.span_count() >= 3

    @pytest.mark.parametrize("mode,backend", MATRIX,
                             ids=[f"{m}-{b}" for m, b in MATRIX])
    def test_trace_counters_match_result(self, dataset, mode, backend):
        session = build_session(dataset)
        result = session.execute(query_text(mode, backend), trace=True)
        execute_span = next(span for _, span in result.trace.walk()
                            if span.name == f"execute[{mode}]")
        scored = (result.n_scored if mode == "single"
                  else result.total_scored)
        assert execute_span.counters["scored"] == scored
        # Cache is off: every scored element paid a UDF call.
        assert execute_span.counters["udf_calls"] == scored
        assert execute_span.counters.get("memo_hits", 0) == 0

    def test_memo_hits_counted_in_spans(self, dataset):
        session = build_session(dataset, enable_cache=True)
        session.execute(query_text("single"))
        warm = session.execute(query_text("single"), trace=True)
        execute_span = next(span for _, span in warm.trace.walk()
                            if span.name == "execute[single]")
        assert execute_span.counters["memo_hits"] > 0
        assert execute_span.counters.get("udf_calls", 0) < \
            execute_span.counters["scored"]

    def test_serial_trace_timeline_deterministic(self, dataset):
        runs = [
            build_session(dataset).execute(
                query_text("sharded", "serial"),
                trace=True).trace.timeline()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_stream_iterator_records_trace(self, dataset):
        session = build_session(dataset)
        snapshots = list(session.stream(
            query_text("streaming", "serial"), trace=True))
        assert snapshots[-1].converged
        names = [name for _, name in session.last_trace.walk_names()]
        assert names[:2] == ["parse", "plan"]
        assert any(name.startswith("drive[") for name in names)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE: report + span-tree shape pins (satellite c)
# ---------------------------------------------------------------------------


class TestExplainAnalyze:
    def run_report(self, dataset, mode) -> ExplainAnalyzeReport:
        session = build_session(dataset)
        report = session.execute(
            "EXPLAIN ANALYZE " + query_text(mode, "serial"))
        assert isinstance(report, ExplainAnalyzeReport)
        return report

    def test_parse_flags(self):
        from repro.query import parse

        plan = parse("EXPLAIN ANALYZE SELECT TOP 5 FROM t ORDER BY f")
        assert plan.explain and plan.analyze
        assert plan.canonical_text().startswith("EXPLAIN ANALYZE SELECT")
        assert parse(plan.canonical_text()) == plan
        plain = parse("EXPLAIN SELECT TOP 5 FROM t ORDER BY f")
        assert plain.explain and not plain.analyze

    def test_plain_explain_still_returns_plan(self, dataset):
        from repro.query.plan import ExecutionPlan

        session = build_session(dataset)
        plan = session.execute("EXPLAIN " + query_text("single"))
        assert isinstance(plan, ExecutionPlan)

    def test_single_span_tree_shape(self, dataset):
        report = self.run_report(dataset, "single")
        names = report.trace.walk_names()
        assert names[:3] == [(0, "parse"), (0, "plan"),
                             (0, "execute[single]")]
        assert names[3] == (1, "run[single]")
        windows = [name for depth, name in names if depth == 2]
        assert windows == [f"window[{i}]" for i in range(len(windows))]
        assert len(windows) >= 1

    def test_sharded_span_tree_shape(self, dataset):
        report = self.run_report(dataset, "sharded")
        names = report.trace.walk_names()
        assert names[:3] == [(0, "parse"), (0, "plan"),
                             (0, "execute[sharded]")]
        rounds = [name for depth, name in names if depth == 1]
        assert rounds == [f"round[{i}]" for i in range(len(rounds))]
        assert len(rounds) >= 1
        shards = [name for depth, name in names if depth == 2]
        # Serial backend: every round reports every shard, in order.
        assert shards == [f"shard[{j}]" for _ in rounds
                          for j in range(WORKERS)]

    def test_streaming_span_tree_shape(self, dataset):
        report = self.run_report(dataset, "streaming")
        names = report.trace.walk_names()
        assert names[:3] == [(0, "parse"), (0, "plan"),
                             (0, "execute[streaming]")]
        assert names[3] == (1, "drive[0]")
        slices = [name for depth, name in names if depth == 2]
        assert slices and all(
            re.fullmatch(r"shard\[\d+\]\.slice\[\d+\]", name)
            for name in slices)

    def test_render_pairs_plan_with_measurements(self, dataset):
        report = self.run_report(dataset, "sharded")
        text = report.render()
        assert "== execution plan ==" in text
        assert "== analyze ==" in text
        assert text.index("== execution plan ==") < text.index("== analyze ==")
        assert "EXPLAIN ANALYZE SELECT" in text
        assert "answer: top-" in text
        assert "shard[0]" in text

    def test_report_to_dict_json_safe(self, dataset):
        report = self.run_report(dataset, "single")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ids"] == list(report.result.ids)
        rebuilt = TraceContext.from_dict(payload["trace"])
        assert rebuilt.walk_names() == report.trace.walk_names()

    def test_analyze_answer_matches_untraced(self, dataset):
        report = self.run_report(dataset, "single")
        plain = build_session(dataset).execute(query_text("single"))
        assert report.result.ids == plain.ids
        assert report.result.scores == plain.scores


# ---------------------------------------------------------------------------
# Session-level metrics
# ---------------------------------------------------------------------------


class TestSessionMetrics:
    def test_queries_and_bounds_recorded(self, dataset):
        REGISTRY.reset()
        session = build_session(dataset)
        session.execute(query_text("single"))
        session.execute(query_text("sharded", "serial"))
        snapshot = REGISTRY.snapshot()
        totals = {tuple(sorted(cell["labels"].items())): cell["value"]
                  for cell in snapshot["queries_total"]["values"]}
        assert totals[(("mode", "single"), ("table", "t"))] == 1
        assert totals[(("mode", "sharded"), ("table", "t"))] == 1
        modes = {cell["labels"]["mode"]
                 for cell in snapshot["bound_width"]["values"]}
        assert {"single", "sharded"} <= modes
        udf = sum(cell["value"]
                  for cell in snapshot["udf_calls_total"]["values"])
        assert udf >= 2 * BUDGET

    def test_memo_hit_rate_gauge(self, dataset):
        REGISTRY.reset()
        session = build_session(dataset, enable_cache=True)
        session.execute(query_text("single"))
        session.execute(query_text("single"))
        (cell,) = REGISTRY.snapshot()["memo_hit_rate"]["values"]
        assert cell["labels"] == {"table": "t"}
        assert cell["value"] == 1.0   # warm repeat: every lookup hit

    @pytest.mark.parametrize("where, mode, hit_rates", [
        ("", "streaming", [1.0]),
        # No candidate survives: the exact empty answer is a query too.
        (" WHERE feature[0] > 999999", "single", []),
    ])
    def test_stream_records_what_execute_records(self, dataset, where,
                                                 mode, hit_rates):
        """stream() and execute() of one STREAM query share a metrics tail:
        the query is counted once and leaves the same gauges behind."""
        sql = query_text("streaming", "serial") + where
        gauges = []
        for drive in (lambda s: s.execute(sql),
                      lambda s: list(s.stream(sql))):
            REGISTRY.reset()
            session = build_session(dataset, enable_cache=True)
            drive(session)
            drive(session)                      # warm: the memo is hit
            snapshot = REGISTRY.snapshot()
            (queries,) = snapshot["queries_total"]["values"]
            assert queries["labels"] == {"mode": mode, "table": "t"}
            assert queries["value"] == 2
            gauges.append((snapshot["bound_width"]["values"],
                           snapshot["memo_hit_rate"]["values"]))
        assert gauges[0] == gauges[1]
        (bound,) = gauges[1][0]
        assert bound["labels"] == {"mode": mode}
        assert [rate["value"] for rate in gauges[1][1]] == hit_rates
        assert all(rate["labels"] == {"table": "t"} for rate in gauges[1][1])

    def test_staleness_histogram_observed(self, dataset):
        REGISTRY.reset()
        session = build_session(dataset)
        session.execute(query_text("streaming", "serial"))
        snapshot = REGISTRY.snapshot()
        (lag,) = snapshot["threshold_staleness"]["values"]
        assert lag["labels"] == {"backend": "serial"}
        assert lag["value"]["count"] >= 1
        (slices,) = snapshot["slices_total"]["values"]
        assert slices["value"] == lag["value"]["count"]


# ---------------------------------------------------------------------------
# Coordinator spans close on every exit
# ---------------------------------------------------------------------------


class _DyingBackend(SerialBackend):
    """A serial backend whose shards die on the first collected slice."""

    def next_event(self):
        raise RuntimeError("shard process died")


class TestSpansCloseOnEveryExit:
    def test_abandoned_stream_closes_its_drive(self, dataset):
        """Closing the stream after one snapshot (a ``break``, a dropped
        client) must not leave ``drive[0]`` open: the next drive is a
        root span and the trace still harvests."""
        trace = TraceContext()
        with StreamingTopKEngine(dataset, ReluScorer(), k=K,
                                 n_workers=WORKERS, backend="serial",
                                 seed=SEED, slice_budget=20,
                                 trace=trace) as engine:
            stream = engine.results_iter(BUDGET)
            assert not next(stream).converged
            stream.close()
            engine.run(BUDGET)
        drives = [(depth, name) for depth, name in trace.walk_names()
                  if name.startswith("drive")]
        assert drives == [(0, "drive[0]"), (0, "drive[1]")]
        assert [span["name"] for span in trace.harvest()] == [
            "drive[0]", "drive[1]"]

    @pytest.mark.parametrize("engine_cls,span", [
        (ShardedTopKEngine, "round[0]"),
        (StreamingTopKEngine, "drive[0]"),
    ])
    def test_raising_backend_closes_the_open_span(self, dataset, engine_cls,
                                                  span):
        trace = TraceContext()
        engine = engine_cls(dataset, ReluScorer(), k=K, n_workers=WORKERS,
                            backend=_DyingBackend(), seed=SEED, trace=trace)
        with engine, pytest.raises(RuntimeError, match="died"):
            engine.run(BUDGET)
        assert trace.walk_names() == [(0, span)]
        assert [root["name"] for root in trace.harvest()] == [span]

    def test_cancelled_single_run_closes_its_spans(self, dataset):
        """A gate that cancels mid-run unwinds ``run[single]`` and the
        window it was filling; the trace still harvests."""
        from repro.core.engine import EngineConfig, TopKEngine
        from repro.index.builder import build_index

        class CancelOnFourth:
            acquires = 0

            def acquire(self, n):
                self.acquires += 1
                if self.acquires == 4:
                    raise QueryCancelledError("cancelled")
                return n

            def refund(self, n):
                pass

        index = build_index(dataset.features(), dataset.ids(),
                            IndexConfig(n_clusters=8, flat=True), rng=0)
        engine = TopKEngine(index, EngineConfig(k=K, batch_size=BATCH,
                                                seed=SEED))
        trace = TraceContext()
        with pytest.raises(QueryCancelledError):
            engine.run(dataset, ReluScorer(), budget=BUDGET, trace=trace,
                       gate=CancelOnFourth())
        assert trace.walk_names() == [(0, "run[single]"), (1, "window[0]"),
                                      (1, "window[1]"), (1, "window[2]"),
                                      (1, "window[3]")]
        assert [root["name"] for root in trace.harvest()] == ["run[single]"]


# ---------------------------------------------------------------------------
# Replay reproduces the recorded span timeline (satellite b)
# ---------------------------------------------------------------------------


class TestReplayTimeline:
    def record(self, dataset, scorer):
        recorded = TraceContext()
        with StreamingTopKEngine(dataset, scorer, k=K,
                                 n_workers=WORKERS, backend="thread",
                                 record=True, seed=SEED,
                                 trace=recorded) as engine:
            result = engine.run(BUDGET)
            arrival = engine.trace()
        return recorded, arrival, result

    def test_replay_reproduces_timeline(self, dataset):
        scorer = ReluScorer(FixedPerCallLatency(1e-4))
        recorded, arrival, result = self.record(dataset, scorer)
        assert all("cost" in event for event in arrival.events
                   if event["type"] == "arrival")
        replayed_trace = TraceContext()
        replayed = replay_run(dataset, scorer, arrival,
                              span_trace=replayed_trace)
        assert replayed.ids == result.ids
        assert replayed.scores == result.scores
        # The deterministic skeleton — order, names, counters — matches
        # exactly; only the real stopwatch (start/wall) may differ,
        # which PR 4's replay contract carves out.
        assert replayed_trace.timeline() == recorded.timeline()

    def test_old_traces_without_cost_still_replay(self, dataset):
        scorer = ReluScorer(FixedPerCallLatency(1e-4))
        _, arrival, result = self.record(dataset, scorer)
        for event in arrival.events:
            event.pop("cost", None)
        replayed = replay_run(dataset, scorer, arrival)
        assert replayed.ids == result.ids

    def test_cost_divergence_raises(self, dataset):
        scorer = ReluScorer(FixedPerCallLatency(1e-4))
        _, arrival, _ = self.record(dataset, scorer)

        class DoubledCost(ReluScorer):
            def batch_cost(self, n: int) -> float:
                return 2e-4 * n

        with pytest.raises(ReplayDivergenceError, match="cost model"):
            replay_run(dataset, DoubledCost(FixedPerCallLatency(1e-4)),
                       arrival)


# ---------------------------------------------------------------------------
# CLI: --trace-out and EXPLAIN ANALYZE rendering
# ---------------------------------------------------------------------------


class TestCli:
    def test_trace_out_writes_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = cli_main([
            "query",
            f"SELECT TOP 5 FROM demo ORDER BY relu BUDGET 10% SEED {SEED}",
            "--rows", "500", "--trace-out", str(out),
        ])
        assert code == 0
        assert "trace:" in capsys.readouterr().out
        events = json.loads(out.read_text())
        assert events and all(
            event["ph"] == "X"
            and {"name", "ts", "dur", "pid", "tid"} <= set(event)
            for event in events)
        assert any(event["name"] == "execute[single]" for event in events)

    def test_explain_analyze_renders_span_tree(self, capsys):
        code = cli_main([
            "query",
            "EXPLAIN ANALYZE SELECT TOP 5 FROM demo ORDER BY relu "
            f"BUDGET 10% SEED {SEED} WORKERS 2",
            "--rows", "500",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "== execution plan ==" in out
        assert "== analyze ==" in out
        assert "round[0]" in out and "shard[0]" in out
        assert "answer: top-5" in out

    def test_info_lists_metrics(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro.obs" in out
        assert "queries_total" in out and "threshold_staleness" in out


# ---------------------------------------------------------------------------
# Engine-level trace= (direct construction, no session)
# ---------------------------------------------------------------------------


class TestEngineTraceParam:
    def test_single_engine_trace(self, dataset):
        from repro.core.engine import EngineConfig, TopKEngine
        from repro.index.builder import build_index

        scorer = CountingScorer(ReluScorer(FixedPerCallLatency(1e-4)))
        index = build_index(dataset.features(), dataset.ids(),
                            IndexConfig(n_clusters=8, flat=True), rng=0)
        trace = TraceContext()
        engine = TopKEngine(index, EngineConfig(k=K, batch_size=BATCH,
                                                seed=SEED))
        result = engine.run(dataset, scorer, budget=BUDGET, trace=trace)
        (root,) = trace.roots
        assert root.name == "run[single]"
        assert root.counters["udf_calls"] == result.n_scored
        assert root.counters["vclock"] == pytest.approx(
            result.virtual_time)

    def test_sharded_engine_trace(self, dataset):
        from repro.parallel.engine import ShardedTopKEngine

        trace = TraceContext()
        with ShardedTopKEngine(dataset,
                               ReluScorer(FixedPerCallLatency(1e-4)),
                               k=K, n_workers=WORKERS, backend="serial",
                               seed=SEED, trace=trace) as engine:
            result = engine.run(BUDGET)
        rounds = [span for _, span in trace.walk()
                  if span.name.startswith("round[")]
        assert len(rounds) == result.n_rounds
        assert sum(span.counters["scored"]
                   for span in rounds) == result.total_scored
