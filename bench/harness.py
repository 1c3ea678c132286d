"""What every workload shares: the contract, the counting scorer, the
calibration kernel, the two passes (measured and traced), and the result
object.

A workload is a class with five duties — ``setup`` / ``teardown``,
``warm_up``, ``run_window`` (the measured operations), ``trace_window``
(the per-layer pass) and ``verify`` (the oracle, after the window).  The
functions here drive those in the order the sizing rules fix: one
untimed small build, three timed set-ups, ``gc.freeze()``, warm-up, the
window, and only then any checking or encoding.
"""

from __future__ import annotations

import functools
import gc
import heapq
import json
import os
import statistics
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.data.dataset import InMemoryDataset
from repro.index.builder import build_index
from repro.index.tree import ClusterTree
from repro.scoring.base import FixedPerCallLatency, Scorer
from repro.scoring.blocking import BlockingReluScorer
from repro.scoring.relu import ReluScorer
from repro.session import OpaqueQuerySession

from inputs import (K, N_ROWS, TABLE, Oracle, TableInputs, index_config,
                    make_table, variant_order)
from spans import SpanRecorder

BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"
#: Hooks for ``test_bench.py`` alone: a small table and a scratch output
#: directory.  The metrics are defined at the defaults.
ROWS = int(os.environ.get("REPRO_BENCH_ROWS", N_ROWS))
OUT_DIR = Path(os.environ.get("REPRO_BENCH_OUT", BENCH_DIR / "out"))

#: Set-ups timed per run (``setup_s`` is their median).
SETUPS = 3
#: Rows of the spans written to ``trace-<workload>.json`` (whole
#: operations; self-time summaries cover every operation regardless).
MAX_TRACE_ROWS = 60_000
#: What :func:`calibrate` takes when this container runs undisturbed.
CALIB_NOMINAL_S = 0.020


class BenchmarkError(Exception):
    """The benchmark refuses to run as asked (bad contract, too few cores)."""


@functools.lru_cache(maxsize=None)
def contract() -> dict:
    """``BENCHMARK.json``: the one place metrics and workloads are declared."""
    return json.loads(BENCHMARK_JSON.read_text())


def declared(kind: str) -> Dict[str, dict]:
    """name -> declaration of the ``end_to_end`` (``--trace 0``) or
    ``per_layer`` (``--trace 1``) metrics."""
    return {metric["name"]: metric for metric in contract()[kind]}


# -- measuring tools ---------------------------------------------------------


class CountedScorer(Scorer):
    """The benchmark's wrapper around a UDF: counts every real call.

    The memo fingerprints it as ``(inner, salt)``: counters never change
    the key, and bumping ``salt`` keys a fresh, cold memo shard.  With
    ``timed`` set it also sums the time spent inside the UDF, and with a
    ``recorder`` each call becomes a ``scoring.score`` span under the
    recorder's open span (calls arrive from worker threads).
    """

    def __init__(self, inner: Scorer) -> None:
        self.inner = inner
        self.latency = inner.latency
        self.salt = 0
        self.calls = 0
        self.batches = 0
        self.busy_s = 0.0
        self.timed = False
        self.recorder: Optional[SpanRecorder] = None
        self._lock = threading.Lock()

    def __fingerprint_state__(self):
        return (self.inner, self.salt)

    def score(self, obj: Any) -> float:
        return float(self.score_batch([obj])[0])

    def score_batch(self, objects: Sequence[Any]) -> np.ndarray:
        if not self.timed:
            scores = self.inner.score_batch(objects)
            with self._lock:
                self.calls += len(objects)
                self.batches += 1
            return scores
        recorder = self.recorder
        parent = recorder.parent if recorder is not None else -1
        start = perf_counter()
        scores = self.inner.score_batch(objects)
        end = perf_counter()
        with self._lock:
            self.calls += len(objects)
            self.batches += 1
            self.busy_s += end - start
        if recorder is not None:
            recorder.add("scoring.score", start, end, parent)
        return scores

    def batch_cost(self, batch_size: int) -> float:
        return self.inner.batch_cost(batch_size)


def peak_rss_mb(pid: Any = "self") -> float:
    """High-water resident set (``VmHWM``) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def shm_leaks() -> List[str]:
    """Surviving ``repro-shm-*`` segments, by ``tools/check_shm_leaks.py``."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_shm_leaks", BENCH_DIR.parent / "tools" / "check_shm_leaks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [str(path) for path in module.leaked_segments()]


class _Node:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0


def calibrate() -> float:
    """Seconds for a fixed kernel of Python bookkeeping: the machine's
    speed, now.

    This container's speed steps between states that last seconds to
    minutes, with nothing else running in the guest, and the program's
    interpreter-bound work slows with it.  The kernel does the kind of
    work the program's own bookkeeping does — dict and heap updates,
    attribute writes, numpy scalar stores and a small ``argmax`` — so
    that it slows by the same factor.  A bare arithmetic loop does not:
    calibrated by one, ten runs of ``engine-scalar`` spread 11.8 %, by
    this kernel 2.9 % (uncalibrated 28 %; ``live-append`` 10.9 %, 3.6 %
    and 21.7 %).
    """
    heap: List[tuple] = []
    seen: Dict[int, int] = {}
    histogram = np.zeros(1024)
    nodes = [_Node() for _ in range(512)]
    push, pop = heapq.heappush, heapq.heappop
    start = perf_counter()
    for step in range(18_000):
        key = (step * 2654435761) & 0xFFFF
        seen[key] = seen.get(key, 0) + 1
        push(heap, (key, step))
        if len(heap) > 50:
            pop(heap)
        node = nodes[key & 511]
        node.count += 1
        node.total += key * 0.5
        histogram[key & 1023] += 1.0
        if not step & 15:
            histogram[int(np.argmax(histogram[:64]))] *= 0.5
    return perf_counter() - start


def calibrated(wall_s: float, cpu_s: float, kernel_s: float) -> float:
    """``wall_s`` as it would read at the machine's nominal speed.

    The part of the wall the program spent on a CPU (``cpu_s``, capped
    at the wall) is rescaled by nominal / measured kernel time; the part
    it spent blocked (UDF sleeps, waits) does not depend on machine
    speed and stays as measured.
    """
    on_cpu = min(wall_s, cpu_s)
    return wall_s - on_cpu + on_cpu * CALIB_NOMINAL_S / kernel_s


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(share * len(ordered)))])


@dataclass
class Op:
    """One operation's outcome, kept for checking after the window."""

    wall_s: float
    items: Sequence[Sequence] = ()
    spent: int = 0
    budget: int = 0
    slack: int = 0
    udf_calls: int = 0
    template: str = ""
    #: Writes committed before this operation's query, oldest first:
    #: ``(kind, ids, values)`` — the oracle replays them in order.
    writes: List[tuple] = field(default_factory=list)
    #: Why the operation failed outright (refused, timed out, error).
    error: Optional[str] = None
    #: Streaming operations: snapshots read, and when the first arrived.
    snapshots: int = 0
    first_snapshot_s: Optional[float] = None
    #: Filled by verification.
    violations: List[str] = field(default_factory=list)
    stk_ratio: float = 0.0
    #: Filled by the window loop: ``wall_s`` at nominal machine speed
    #: (see :func:`calibrated`).
    cal_s: float = 0.0


class Workload:
    """Base class; see the module docstring for the five duties."""

    name = ""
    #: Threads or connections the program is driven with at once.
    needs = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.table: Optional[TableInputs] = None
        self._oracle: Optional[Oracle] = None
        #: Filled by ``trace_window``: the operations it ran and what
        #: the replays got wrong.
        self.traced_ops: List[Op] = []
        self.trace_violations: List[str] = []

    @property
    def oracle(self) -> Oracle:
        # Built on first use, after the timed set-ups: it is the
        # benchmark's bookkeeping, not the program's set-up.
        if self._oracle is None:
            self._oracle = Oracle(self.table)
        return self._oracle

    def setup(self, traced: bool = False) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop what ``setup`` started (children, pools)."""

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_window(self, seconds: float) -> List[Op]:
        raise NotImplementedError

    def trace_window(self, seconds: float,
                     recorder: SpanRecorder) -> Dict[str, float]:
        raise NotImplementedError

    def hygiene(self) -> List[str]:
        """Violations found after the window (leaks, budgets, repeats)."""
        return []

    def udf_calls_per_op(self, ops: List[Op]) -> float:
        return float(statistics.fmean(op.udf_calls for op in ops))

    def rss_mb(self) -> float:
        return peak_rss_mb()

    def verify(self, ops: List[Op]) -> None:
        """Check every operation against the oracle, in order."""
        oracle = self.oracle
        for op in ops:
            for kind, ids, values in op.writes:
                if kind == "delete":
                    oracle.delete(ids)
                else:
                    getattr(oracle, kind)(ids, values)
            if op.error is not None:
                op.violations = [op.error]
                continue
            op.violations = oracle.violations(
                op.items, k=K, budget=op.budget, spent=op.spent,
                slack=op.slack)
            op.stk_ratio = oracle.stk_ratio(op.items)


#: The exhaustion check of the traced pass: every row is scored, so the
#: answer must be the exact top-k.
EXHAUSTIVE_SQL = f"SELECT TOP {K} FROM {TABLE} ORDER BY free BATCH 64 SEED 1"

#: Scoring calls per shard between coordinator merges (the session's
#: default, spelled out because the sharded replay must repeat it).
SYNC_INTERVAL = 100


class InProcessWorkload(Workload):
    """The program runs in this process: one session over ``mix``.

    Two UDFs are registered.  ``free`` charges 2 ms per call to the
    *virtual* clock and costs nothing real, so the engine's own
    bookkeeping is the whole wall.  ``slow`` really sleeps 0.5 ms per
    element and releases the GIL, like a remote model.
    """

    #: Query seeds this workload cycles through.
    variants: Sequence[int] = ()

    def make_dataset(self):
        return InMemoryDataset(self.table.ids, self.table.values,
                               self.table.features)

    def setup(self, traced: bool = False) -> None:
        self.table = make_table(self.seed, ROWS)
        self.dataset = self.make_dataset()
        self.session = OpaqueQuerySession(sync_interval=SYNC_INTERVAL)
        # The traced pass builds the index itself: it times the build
        # and needs the tree to replay the single executor's pull loop.
        self.index: Optional[ClusterTree] = None
        self.index_build_s = 0.0
        if traced:
            start = perf_counter()
            self.index = build_index(self.table.features, self.table.ids,
                                     index_config(), rng=0)
            self.index_build_s = perf_counter() - start
        self.session.register_table(TABLE, self.dataset,
                                    index_config=index_config(),
                                    index=self.index)
        self.free = CountedScorer(ReluScorer(FixedPerCallLatency(2e-3)))
        self.slow = CountedScorer(BlockingReluScorer(5e-4))
        self.session.register_udf("free", self.free)
        self.session.register_udf("slow", self.slow)
        self.session.execute(
            f"SELECT TOP {K} FROM {TABLE} ORDER BY free BUDGET 10 SEED 0",
            use_cache=False)
        self.order = variant_order(self.seed, self.variants)

    def teardown(self) -> None:
        # Drop the program's objects so the next set-up does not run
        # beside the last one's; the inputs stay for the oracle.
        self.session = self.dataset = self.index = None

    def index_metrics(self) -> Dict[str, float]:
        leaves = self.index.leaves()
        return {
            "index.build_s": self.index_build_s,
            "index.n_leaves": len(leaves),
            "index.depth": self.index.depth(),
            "index.max_leaf_size": max(len(leaf.member_ids)
                                       for leaf in leaves),
        }


def timed_loop(seconds: float, order: Iterator,
               run_one: Callable[[Any], Op], lanes: int = 1,
               at_least: int = 0) -> List[Op]:
    """Run ``run_one(next(order))`` for ``seconds``, ``at_least`` times.

    The calibration kernel runs between operations, never inside one;
    each operation is calibrated by the readings on either side of it.
    An operation on ``lanes`` threads is charged 1 / ``lanes`` of its
    CPU time: one thread computes while the others sleep in the UDF, so
    the whole would count overlapped work twice (measured on
    ``udf-sharded-2w``, eight runs: 2.9 % deviation uncalibrated, 1.8 %
    charging all of it, 1.2 % charging half).
    """
    ops: List[Op] = []
    deadline = perf_counter() + seconds
    before = calibrate()
    while perf_counter() < deadline or len(ops) < at_least:
        cpu = process_time()
        op = run_one(next(order))
        cpu = process_time() - cpu
        after = calibrate()
        op.cal_s = calibrated(op.wall_s, cpu / lanes, (before + after) / 2)
        before = after
        ops.append(op)
    return ops


def _warm_build() -> None:
    """Untimed 1k-row build: imports, BLAS start, first-touch faults."""
    table = make_table(0, 1_000)
    build_index(table.features, table.ids, index_config(), rng=0)


def _set_up(workload: Workload, traced: bool) -> float:
    """Set up ``SETUPS`` times in this process; returns the median seconds."""
    _warm_build()
    walls = []
    # The traced pass reports no set-up time: once is enough.
    for attempt in range(1 if traced else SETUPS):
        if attempt:
            workload.teardown()
            gc.collect()
        start = perf_counter()
        workload.setup(traced=traced)
        walls.append(perf_counter() - start)
    gc.collect()
    gc.freeze()
    return median(walls)


def _report(workload: Workload, ops: List[Op], extra: List[str],
            declared: Dict[str, dict], measured: Dict[str, float]) -> dict:
    """The result object; names every violation on stderr.

    ``measured`` must hold exactly the ``declared`` names: the benchmark
    neither invents a metric nor drops one.
    """
    if set(measured) != set(declared):
        raise BenchmarkError(
            f"measured and declared metrics differ: "
            f"{sorted(set(measured) ^ set(declared))}")
    failed = 0
    for position, op in enumerate(ops):
        if op.violations:
            failed += 1
            print(f"FAILED {workload.name} seed={workload.seed} "
                  f"op={position} {op.template}: "
                  f"{'; '.join(op.violations)}", file=sys.stderr)
    for violation in extra:
        failed += 1
        print(f"FAILED {workload.name} seed={workload.seed} hygiene: "
              f"{violation}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": max(1, len(ops) + len(extra)),
        "failed": failed,
        "metrics": {name: {"value": float(measured[name]),
                           "unit": declared[name]["unit"]}
                    for name in declared},
    }


def measured_pass(workload: Workload, seconds: float) -> dict:
    """``--trace 0``: the end-to-end metrics."""
    setup_s = _set_up(workload, traced=False)
    try:
        workload.warm_up()
        ops = workload.run_window(seconds)
        rss = workload.rss_mb()
        extra = workload.hygiene()
    finally:
        workload.teardown()
    if not ops:
        raise BenchmarkError("no operation finished inside the window")
    workload.verify(ops)
    good = [op for op in ops if not op.violations] or ops
    raw = median([op.wall_s for op in ops])
    print(f"{workload.name}: {len(ops)} operations kept, uncalibrated "
          f"p50 {raw * 1e3:.1f} ms, median speed factor "
          f"{median([op.wall_s / op.cal_s for op in ops]):.2f}",
          file=sys.stderr)
    return _report(workload, ops, extra, declared("end_to_end"), {
        "setup_s": setup_s,
        "op_p50_ms": median([op.cal_s for op in ops]) * 1e3,
        "udf_calls_per_op": workload.udf_calls_per_op(ops),
        "stk_ratio": median([op.stk_ratio for op in good]),
        "peak_rss_mb": rss,
    })


def traced_pass(workload: Workload, seconds: float) -> dict:
    """``--trace 1``: the per-layer metrics and ``trace-<workload>.json``."""
    _set_up(workload, traced=True)
    recorder = SpanRecorder()
    try:
        workload.warm_up()
        measured = workload.trace_window(seconds, recorder)
        hygiene = workload.hygiene()
    finally:
        workload.teardown()
    self_times = recorder.self_times()
    per_op = [{"operation": op, "self_s": times}
              for op, times in sorted(self_times.items()) if op >= 0]
    OUT_DIR.mkdir(exist_ok=True)
    trace = recorder.to_json(MAX_TRACE_ROWS)
    trace.update(workload=workload.name, seed=workload.seed,
                 operations=per_op, measured=sorted(measured))
    (OUT_DIR / f"trace-{workload.name}.json").write_text(json.dumps(trace))
    ops = workload.traced_ops
    workload.verify(ops)
    # A layer a workload does not exercise reads 0; ``measured`` in the
    # trace file says which names this workload filled.
    per_layer = declared("per_layer")
    idle = {name: 0.0 for name in per_layer if name not in measured}
    return _report(workload, ops, hygiene + workload.trace_violations,
                   per_layer, {**measured, **idle})


SelfTimes = Dict[int, Dict[str, float]]


def unattributed_share(recorder: SpanRecorder,
                       self_times: SelfTimes) -> float:
    """Median share of an operation's wall that no layer span covers."""
    return median([self_times[operation]["op"] / (end - start)
                   for name, start, end, parent, operation in recorder.rows
                   if name == "op" and parent < 0 and end > start])


def layer_seconds(self_times: SelfTimes, prefix: str) -> List[float]:
    """Per operation: summed self time of spans named ``prefix*``."""
    return [sum(value for name, value in times.items()
                if name.startswith(prefix))
            for op, times in sorted(self_times.items()) if op >= 0]


def calls_to_q95(checkpoints, final_stk: float) -> float:
    """Scoring calls until the running STK reached 95 % of the final.

    ``checkpoints`` are ``(calls so far, stk)`` pairs, oldest first.
    """
    for calls, stk in checkpoints:
        if stk >= 0.95 * final_stk:
            return float(calls)
    return 0.0


def memo_metrics(stats: dict) -> Dict[str, float]:
    """``memo.*`` from a session's ``cache_stats()``."""
    return {
        "memo.hit_rate": (stats["hits"]
                          / max(1, stats["hits"] + stats["misses"])),
        "memo.entries": stats["entries"],
    }


def harness_metrics(recorder: SpanRecorder, self_times: SelfTimes,
                    plain_walls: Sequence[float],
                    spanned_walls: Sequence[float],
                    calib: Sequence[float]) -> Dict[str, float]:
    """``harness.*``: the benchmark watching itself.

    ``plain_walls`` are operations run as in the measured pass,
    ``spanned_walls`` the same operations with spans around them.
    """
    return {
        "harness.trace_overhead_ratio": (median(spanned_walls)
                                         / median(plain_walls)),
        "harness.unattributed_share": unattributed_share(recorder,
                                                         self_times),
        "harness.calib_ms": median(calib) * 1e3,
        "harness.op_p90_ms": percentile(plain_walls, 0.9) * 1e3,
        "harness.ops": len(plain_walls),
    }


def cores() -> int:
    return len(os.sched_getaffinity(0))
