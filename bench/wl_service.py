"""``service-closed``: two tenants over TCP against a metered pool.

The program is ``bench/server.py`` in a child process: a fair-share
``QueryService`` behind ``repro.service.serve()``.  The load generator is
this process: one asyncio loop with **two closed-loop connections**, one
per tenant — callers that wait for their reply before sending the next
query (2 = ``nproc``).  Both cycle the same three templates over the
sleeping UDF with the memo off: a single-engine query, a 2-worker
sharded query and a 2-worker streaming query whose snapshots are read as
they arrive.  The pool (``server.POOL``, 1000 calls) holds the sharded
query plus either other one, but not two sharded queries, so a known
kind of admission waits.

This is the only workload through parse → admission → fork → engine →
wire, and it runs the same engines as the other workloads concurrently:
a gain bought for solo latency that costs concurrent latency (a lock, a
shared cache, fork cost) shows here.

The loops run in rounds: each tenant issues one whole shuffled cycle of
its nine variants (about 2 s), then both wait for the other, and the
calibration kernel runs while the connections are idle (see ``_drive``).

``udf_calls_per_op`` averages the three templates' mean call counts with
equal weight, so it does not depend on which template the window
happened to end on.  The calls are counted by the child's scorer
wrapper; with the memo off they must add up to the ``budget_spent`` the
replies report, which ``hygiene`` checks.

The traced pass runs three phases — one client alone over TCP, the two
closed-loop clients with spans, and the same templates solo in this
process — so ``service.overhead_ms`` is protocol and service cost, and
contention shows separately as admission wait.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Dict, Iterator, List, Optional

from repro.service import ServiceClient, ServiceError

from harness import (BENCH_DIR, ROWS, BenchmarkError, Op, Workload, calibrate,
                     calibrated, harness_metrics, median)
from inputs import K, QUERY_SEEDS, TABLE, Oracle, make_table, variant_order
from server import build_service
from spans import SpanRecorder

TENANTS = ("a", "b")
#: A reply later than this is a failed operation.
REPLY_TIMEOUT_S = 30.0
_SELECT = f"SELECT TOP {K} FROM {TABLE} ORDER BY slow"


@dataclass(frozen=True)
class Template:
    name: str
    sql: str
    budget: int
    slack: int
    stream: bool = False


TEMPLATES = (
    Template("single", _SELECT + " BUDGET 320 BATCH 8 SEED {seed}", 320, 7),
    Template("sharded", _SELECT + " BUDGET 600 BATCH 8 WORKERS 2 "
             "BACKEND thread SEED {seed}", 600, 16),
    Template("stream", _SELECT + " BUDGET 300 BATCH 8 WORKERS 2 STREAM "
             "EVERY 200 SEED {seed}", 300, 16, stream=True),
)
FIRST_QUERY = _SELECT + " BUDGET 10 SEED 0"


def template_of(op: Op) -> str:
    """Template name of an operation labelled ``tenant:template:seed``."""
    return op.template.split(":")[1]


class ServiceClosed(Workload):
    name = "service-closed"
    needs = len(TENANTS)
    #: (template, query seed) pairs each tenant cycles through.
    variants = [(template, seed) for seed in QUERY_SEEDS[:3]
                for template in TEMPLATES]

    child: Optional[subprocess.Popen] = None

    @property
    def oracle(self) -> Oracle:
        # The table lives in the child; the parent regenerates it from
        # the seed for the oracle alone, outside the timed set-up.
        if self._oracle is None:
            self._oracle = Oracle(make_table(self.seed, ROWS))
        return self._oracle

    # -- the child -----------------------------------------------------------

    def setup(self, traced: bool = False) -> None:
        self.child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server.py"),
             "--seed", str(self.seed), "--trace", str(int(traced))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready = self.child.stdout.readline()
        if not ready:
            raise BenchmarkError("the server child died before listening")
        self.client = ServiceClient("127.0.0.1", json.loads(ready)["port"])
        asyncio.run(self.client.execute(FIRST_QUERY, tenant="setup",
                                        use_cache=False))
        self.final: Optional[dict] = None
        self.miscounted: Optional[str] = None

    def _ask(self, command: str) -> dict:
        self.child.stdin.write(command + "\n")
        self.child.stdin.flush()
        return json.loads(self.child.stdout.readline())

    def teardown(self) -> None:
        if self.child is None:
            return
        try:
            if self.child.poll() is None and self.final is None:
                self.final = self._ask("quit")
            self.child.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.child.kill()
            self.child.wait()
        finally:
            self.child.stdin.close()
            self.child.stdout.close()
            self.child = None

    def rss_mb(self) -> float:
        return float(self._ask("stats")["peak_rss_mb"])

    def hygiene(self) -> List[str]:
        """Stop the child and check what it leaves behind."""
        self.final = self._ask("quit")
        found = [f"leaked shared-memory segment {path}"
                 for path in self.final["shm_leaks"]]
        committed = self.final["scheduler"]["committed"]
        if committed:
            found.append(f"scheduler still has {committed} budget "
                         f"committed after the drain")
        if self.miscounted:
            found.append(self.miscounted)
        return found

    # -- the load generator --------------------------------------------------

    async def _one(self, tenant: str, template: Template, query_seed: int,
                   recorder: Optional[SpanRecorder] = None,
                   operation: int = -1) -> Op:
        """One query over TCP; every way it can go wrong is a failed op."""
        sql = template.sql.format(seed=query_seed)
        label = f"{tenant}:{template.name}:{query_seed}"
        first_snapshot, snapshots = None, 0
        if recorder is not None:
            # Interleaved clients: parents and operation ids are passed
            # explicitly, never through the recorder's current ones.
            root = recorder.add("op", 0.0, 0.0, -1, operation)
            opened = perf_counter()
            _reader, writer = await asyncio.open_connection(
                self.client.host, self.client.port)
            writer.close()
            await writer.wait_closed()
        start = perf_counter()
        try:
            async with asyncio.timeout(REPLY_TIMEOUT_S):
                if template.stream:
                    reply = None
                    async for message in self.client.stream(
                            sql, tenant=tenant, use_cache=False):
                        if message["type"] == "snapshot":
                            snapshots += 1
                            if first_snapshot is None:
                                first_snapshot = perf_counter()
                        else:
                            reply = message
                else:
                    reply = await self.client.execute(
                        sql, tenant=tenant, use_cache=False)
            end = perf_counter()
            data = reply["data"]
            op = Op(end - start, data.get("items", data.get("top_k")),
                    data["budget_spent"], template.budget, template.slack,
                    udf_calls=data["budget_spent"], template=label,
                    snapshots=snapshots,
                    first_snapshot_s=(None if first_snapshot is None
                                      else first_snapshot - start))
        except (ServiceError, OSError, TimeoutError, ValueError, KeyError,
                TypeError) as exc:
            end = perf_counter()
            op = Op(end - start, template=label,
                    error=f"{type(exc).__name__}: {exc}")
        if recorder is not None:
            recorder.add("service.connect", opened, start, root, operation)
            if first_snapshot is None:
                recorder.add("service.execute", start, end, root, operation)
            else:
                recorder.add("service.first_snapshot", start,
                             first_snapshot, root, operation)
                recorder.add("streaming.snapshots", first_snapshot, end,
                             root, operation)
            recorder.finish(root, opened, end)
        return op

    async def _cycle(self, tenant: str, order: Iterator, deadline: float,
                     recorder: Optional[SpanRecorder]) -> List[Op]:
        """One tenant's closed loop over one whole cycle of the variants."""
        ops: List[Op] = []
        for _ in self.variants:
            if perf_counter() >= deadline:
                break
            template, query_seed = next(order)
            operation = -1
            if recorder is not None:
                operation = self.next_operation
                self.next_operation += 1
            ops.append(await self._one(tenant, template, query_seed,
                                       recorder, operation))
        return ops

    def _cpu_s(self) -> float:
        """CPU seconds so far of the server child and of this process."""
        return self._ask("stats")["cpu_s"] + process_time()

    async def _drive(self, seconds: float, tenants=TENANTS,
                     recorder: Optional[SpanRecorder] = None) -> List[Op]:
        """Closed loops for ``seconds``, in rounds of one cycle per tenant.

        The calibration kernel must not run beside the program, and
        concurrent operations have no CPU time of their own.  So the
        tenants meet after every cycle (about 2 s), the kernel runs
        while both connections are idle, and a round's operations are
        calibrated by the CPU seconds the two processes used per second
        of the round, shared equally among the tenants (one tenant's
        query computes while the other's sleeps in the UDF).
        """
        orders = [variant_order(self.seed, self.variants, caller)
                  for caller in range(len(tenants))]
        ops: List[Op] = []
        deadline = perf_counter() + seconds
        before = calibrate()
        while perf_counter() < deadline:
            cpu, start = self._cpu_s(), perf_counter()
            per_tenant = await asyncio.gather(*(
                self._cycle(tenant, order, deadline, recorder)
                for tenant, order in zip(tenants, orders)))
            wall = perf_counter() - start
            on_cpu = min(1.0, (self._cpu_s() - cpu) / (wall * len(tenants)))
            after = calibrate()
            for op in (op for cycle in per_tenant for op in cycle):
                op.cal_s = calibrated(op.wall_s, on_cpu * op.wall_s,
                                      (before + after) / 2)
                ops.append(op)
            before = after
        return ops

    def warm_up(self) -> None:
        # Every (template, seed) once, alone.  The sharded and streaming
        # plans share one partition index per seed; building it is the
        # slow part.
        async def each_once():
            return [await self._one("warm", template, query_seed)
                    for template, query_seed in self.variants]

        failed = [op for op in asyncio.run(each_once()) if op.error]
        if failed:
            raise BenchmarkError(f"warm-up query failed: {failed[0].error}")

    def run_window(self, seconds: float) -> List[Op]:
        before = self._ask("stats")["udf_calls"]
        ops = asyncio.run(self._drive(seconds))
        counted = self._ask("stats")["udf_calls"] - before
        reported = sum(op.spent for op in ops)
        if counted != reported:
            self.miscounted = (f"the UDF wrapper counted {counted} calls, "
                               f"the replies report {reported}")
        return ops

    def udf_calls_per_op(self, ops: List[Op]) -> float:
        by_template: Dict[str, List[int]] = {}
        for op in ops:
            if op.error is None:
                by_template.setdefault(template_of(op),
                                       []).append(op.udf_calls)
        return float(statistics.fmean(
            statistics.fmean(calls) for calls in by_template.values()))

    # -- traced pass ---------------------------------------------------------

    def _solo_in_process(self, seconds: float) -> Dict[tuple, List]:
        """The same templates, one caller, no service: walls and answers."""
        service, _slow = build_service(self.seed)
        session = service.session
        order = variant_order(self.seed, self.variants, caller=9)
        for template, query_seed in self.variants:  # warm the caches
            session.execute(template.sql.format(seed=query_seed),
                            use_cache=False)
        walls: Dict[tuple, List] = {}
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            template, query_seed = next(order)
            sql = template.sql.format(seed=query_seed)
            start = perf_counter()
            if template.stream:
                items = list(session.stream(sql, use_cache=False))[-1].top_k
            else:
                items = session.execute(sql, use_cache=False).items
            wall = perf_counter() - start
            walls.setdefault((template.name, query_seed), []).append(
                (wall, [[element_id, score] for element_id, score in items]))
        return walls

    def trace_window(self, seconds: float,
                     recorder: SpanRecorder) -> Dict[str, float]:
        self.next_operation = 0
        calib = [calibrate()]
        idle = self._ask("stats")
        alone = asyncio.run(self._drive(0.2 * seconds, tenants=("a",)))
        calib.append(calibrate())
        before = self._ask("stats")
        plain = asyncio.run(self._drive(0.25 * seconds))
        spanned = asyncio.run(self._drive(0.3 * seconds, recorder=recorder))
        calib.append(calibrate())
        stats = self._ask("stats")
        solo = self._solo_in_process(0.25 * seconds)
        loaded = plain + spanned
        self.traced_ops = alone + loaded

        def walls_of(ops: List[Op]) -> List[float]:
            return [op.wall_s for op in ops if op.error is None]

        # Same plan, same answer: over TCP and in this process.
        for op in self.traced_ops:
            _tenant, name, query_seed = op.template.split(":")
            reference = solo.get((name, int(query_seed)))
            if op.error is None and reference is not None:
                if [list(row) for row in op.items] != reference[0][1]:
                    self.trace_violations.append(
                        f"{op.template}: the answer over TCP differs from "
                        f"the answer in process")
        overhead = []
        for template in TEMPLATES:
            tcp = [op.wall_s for op in alone
                   if op.error is None and template_of(op) == template.name]
            local = [wall for (name, _seed), runs in solo.items()
                     if name == template.name for wall, _items in runs]
            if tcp and local:
                overhead.append(median(tcp) - median(local))
        streams = [op for op in loaded
                   if op.error is None and template_of(op) == "stream"]
        # Admissions of the two-tenant phases only: alone, nobody waits.
        waits = stats["admission_waits"][len(before["admission_waits"]):]
        busy = stats["udf_busy_s"] - idle["udf_busy_s"]
        times = recorder.self_times()
        connect = [end - start for name, start, end, _parent, _op
                   in recorder.rows if name == "service.connect"]
        return {
            "scoring.score_s": busy / max(1, len(self.traced_ops)),
            "scoring.udf_calls": self.udf_calls_per_op(loaded),
            "parallel.overlap_ratio": busy / sum(
                op.wall_s for op in self.traced_ops),
            "streaming.first_snapshot_ms": median(
                [op.first_snapshot_s for op in streams
                 if op.first_snapshot_s is not None]) * 1e3,
            "streaming.snapshots_per_op": median(
                [op.snapshots for op in streams]),
            "service.overhead_ms": median(overhead) * 1e3,
            "service.admission_wait_ms_p50": median(
                [wait for wait, _waited in waits]) * 1e3,
            "service.waited_share": (sum(1 for _w, waited in waits if waited)
                                     / max(1, len(waits))),
            "service.connect_ms": median(connect) * 1e3,
            "service.peak_committed": stats["scheduler"]["peak_committed"],
            "service.grants_leaked": stats["scheduler"]["committed"],
            **harness_metrics(recorder, times, walls_of(plain),
                              walls_of(spanned), calib),
        }
