"""Concurrency differential matrix + fault injection for repro.service.

The service's contract extends the repo's differential discipline to
concurrency: **an admitted tenant's answer must be field-for-field
identical to the same query run solo on a fresh session** — no matter
how many other tenants are interleaved with it, because a fully funded
budget gate never perturbs an engine and every shared structure (score
memo, shard-index cache) is transparent.  This suite proves it across
{single, sharded, streaming} engines, then fault-injects every
resource-release path:

* cancelled queries, client disconnects mid-stream, and worker-pool
  death all retire their budget grants (the pool returns to whole) and
  unlink their shared-memory segments;
* the ``ShardIndexCache`` survives a multi-threaded hammer that
  KeyErrors on the historical unlocked implementation (a ``get``'s
  ``move_to_end`` racing an evicting ``put``);
* the line protocol round-trips results, snapshots, and errors, refuses
  an over-long request line with one error line and hands the client
  result lines of any length.
"""

from __future__ import annotations

import asyncio
import glob
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, QueryCancelledError
from repro.index.builder import IndexConfig
from repro.obs.metrics import REGISTRY
from repro.parallel.cache import (
    MAX_ENTRIES,
    ShardIndexCache,
    shard_cache_key,
)
from repro.parallel.shm import SEGMENT_PREFIX, shm_available
from repro.query import parse
from repro.scoring.base import CountingScorer, FunctionScorer
from repro.service import (
    BudgetScheduler,
    QueryService,
    ServiceClient,
    ServiceError,
    serve,
)
from repro.service.protocol import REQUEST_LINE_LIMIT, _read_line
from repro.session import OpaqueQuerySession
from tests.conftest import make_session, make_table

QUERY = "SELECT TOP 5 FROM t ORDER BY f BUDGET 60 SEED 11"

#: The three engine modes of the differential matrix, as mode clauses.
MODES = {
    "single": "",
    "sharded": " WORKERS 3",
    "streaming": " WORKERS 3 STREAM",
}


def run(coro, timeout=180):
    """Drive one test coroutine with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


def build_session(sync_interval=100, slow=None):
    """A fresh root session with table ``t`` + UDF ``f`` registered.

    ``slow`` adds a real per-element sleep inside the UDF so in-flight
    queries stay cancellable mid-run on real-clock backends.
    """
    delay = slow

    def score(value):
        if delay:
            time.sleep(delay)
        return max(0.0, float(value))

    scorer = CountingScorer(FunctionScorer(score))
    session = OpaqueQuerySession(sync_interval=sync_interval)
    session.register_table("t", make_table(),
                           index_config=IndexConfig(n_clusters=5))
    session.register_udf("f", scorer)
    return session, scorer


def solo_fields(mode, query=QUERY):
    """The query's answer on a fresh solo session, deterministic fields."""
    session, _scorer = make_session(make_table())
    return result_fields(mode, session.execute(query + MODES[mode]))


def result_fields(mode, result):
    """Every deterministic field of one result (excludes measured time)."""
    if mode == "single":
        return (result.items, result.stk, result.n_scored, result.n_batches,
                result.n_explore, result.n_exploit, result.virtual_time,
                result.exhausted, result.displacement_bound)
    if mode == "sharded":
        return (result.items, result.stk, result.total_scored,
                result.n_rounds, result.displacement_bound,
                result.wall_time,                      # virtual on serial
                [(r.worker_id, r.n_elements, r.n_scored, r.virtual_time,
                  r.local_stk) for r in result.workers])
    return (result.items, result.stk, result.total_scored, result.n_merges,
            result.wall_time, result.time_to_first_result,
            result.progressive, result.converged)


class TestConcurrencyDifferentialMatrix:
    def test_k_tenants_by_three_engines_bit_identical_to_solo(self):
        """K tenants × {single, sharded, streaming}, all interleaved.

        Every query uses a distinct seed (distinct answers, so a
        cross-tenant mixup cannot cancel out), all 9 run concurrently on
        one service sharing one memo and one shard-index cache, and each
        answer must equal its solo cold-run counterpart field for field.
        """
        tenants = range(3)
        queries = {
            tenant: f"SELECT TOP 5 FROM t ORDER BY f BUDGET 60 "
                    f"SEED {11 + tenant}"
            for tenant in tenants
        }

        async def main():
            session, _ = build_session()
            service = QueryService(budget=10_000, session=session)
            handles = {}
            for tenant in tenants:
                for mode, clauses in MODES.items():
                    handles[tenant, mode] = await service.submit(
                        queries[tenant] + clauses, tenant=f"tenant{tenant}"
                    )
            results = {}
            for key, handle in handles.items():
                results[key] = await handle.result()
            await service.drain()
            return results

        results = run(main())
        for (tenant, mode), result in results.items():
            assert result_fields(mode, result) == solo_fields(
                mode, queries[tenant]
            ), f"tenant {tenant} diverged from solo in {mode} mode"

    def test_concurrent_thread_backend_exhaustive_equivalence(self):
        """Real thread concurrency: compare the order-insensitive facts."""
        query = "SELECT TOP 5 FROM t ORDER BY f SEED 11 WORKERS 2 BACKEND thread"

        async def main():
            session, _ = build_session()
            service = QueryService(session=session)
            handles = [
                await service.submit(query + " STREAM" * (i % 2),
                                     tenant=f"x{i}")
                for i in range(4)
            ]
            results = [await handle.result() for handle in handles]
            await service.drain()
            return results

        results = run(main())
        session, _ = make_session(make_table())
        solo = session.execute(query)
        for result in results:
            assert sorted(result.items) == sorted(solo.items)
            assert result.total_scored == solo.total_scored == 100

    def test_tenants_warm_each_other_without_contamination(self):
        """The second tenant pays ~zero UDF calls, same answer fields."""

        async def main():
            session, scorer = build_session()
            service = QueryService(session=session)
            first = await service.submit(QUERY + " WORKERS 3",
                                         tenant="payer")
            await first.result()
            calls_cold = scorer.n_elements
            second = await service.submit(QUERY + " WORKERS 3",
                                          tenant="rider")
            result = await second.result()
            await service.drain()
            return result, calls_cold, scorer.n_elements - calls_cold

        result, calls_cold, calls_warm = run(main())
        assert calls_cold == 60 and calls_warm == 0
        assert result_fields("sharded", result) == solo_fields("sharded")

    def test_snapshots_stream_and_final_result_agree(self):
        async def main():
            session, _ = build_session(sync_interval=20)
            service = QueryService(session=session)
            handle = await service.submit(QUERY + " WORKERS 3", tenant="s",
                                          snapshots=True)
            snapshots = [snapshot async for snapshot in handle.snapshots()]
            final = await handle.result()
            await service.drain()
            return snapshots, final

        snapshots, final = run(main())
        assert snapshots, "streaming query produced no snapshots"
        assert snapshots[-1].converged
        assert snapshots[-1].top_k == final.top_k
        payload = final.to_json()
        assert payload["top_k"] == [[e, s] for e, s in final.top_k]


class TestBudgetContention:
    def test_scarce_pool_serializes_but_answers_stay_solo_identical(self):
        """Budget covers one query at a time; answers are still exact."""

        async def main():
            session, _ = build_session()
            service = QueryService(budget=60, session=session)
            handles = [
                await service.submit(QUERY + " WORKERS 3", tenant=f"c{i}",
                                     use_cache=False)
                for i in range(3)
            ]
            results = [await handle.result() for handle in handles]
            await service.drain()
            return results, service.scheduler.stats()

        results, stats = run(main())
        expected = solo_fields("sharded")
        for result in results:
            assert result_fields("sharded", result) == expected
        assert stats["committed"] == 0 and stats["waiting"] == 0
        for tenant in ("c0", "c1", "c2"):
            assert REGISTRY.gauge("queries_inflight").value(
                tenant=tenant) == 0

    def test_underfunded_query_stops_at_global_budget(self):
        async def main():
            session, scorer = build_session()
            service = QueryService(budget=25, session=session)
            handle = await service.submit(QUERY, tenant="u",
                                          use_cache=False)
            result = await handle.result()
            await service.drain()
            return result, scorer.n_elements, service.scheduler.stats()

        result, calls, stats = run(main())
        assert result.n_scored == calls == 25  # clamped, not 60
        assert stats["spent"] == 25 and stats["committed"] == 0


class TestBoundedRetention:
    def test_finished_handles_are_counted_not_kept(self):
        """Uptime must not grow the service: a drained query leaves a
        per-state count behind, not its handle."""
        n_done = 5

        async def main():
            session, _ = build_session()
            service = QueryService(session=session)
            for i in range(n_done):
                await service.submit(QUERY, tenant=f"d{i}")
            await service.submit("SELECT TOP 5 FROM nope ORDER BY f")
            in_flight = service.stats()["queries"]
            await service.drain()
            return service, in_flight

        service, in_flight = run(main())
        assert sum(in_flight.values()) == n_done + 1
        assert not service._handles
        assert service.stats()["queries"] == {"done": n_done, "error": 1}


class TestFaultInjection:
    def test_cancelled_query_releases_budget(self):
        async def main():
            session, _ = build_session(sync_interval=5, slow=0.005)
            service = QueryService(budget=100, session=session)
            handle = await service.submit(
                QUERY + " WORKERS 2 BACKEND thread", tenant="victim",
                use_cache=False)
            while handle.state == "waiting":
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.05)   # let a round or two run
            handle.cancel()
            with pytest.raises(QueryCancelledError):
                await handle.result()
            await service.drain()
            return handle, service.scheduler.stats()

        handle, stats = run(main())
        assert handle.state == "cancelled"
        assert stats["committed"] == 0
        assert stats["spent"] < 60          # it never ran to completion
        assert REGISTRY.gauge("queries_inflight").value(tenant="victim") == 0

    def test_cancel_before_admission_never_runs(self):
        async def main():
            # The slow scorer keeps the blocker occupying the whole pool
            # while the queued request is cancelled mid-wait.
            session, scorer = build_session(slow=0.003)
            service = QueryService(budget=60, session=session)
            blocker = await service.submit(QUERY, tenant="hog",
                                           use_cache=False)
            queued = await service.submit(QUERY, tenant="late",
                                          use_cache=False)
            await asyncio.sleep(0.05)
            queued.cancel()
            await blocker.result()
            with pytest.raises(QueryCancelledError):
                await queued.result()
            await service.drain()
            return queued, scorer.n_elements, service.scheduler.stats()

        queued, calls, stats = run(main())
        assert queued.state == "cancelled"
        assert calls == 60                  # only the blocker ever scored
        assert stats["committed"] == 0

    @pytest.mark.parametrize("when", ["queued", "admitted"])
    def test_task_cancelled_around_admission_leaks_no_grant(self, when):
        """The query's task is cancelled (say, at event-loop shutdown)
        while it waits for admission, or in the instant between the
        scheduler admitting it and the event loop delivering the grant:
        either way nothing stays committed or queued."""
        async def main():
            session, scorer = build_session()
            service = QueryService(budget=60, session=session)
            holder = service.scheduler.admit("hog", 60)
            queued = await service.submit(QUERY, tenant="late",
                                          use_cache=False)
            while service.scheduler.stats()["waiting"] < 1:
                await asyncio.sleep(0.01)
            if when == "admitted":
                holder.retire()             # admits "late" on this thread
                queued._task.cancel()       # before the grant is delivered
            else:
                queued._task.cancel()
                await asyncio.sleep(0.01)   # the cancel reaches the queue
                holder.retire()
            await service.drain()
            stats = service.scheduler.stats()
            await service.close()
            return scorer.n_elements, stats

        calls, stats = run(main())
        assert calls == 0                   # the cancelled query never ran
        assert stats["committed"] == 0 and stats["waiting"] == 0
        assert stats["tenants"] == {}
        # Back to 0 once admitted and retired; never set if not admitted.
        assert not REGISTRY.gauge("queries_inflight").value(tenant="late")

    def test_client_disconnect_mid_stream_cancels_and_releases(self):
        async def main():
            session, _ = build_session(sync_interval=5, slow=0.005)
            service = QueryService(budget=200, session=session)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(
                b'{"query": "SELECT TOP 5 FROM t ORDER BY f BUDGET 100 '
                b'SEED 11", "tenant": "dropper", "snapshots": true, '
                b'"workers": 2, "backend": "thread", "use_cache": false}\n'
            )
            await writer.drain()
            await reader.readline()         # one snapshot arrived; then
            writer.close()                  # the client vanishes
            await writer.wait_closed()
            (handle,) = service._handles    # still in flight
            await asyncio.wait_for(handle._done.wait(), timeout=60)
            await service.drain()
            server.close()
            await server.wait_closed()
            return handle, service.scheduler.stats()

        handle, stats = run(main())
        assert handle.state == "cancelled"
        assert stats["committed"] == 0
        assert stats["spent"] < 100

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable here")
    def test_worker_pool_death_releases_grant_and_shm(self):
        """SIGKILL a shard child mid-query: budget and segments recover."""
        from repro.parallel.engine import ShardedTopKEngine
        from repro.scoring.relu import ReluScorer

        dataset = make_table(n_rows=200)
        scheduler = BudgetScheduler(budget=500)
        grant = scheduler.admit("doomed", 150)
        engine = ShardedTopKEngine(dataset, ReluScorer(), k=5, n_workers=2,
                                   seed=0, backend="process", gate=grant)
        try:
            engine.start()
            processes = engine.backend._pools[0]._processes
            os.kill(next(iter(processes)), signal.SIGKILL)
            with pytest.raises(Exception):
                engine.run(150)
        finally:
            engine.close()
            grant.retire()
        assert sorted(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")) == []
        stats = scheduler.stats()
        assert stats["committed"] == 0
        assert stats["available"] == 500


class TestShardIndexCacheHammer:
    def test_concurrent_get_put_clear_never_corrupts(self):
        """8 threads × 12 shared keys × an 8-entry LRU: the unlocked
        version dies.

        Without the cache lock, a ``get`` that saw an entry races an
        evicting ``put`` and KeyErrors inside ``move_to_end`` (or the
        LRU map and counters desynchronize); with it, every operation is
        atomic and the size bound holds throughout.
        """
        cache = ShardIndexCache()
        keys = [shard_cache_key(entropy, 2, None, 100)
                for entropy in range(12)]
        errors = []
        stop = threading.Event()

        def hammer(worker):
            try:
                for i in range(3000):
                    key = keys[(worker * 7 + i) % len(keys)]
                    if i % 3 == 0:
                        cache.put(key, [["a"], ["b"]], [None, None])
                    elif i % 257 == 0:
                        cache.clear()
                    else:
                        entry = cache.get(key)
                        if entry is not None:
                            partitions, indexes = entry
                            assert len(partitions) == len(indexes)
                    assert len(cache) <= MAX_ENTRIES
            except BaseException as exc:  # noqa: BLE001 — recorded for
                errors.append(exc)        # the main thread to re-raise
                stop.set()

        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []
        assert cache.hits + cache.misses > 0


class TestLineProtocol:
    def test_execute_roundtrip_matches_local_run(self, monkeypatch):
        async def main():
            session, _ = build_session()
            service = QueryService(session=session)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            client = ServiceClient("127.0.0.1", port)
            message = await client.execute(QUERY, tenant="wire",
                                           workers=3)
            server.close()
            await server.wait_closed()
            await service.close()
            return message

        # Every parse goes through _Parser.parse_statement, whichever
        # module's ``parse`` alias made the call.
        from repro.query.parser import _Parser

        parses = []
        parse_statement = _Parser.parse_statement
        monkeypatch.setattr(
            _Parser, "parse_statement",
            lambda self: parses.append(self.text) or parse_statement(self))
        message = run(main())
        # The wire key folds into the one plan the server parses: the
        # query runs sharded and nothing downstream re-reads the text.
        assert parses == [QUERY]
        assert message["type"] == "result"
        assert message["kind"] == "sharded"
        local, _ = make_session(make_table())
        solo = local.execute(QUERY + " WORKERS 3").to_json()
        data = message["data"]
        assert data["items"] == solo["items"]
        assert data["budget_spent"] == solo["budget_spent"]
        assert data["n_rounds"] == solo["n_rounds"]

    def test_stream_roundtrip_snapshots_then_result(self):
        async def main():
            session, _ = build_session(sync_interval=20)
            service = QueryService(session=session)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            client = ServiceClient("127.0.0.1", port)
            messages = [message async for message in
                        client.stream(QUERY, tenant="wire", workers=3)]
            server.close()
            await server.wait_closed()
            await service.close()
            return messages

        messages = run(main())
        kinds = [message["type"] for message in messages]
        assert kinds[-1] == "result"
        assert set(kinds[:-1]) == {"snapshot"}
        for message in messages[:-1]:
            snapshot = message["data"]
            assert {"top_k", "budget_spent", "stk",
                    "converged"} <= set(snapshot)

    def test_error_lines_for_bad_requests(self):
        async def main():
            session, _ = build_session()
            service = QueryService(session=session)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            client = ServiceClient("127.0.0.1", port)
            outcomes = {}
            try:
                await client.execute("SELECT TOP 5 FROM nope ORDER BY f")
            except ServiceError as exc:
                outcomes["unknown_table"] = str(exc)
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(b"this is not json\n")
            await writer.drain()
            outcomes["malformed"] = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.close()
            return outcomes

        outcomes = run(main())
        assert "ConfigurationError" in outcomes["unknown_table"]
        assert outcomes["malformed"]["type"] == "error"
        assert outcomes["malformed"]["kind"] == "BadRequest"

    @staticmethod
    def read_lines(data, keep_long, limit=16):
        """Every ``_read_line`` result over ``data`` up to EOF."""
        async def main():
            reader = asyncio.StreamReader(limit=limit)
            reader.feed_data(data)
            reader.feed_eof()
            lines = []
            while True:
                line = await _read_line(reader, keep_long=keep_long)
                lines.append(line)
                if line == b"":
                    return lines

        return run(main())

    def test_read_line_joins_a_line_over_the_limit(self):
        long_line = b"x" * 100 + b"\n"
        assert self.read_lines(b"short\n" + long_line + b"tail",
                               keep_long=True) == [
            b"short\n", long_line, b"tail", b""]

    def test_read_line_skips_a_line_over_the_limit_whole(self):
        assert self.read_lines(b"y" * 40 + b"\nnext\n" + b"z" * 40,
                               keep_long=False) == [None, b"next\n", None, b""]

    def test_request_line_at_the_limit_is_served(self):
        async def main():
            session, _ = build_session()
            service = QueryService(session=session)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            head = b'{"query": "' + QUERY.encode() + b'"'
            padding = b" " * (REQUEST_LINE_LIMIT - len(head) - 1)
            writer.write(head + padding + b"}\n")
            await writer.drain()
            reply = await reader.read()
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.close()
            return reply

        (line,) = run(main()).splitlines()
        assert json.loads(line)["type"] == "result"

    def test_over_long_request_line_gets_one_error_line(self):
        async def main():
            session, _ = build_session()
            service = QueryService(session=session)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            padding = b" " * (REQUEST_LINE_LIMIT + 100)
            writer.write(b'{"query": "' + QUERY.encode() + b'"' + padding
                         + b"}\n")
            await writer.drain()
            reply = await reader.read()
            writer.close()
            await writer.wait_closed()
            # The server keeps serving after the refusal.
            message = await ServiceClient("127.0.0.1", port).execute(QUERY)
            server.close()
            await server.wait_closed()
            await service.close()
            return reply, message

        reply, message = run(main())
        (line,) = reply.splitlines()
        error = json.loads(line)
        assert error["type"] == "error" and error["kind"] == "BadRequest"
        assert str(REQUEST_LINE_LIMIT) in error["error"]
        assert message["type"] == "result"

    def test_result_line_over_the_limit_reads_whole(self):
        query = "SELECT TOP 3000 FROM t ORDER BY f BUDGET 4000 SEED 11"

        async def main():
            session, _ = make_session(make_table(n_rows=4000))
            service = QueryService(session=session)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            message = await ServiceClient("127.0.0.1", port).execute(query)
            server.close()
            await server.wait_closed()
            await service.close()
            return message

        message = run(main())
        assert len(json.dumps(message)) > REQUEST_LINE_LIMIT
        local, _ = make_session(make_table(n_rows=4000))
        assert message["data"]["items"] == local.execute(query).to_json()[
            "items"]

    def test_deadline_policy_admits_urgent_first_over_the_wire(self):
        """EDF end to end: the urgent request overtakes the earlier one."""

        async def main():
            session, _ = build_session()
            service = QueryService(budget=60, policy="deadline",
                                   session=session)
            server = await serve(service)
            port = server.sockets[0].getsockname()[1]
            client = ServiceClient("127.0.0.1", port)
            blocker = await service.submit(QUERY, tenant="hog",
                                           use_cache=False)
            lazy = asyncio.ensure_future(client.execute(
                QUERY, tenant="lazy", deadline=100.0, use_cache=False))
            await asyncio.sleep(0.1)
            urgent = asyncio.ensure_future(client.execute(
                QUERY, tenant="urgent", deadline=1.0, use_cache=False))
            await asyncio.sleep(0.1)
            await blocker.result()
            await asyncio.gather(lazy, urgent)
            server.close()
            await server.wait_closed()
            await service.drain()
            return service.scheduler.stats()

        stats = run(main())
        assert stats["admissions"] == {"hog": 1, "lazy": 1, "urgent": 1}
        # EDF ordering itself is asserted in tests/test_budget.py; here
        # the wire path must deliver deadlines into the scheduler at all.
        assert stats["committed"] == 0 and stats["waiting"] == 0


class TestAdmittedPlan:
    def test_a_query_runs_on_the_rows_it_was_admitted_for(self, monkeypatch):
        """Rows appended while a query waits for admission are not its
        rows: it was planned, pinned and granted a demand for the table
        as submitted, and it runs that one plan to an exhaustive answer —
        a solo run over the same 200 rows, field for field."""
        from tests.test_live import make_live_session, make_live_table

        query = "SELECT TOP 5 FROM t ORDER BY f SEED 3"
        solo_session, _, _ = make_live_session(make_live_table(200))
        solo = result_fields("single", solo_session.execute(query))
        session, scorer, table = make_live_session(make_live_table(200))
        planned = []
        real_plan = OpaqueQuerySession.plan

        def counted_plan(self, *args, **kwargs):
            planned.append(args)
            return real_plan(self, *args, **kwargs)

        monkeypatch.setattr(OpaqueQuerySession, "plan", counted_plan)

        async def main():
            service = QueryService(budget=250, session=session)
            held = service.scheduler.admit("holder", 200)
            handle = await service.submit(query, tenant="q")
            while service.scheduler.stats()["waiting"] == 0:
                await asyncio.sleep(0.005)
            extra = np.random.default_rng(1).normal(size=(40, 3))
            table.append([f"n{i:05d}" for i in range(40)],
                         extra[:, 0].tolist(), extra)
            held.retire()
            result = await handle.result()
            await service.close()
            return result

        result = run(main())
        assert result.exhausted
        assert result.n_scored == scorer.n_elements == 200
        assert result_fields("single", result) == solo
        assert len(planned) == 1


    def test_stream_refuses_a_plan_resolved_without_stream(self):
        session, _ = build_session()
        plan = session.plan(QUERY)
        with pytest.raises(ConfigurationError, match="resolved with STREAM"):
            next(session.stream(plan))
        streamed = session.plan(parse(QUERY).with_defaults(stream=True))
        assert list(session.stream(streamed))[-1].converged

class TestSessionFork:
    def test_fork_shares_transparent_state_only(self):
        session, _ = build_session()
        fork = session.fork()
        # One shared catalog; tables, memos and shard caches ride on it.
        assert fork._catalog is session._catalog
        ours, theirs = fork._binding("t"), session._binding("t")
        assert ours.dataset is theirs.dataset
        assert ours.memo is theirs.memo
        assert ours.shard_cache is theirs.shard_cache
        assert fork._udf_fingerprints is session._udf_fingerprints
        assert fork._prior_stores is not session._prior_stores
        assert fork.last_trace is None

    def test_forked_priors_stay_private(self):
        """Warm-start learning on a fork never leaks to its sibling."""
        session, _ = build_session()
        fork_a, fork_b = session.fork(), session.fork()
        fork_a.execute(QUERY, warm_start=True)      # harvests priors in A
        assert fork_a._prior_stores and not fork_b._prior_stores

    def test_forks_race_lazy_index_build_once(self):
        session, _ = build_session()
        forks = [session.fork() for _ in range(6)]
        indexes = []
        threads = [
            threading.Thread(
                target=lambda fork=fork: indexes.append(
                    fork._binding("t").index_for())
            )
            for fork in forks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(indexes) == 6
        assert all(index is indexes[0] for index in indexes)
