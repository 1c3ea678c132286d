"""Asyncio front-end admitting concurrent tenants over shared tables.

:class:`QueryService` turns the single-caller
:class:`~repro.session.OpaqueQuerySession` into a long-lived multi-tenant
server: it owns one *root* session holding the registered tables, UDFs,
and every transparent cache, and runs each submitted query in its own
:meth:`~repro.session.OpaqueQuerySession.fork` — so concurrent tenants
share warm shard-index caches and score memos (bit-identically) while
warm-start priors and traces stay per-query.

Scheduling is delegated to one :class:`~repro.service.budget.BudgetScheduler`:
:meth:`QueryService.submit` resolves the query's scorer demand from its
plan, admits it (policy-ordered and *thread-free* — the wait is a
future resolved by the scheduler, so a backlog of waiting queries can
never exhaust the worker threads admitted queries need to run and
retire), and threads the resulting
:class:`~repro.service.budget.QueryGrant` into the engine as its budget
gate.  The engines themselves run on the service's own bounded thread
pool; the event loop only coordinates.

Clients hold a :class:`QueryHandle`:

* ``await handle.result()`` — the final result object (exactly what a
  solo ``session.execute`` returns, and — when the grant was fully
  funded — field-for-field identical to it);
* ``async for snapshot in handle.snapshots()`` — live JSON-safe
  :class:`~repro.streaming.engine.ProgressiveResult` snapshots for
  queries submitted with ``snapshots=True`` (streaming mode);
* ``handle.cancel()`` — flags the grant; the engine raises
  :class:`~repro.errors.QueryCancelledError` at its next grant quantum
  and unwinds through the executors' normal cleanup (pools closed, shm
  unlinked) before the budget returns to the pool.

Queries carrying the dialect's ``CONTINUOUS`` clause are *standing*:
the service hosts one :class:`~repro.live.continuous.ContinuousQuery`
per submission, pushing a snapshot through ``handle.snapshots()``
whenever committed writes change the answer.  The tenant's grant meters
each recomputation cycle and is re-armed between cycles (a standing
query holds a per-cycle reservation, it does not drain the pool
forever); ``handle.cancel()`` is the disconnect — the stream ends and
``result()`` returns the last emitted answer.

Every terminal path — completion, cancellation, client disconnect,
worker-pool death — funnels through one ``finally`` that retires the
grant, so no failure mode leaks budget.  ``tests/test_service.py`` holds
the concurrency differential matrix and the fault-injection suite.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
from typing import AsyncIterator, Dict, Optional, Set, Tuple, Union

from repro.errors import ConfigurationError, QueryCancelledError
from repro.live.continuous import DEFAULT_POLL, ContinuousQuery
from repro.query.parser import parse
from repro.query.plan import QueryPlan
from repro.service.budget import BudgetScheduler, QueryGrant
from repro.session import OpaqueQuerySession


class QueryHandle:
    """One submitted query: its lifecycle, final answer, and snapshots."""

    def __init__(self, tenant: str, query: Union[str, QueryPlan],
                 wants_snapshots: bool,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.tenant = tenant
        #: The statement as submitted: dialect text or a parsed plan.
        self.query = query
        #: ``waiting`` -> ``running`` -> ``done`` | ``error`` | ``cancelled``
        self.state = "waiting"
        self._loop = loop
        self._wants_snapshots = wants_snapshots
        self._queue: "asyncio.Queue[Optional[object]]" = asyncio.Queue()
        self._done = asyncio.Event()
        self._result: Optional[object] = None
        self._error: Optional[BaseException] = None
        self._grant: Optional[QueryGrant] = None
        self._cancelled = False
        self._task: Optional[asyncio.Task] = None

    # -- client surface ------------------------------------------------------

    async def result(self):
        """Wait for the final result; re-raise the query's failure if any."""
        await self._done.wait()
        if self._error is not None:
            raise self._error
        return self._result

    async def snapshots(self) -> AsyncIterator[object]:
        """Yield progressive snapshots as the engine produces them.

        Only queries submitted with ``snapshots=True`` produce any; the
        iterator ends when the query finishes (however it finishes — a
        failure after some snapshots simply ends the stream, and
        :meth:`result` carries the error).
        """
        while True:
            snapshot = await self._queue.get()
            if snapshot is None:
                return
            yield snapshot

    def cancel(self) -> None:
        """Request cancellation (effective at the engine's next quantum).

        Safe from any thread and at any stage: a query still waiting for
        admission is failed on admit; a running one unwinds when its
        engine next touches the budget gate.  For a standing
        ``CONTINUOUS`` query this is the *disconnect*: the snapshot
        stream ends cleanly and :meth:`result` returns the last emitted
        answer instead of raising.
        """
        self._cancelled = True
        if self._grant is not None:
            self._grant.cancel()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    # -- service-side plumbing ----------------------------------------------

    def _push_snapshot(self, snapshot) -> None:
        """Called from the engine thread; hops onto the event loop."""
        self._loop.call_soon_threadsafe(self._queue.put_nowait, snapshot)

    def _finish(self, *, result=None, error: Optional[BaseException] = None,
                ) -> None:
        if error is None:
            self.state = "done"
            self._result = result
        elif isinstance(error, QueryCancelledError):
            self.state = "cancelled"
            self._error = error
        else:
            self.state = "error"
            self._error = error
        self._queue.put_nowait(None)   # end the snapshot stream
        self._done.set()


class QueryService:
    """Long-lived asyncio service: registered tables, concurrent tenants.

    Parameters
    ----------
    budget:
        Global scorer budget shared by every query the service ever
        admits (``None`` = unmetered; see
        :class:`~repro.service.budget.BudgetScheduler`).
    policy:
        Admission policy: ``"fair-share"`` or ``"deadline"``.
    session:
        Optional pre-populated root session to serve (tables/UDFs
        registered outside); by default the service creates its own and
        callers use :meth:`register_table` / :meth:`register_udf`.
    max_threads:
        Bound on concurrently *running* engines (each takes one worker
        thread of the service's own pool).  Admission waits hold no
        thread at all (see
        :meth:`~repro.service.budget.BudgetScheduler.admit_future`), so
        queries beyond the bound queue for a thread rather than
        deadlocking it.
    """

    def __init__(self, budget: Optional[int] = None,
                 policy: str = "fair-share",
                 session: Optional[OpaqueQuerySession] = None,
                 max_threads: int = 32) -> None:
        self.scheduler = BudgetScheduler(budget=budget, policy=policy)
        self.session = session if session is not None else OpaqueQuerySession()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=int(max_threads),
            thread_name_prefix="repro-service",
        )
        #: Queries in flight only: a handle leaves when it reaches a
        #: terminal state, and is then counted in ``_finished`` by state,
        #: so memory and ``stats()`` stay flat over any uptime.
        self._handles: Set[QueryHandle] = set()
        self._finished: Dict[str, int] = {}
        self._closed = False

    # -- registration (delegates to the root session) ------------------------

    def register_table(self, name, dataset, **kwargs) -> None:
        """Register a dataset on the root session (shared by all forks)."""
        self.session.register_table(name, dataset, **kwargs)

    def register_udf(self, name, scorer) -> None:
        """Register a scoring UDF on the root session."""
        self.session.register_udf(name, scorer)

    # -- submission ----------------------------------------------------------

    async def submit(self, query: Union[str, QueryPlan], *,
                     tenant: str = "default",
                     deadline: Optional[float] = None,
                     snapshots: bool = False,
                     use_cache: Optional[bool] = None,
                     warm_start: bool = False,
                     trace: bool = False,
                     poll: float = DEFAULT_POLL) -> QueryHandle:
        """Admit one query for ``tenant`` and start it; returns immediately.

        ``query`` is dialect text or a parsed
        :class:`~repro.query.plan.QueryPlan`; its clauses choose the
        execution mode.  ``use_cache`` / ``warm_start`` / ``trace`` are
        those of :meth:`~repro.session.OpaqueQuerySession.execute`.
        ``snapshots=True`` forces streaming mode and makes
        :meth:`QueryHandle.snapshots` yield every
        :class:`~repro.streaming.engine.ProgressiveResult`; the final
        (converged) snapshot doubles as :meth:`QueryHandle.result`.
        ``deadline`` orders contended admissions under the ``deadline``
        policy (smaller = sooner).

        A query with the ``CONTINUOUS`` clause becomes a *standing*
        subscription: :meth:`QueryHandle.snapshots` yields the initial
        answer and then one snapshot per answer-changing write batch
        (regardless of ``snapshots=``), until :meth:`QueryHandle.cancel`
        disconnects it; ``poll`` tunes its wait granularity.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        loop = asyncio.get_running_loop()
        handle = QueryHandle(tenant, query, snapshots, loop)
        self._handles.add(handle)
        handle._task = loop.create_task(self._run(
            handle, deadline, poll,
            dict(use_cache=use_cache, warm_start=warm_start, trace=trace),
        ))
        return handle

    async def _run(self, handle: QueryHandle, deadline: Optional[float],
                   poll: float, options: Dict) -> None:
        grant: Optional[QueryGrant] = None
        try:
            # Fork once per query: shared transparent caches, private
            # warm-start priors and trace (see OpaqueQuerySession.fork).
            session = self.session.fork()
            loop = asyncio.get_running_loop()
            # The one parse of this query: everything below dispatches
            # the logical plan it returns.
            logical, demand = await loop.run_in_executor(
                self._executor,
                functools.partial(self._resolve_demand, session,
                                  handle.query, options["use_cache"],
                                  options["warm_start"]),
            )
            # The admission wait holds no thread (the scheduler resolves
            # the future); a cancel() during it is honoured right after
            # (nothing has run yet).
            grant = await asyncio.wrap_future(
                self.scheduler.admit_future(handle.tenant, demand, deadline)
            )
            handle._grant = grant
            if handle._cancelled:
                raise QueryCancelledError(
                    f"query of tenant {handle.tenant!r} cancelled before start"
                )
            handle.state = "running"
            if logical.continuous:
                drive = functools.partial(self._drive_continuous, session,
                                          handle, logical, grant, poll,
                                          options)
            elif handle._wants_snapshots:
                drive = functools.partial(self._drive_stream, session,
                                          handle, logical, grant, options)
            else:
                drive = functools.partial(session.execute, logical,
                                          budget_gate=grant, **options)
            handle._finish(
                result=await loop.run_in_executor(self._executor, drive))
        except BaseException as exc:  # noqa: BLE001 — every failure is the
            handle._finish(error=exc)  # client's to observe via result()
        finally:
            if grant is not None:
                grant.retire()
            self._handles.discard(handle)
            self._finished[handle.state] = (
                self._finished.get(handle.state, 0) + 1)

    @staticmethod
    def _resolve_demand(session: OpaqueQuerySession,
                        query: Union[str, QueryPlan],
                        use_cache: Optional[bool],
                        warm_start: bool) -> Tuple[QueryPlan, int]:
        """Parse once; the scorer demand the query commits at admission.

        Its resolved budget when it has one, else every candidate the
        plan leaves in play — plus the engine's boundary headroom, so a
        fully funded run is bit-identical to a solo one even at budget
        edges the engines overshoot: the single engine's final batch
        crosses the budget line (up to ``batch_size - 1`` extra scored
        calls), and the sharded coordinator's last-round reserve rounds
        up to the active shard count before refunding the remainder.
        The streaming engine never reserves past its budget.  Unused
        headroom returns to the pool when the grant retires.
        """
        logical = parse(query) if isinstance(query, str) else query
        plan = session.plan(logical, use_cache=use_cache,
                            warm_start=warm_start)
        demand = (plan.n_candidates if plan.budget is None
                  else min(plan.budget, plan.n_candidates))
        if plan.mode == "single":
            demand += max(0, plan.batch_size - 1)
        elif plan.mode == "sharded":
            demand += plan.workers
        return logical, demand

    @staticmethod
    def _drive_stream(session: OpaqueQuerySession, handle: QueryHandle,
                      logical: QueryPlan, grant: QueryGrant, options: Dict):
        """Run a streaming query on this worker thread, pushing snapshots.

        Returns the last (converged) snapshot as the final result.  Runs
        entirely off-loop; each snapshot hops to the event loop through
        ``call_soon_threadsafe``.
        """
        last = None
        for snapshot in session.stream(logical, budget_gate=grant,
                                       **options):
            last = snapshot
            handle._push_snapshot(snapshot)
        return last

    @staticmethod
    def _drive_continuous(session: OpaqueQuerySession, handle: QueryHandle,
                          logical: QueryPlan, grant: QueryGrant,
                          poll: float, options: Dict):
        """Host one standing ``CONTINUOUS`` query on this worker thread.

        Each answer-changing write batch pushes a snapshot to the
        handle; the grant meters every recomputation cycle and is
        re-armed by the standing query between cycles.  The loop runs
        until the client disconnects (``handle.cancel()``), which ends
        the stream and returns the last emitted answer — cancellation
        of a standing query is its normal completion, not an error.
        """
        standing = ContinuousQuery(session, logical, gate=grant,
                                   poll=poll, **options)
        last = None
        try:
            while not (handle._cancelled or grant.cancelled):
                snapshot = standing.refresh(timeout=poll)
                if snapshot is not None:
                    last = snapshot
                    handle._push_snapshot(snapshot)
        except QueryCancelledError:
            pass  # grant cancelled mid-cycle: the disconnect path
        finally:
            standing.cancel()
        return last

    # -- lifecycle -----------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe service snapshot: scheduler pool + handle states."""
        states = dict(self._finished)
        for handle in self._handles:
            states[handle.state] = states.get(handle.state, 0) + 1
        return {"scheduler": self.scheduler.stats(), "queries": states}

    async def drain(self) -> None:
        """Wait for every submitted query to reach a terminal state."""
        tasks = [handle._task for handle in self._handles
                 if handle._task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def close(self) -> None:
        """Cancel everything in flight and wait for it to unwind."""
        self._closed = True
        for handle in self._handles:
            handle.cancel()
        await self.drain()
        self._executor.shutdown(wait=True)
