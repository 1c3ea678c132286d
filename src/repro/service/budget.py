"""Global scorer-budget scheduling for the multi-tenant query service.

One :class:`BudgetScheduler` owns a single pool of UDF-call budget that
every in-flight query of a :class:`~repro.service.service.QueryService`
draws from.  Scheduling happens at two levels:

**Admission** (policy-ordered).  Before a query starts, its full
scorer *demand* — the resolved per-query budget — is committed from the
pool.  Every request joins one queue and is resolved through a future
(:meth:`BudgetScheduler.admit_future`; :meth:`BudgetScheduler.admit`
blocks on it).  When the pool cannot cover the demand, the request waits:

* ``fair-share`` — round-robin across *tenants*: the waiting tenant
  with the fewest admissions so far goes first (FIFO within a tenant),
  so a chatty tenant can never starve a quiet one;
* ``deadline`` — earliest-deadline-first (EDF): the waiting request
  with the smallest deadline goes first; requests without a deadline
  sort last.  Admission order under contention *is* EDF order.

Admission is strictly head-of-line: if the policy's first choice does
not fit, nothing behind it is admitted either — that is what makes the
fairness and EDF guarantees real rather than best-effort.  Liveness is
preserved by clamping: when the pool is otherwise idle, a demand larger
than the whole budget is admitted with its demand clamped to what
exists (the query then stops early at grant exhaustion, exactly like an
engine hitting its own budget).

**Grants** (non-blocking, metered).  An admitted query draws its
committed demand in quanta through its :class:`QueryGrant` — the
engines call :meth:`QueryGrant.acquire` with their natural quantum (a
batch, a round, a slice cap) and get back how much of it is funded.
Because the demand was committed up front, a fully funded query is
granted every quantum in full and executes **bit-identically to a solo
run** — the gate never reorders, splits, or delays any engine decision.
Memo hits cost no real UDF call, so coordinators :meth:`QueryGrant.refund`
them (and any unscored reservation) after the fact; at
:meth:`QueryGrant.retire` the query's whole demand — consumed or not —
returns to the pool for waiting tenants.  The budget meters *in-flight*
scorer concurrency, not lifetime totals: a long-lived service never
wears its pool out, and ``spent`` is a cumulative telemetry counter
rather than a deduction.

The scheduler is thread-safe (one lock guards all state): admissions
resolve while engine threads acquire and refund concurrently.  It also
carries the service's cancellation path — :meth:`QueryGrant.cancel`
makes the *next* ``acquire`` raise
:class:`~repro.errors.QueryCancelledError` inside the engine, which
unwinds through the executors' normal cleanup (pools closed, shm
unlinked) before :meth:`~QueryGrant.retire` reclaims the budget.

Invariants (property/fuzz-tested in ``tests/test_budget.py``):

* conservation — the committed demand of live grants never exceeds the
  global budget, at every instant, under any interleaving of
  admit/acquire/refund/retire;
* all-or-nothing funding — an admitted query's acquires are granted in
  full until its demand is exhausted;
* no starvation under ``fair-share`` — every waiting request is
  eventually admitted provided admitted queries retire;
* EDF admission under ``deadline`` — contended admissions leave the
  queue in deadline order.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import threading
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, QueryCancelledError
from repro.obs.metrics import (
    ADMISSIONS_TOTAL,
    BUDGET_GRANTS_TOTAL,
    QUERIES_INFLIGHT,
)

#: Admission-ordering policies (see the module docstring).
POLICIES = ("fair-share", "deadline")


class QueryGrant:
    """One admitted query's handle on the global budget.

    Created by :meth:`BudgetScheduler.admit_future`; threaded through the
    session into the engines as their *budget gate* (see
    ``execute(..., budget_gate=...)``).  All methods are thread-safe.
    """

    def __init__(self, scheduler: "BudgetScheduler", tenant: str,
                 demand: int, deadline: Optional[float]) -> None:
        self._scheduler = scheduler
        self.tenant = str(tenant)
        #: Budget units committed to this query at admission (the
        #: resolved per-query budget, clamped to the pool when it was
        #: admitted on an otherwise idle scheduler).
        self.demand = int(demand)
        self.deadline = deadline
        self._acquired = 0          # net units drawn (acquires - refunds)
        self._granted_units = 0     # gross units granted (monotone)
        self._cancelled = False
        self._retired = False

    # -- engine-facing gate --------------------------------------------------

    def acquire(self, n: int) -> int:
        """Draw up to ``n`` units of this query's committed demand.

        Returns how many units are funded (``n`` while demand remains —
        the all-or-nothing guarantee engines rely on for bit-identity;
        less, possibly ``0``, once the committed demand is exhausted).
        Raises :class:`~repro.errors.QueryCancelledError` after
        :meth:`cancel` — this is the cancellation point the engines
        reach at their next quantum.
        """
        return self._scheduler._acquire(self, int(n))

    def refund(self, n: int) -> None:
        """Return ``n`` unconsumed units (memo hits, unscored caps)."""
        self._scheduler._refund(self, int(n))

    # -- service-facing lifecycle --------------------------------------------

    def cancel(self) -> None:
        """Make the next :meth:`acquire` raise ``QueryCancelledError``."""
        self._scheduler._cancel(self)

    def retire(self) -> None:
        """Release the whole committed demand back to the pool (idempotent)."""
        self._scheduler._retire(self)

    # -- introspection -------------------------------------------------------

    @property
    def consumed(self) -> int:
        """Net units drawn so far (acquires minus refunds)."""
        with self._scheduler._lock:
            return self._acquired

    @property
    def granted_units(self) -> int:
        """Gross units granted so far (refunds do not subtract)."""
        with self._scheduler._lock:
            return self._granted_units

    @property
    def cancelled(self) -> bool:
        with self._scheduler._lock:
            return self._cancelled

    @property
    def retired(self) -> bool:
        with self._scheduler._lock:
            return self._retired


class _Waiter:
    """One queued admission request (internal); ``_pump`` resolves it."""

    __slots__ = ("tenant", "demand", "deadline", "seq", "future")

    def __init__(self, tenant: str, demand: int,
                 deadline: Optional[float], seq: int) -> None:
        self.tenant = tenant
        self.demand = demand
        self.deadline = deadline
        self.seq = seq
        self.future = concurrent.futures.Future()


class BudgetScheduler:
    """Admission + grant metering over one global UDF-call budget.

    Parameters
    ----------
    budget:
        UDF calls the scheduler may have committed to *in-flight*
        queries at any one time (a retiring query returns its whole
        demand).  ``None`` means unmetered: every admission succeeds
        immediately (grants are still counted, so fairness metrics and
        cancellation keep working) — the right setting when the service
        exists for concurrency, not for scarcity.
    policy:
        ``"fair-share"`` (round-robin across tenants) or ``"deadline"``
        (EDF).  Ordering applies to *admission under contention*; see
        the module docstring.
    """

    def __init__(self, budget: Optional[int] = None,
                 policy: str = "fair-share") -> None:
        if budget is not None and (int(budget) != budget or budget <= 0):
            raise ConfigurationError(
                f"budget must be a positive integer or None, got {budget!r}"
            )
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}; available: "
                f"{', '.join(POLICIES)}"
            )
        self.budget = None if budget is None else int(budget)
        self.policy = policy
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._waiters: List[_Waiter] = []
        self._live: List[QueryGrant] = []
        #: Net units consumed by retired grants (cumulative telemetry —
        #: never deducted from the pool).
        self._spent = 0
        #: Admissions completed per tenant (fair-share rotation key).
        self._admissions: Dict[str, int] = {}
        #: Live queries per tenant (backs the ``queries_inflight`` gauge).
        self._inflight: Dict[str, int] = {}
        #: High-water mark of committed demand (proves real concurrency
        #: in the service benchmark without a sampling thread).
        self._peak_committed = 0

    # -- admission -----------------------------------------------------------

    def admit(self, tenant: str, demand: int,
              deadline: Optional[float] = None,
              timeout: Optional[float] = None) -> QueryGrant:
        """:meth:`admit_future`, then block until admitted.

        ``timeout`` bounds the wait; on expiry the request leaves the
        queue and ``QueryCancelledError`` is raised (nothing was
        committed), unless it was admitted meanwhile.
        """
        future = self.admit_future(tenant, demand, deadline)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            if not future.cancel():  # admitted as the wait timed out
                return future.result()
            raise QueryCancelledError(
                f"admission timed out after {timeout}s "
                f"(tenant {tenant!r}, demand {demand})"
            ) from None

    def admit_future(self, tenant: str, demand: int,
                     deadline: Optional[float] = None,
                     ) -> "concurrent.futures.Future[QueryGrant]":
        """Queue ``demand`` units for one query; the future resolves
        with its :class:`QueryGrant` on admission.

        ``deadline`` orders contended admissions under the ``deadline``
        policy (smaller = more urgent; ``None`` = least urgent) and is
        advisory under ``fair-share``.  No thread waits: ``_pump``
        resolves the future under the lock, so the asyncio service's
        backlog of waiting queries can never exhaust the worker threads
        that *admitted* queries need in order to run and retire.
        Cancelling the future before admission withdraws the request:
        it leaves the queue at once and holds up no one behind it.
        """
        if int(demand) != demand or demand < 0:
            raise ConfigurationError(
                f"demand must be a non-negative integer, got {demand!r}"
            )
        waiter = _Waiter(str(tenant), int(demand), deadline,
                         next(self._seq))
        with self._lock:
            self._waiters.append(waiter)
            self._pump()
        waiter.future.add_done_callback(self._withdraw)
        return waiter.future

    def _withdraw(self, future: concurrent.futures.Future) -> None:
        """Done callback: drop a cancelled request and admit whoever it
        was holding up.  An admission resolves its future under the
        lock, so this must not take it unless the future was cancelled
        (a cancel never runs under the lock)."""
        if not future.cancelled():
            return
        with self._lock:
            self._waiters = [waiter for waiter in self._waiters
                             if waiter.future is not future]
            self._pump()

    def _committed(self) -> int:
        """Units currently committed to live grants (their full demand)."""
        return sum(grant.demand for grant in self._live)

    def _available(self) -> Optional[int]:
        if self.budget is None:
            return None
        return self.budget - self._committed()

    def _order_key(self, waiter: _Waiter):
        if self.policy == "deadline":
            urgency = (float("inf") if waiter.deadline is None
                       else float(waiter.deadline))
            return (urgency, waiter.seq)
        # fair-share: tenants with fewer completed admissions first,
        # FIFO within a tenant — strict round-robin, starvation-free.
        return (self._admissions.get(waiter.tenant, 0), waiter.seq)

    def _pump(self) -> None:
        """Admit head-of-line waiters while the pool covers them.

        Must hold ``self._lock``.  Strictly in policy order: the first
        waiter that does not fit blocks everyone behind it (that is the
        fairness/EDF guarantee).  A demand larger than the whole pool is
        clamped once nothing else is committed, so it cannot wedge the
        queue forever.  A waiter cancelled while this runs (its
        ``_withdraw`` waits for the lock) is dropped here uncharged.
        Futures resolve here, under the lock, so their done callbacks
        must not call back into the scheduler.
        """
        while self._waiters:
            waiter = min(self._waiters, key=self._order_key)
            available = self._available()
            demand = waiter.demand
            if available is not None and demand > available:
                if self._live or available < 0:
                    break  # head-of-line: wait for retire to free budget
                demand = max(0, available)  # idle pool: clamp, stay live
            self._waiters.remove(waiter)
            if not waiter.future.set_running_or_notify_cancel():
                continue  # cancelled while queued: nothing to commit
            grant = QueryGrant(self, waiter.tenant, demand, waiter.deadline)
            self._live.append(grant)
            waiter.future.set_result(grant)
            self._admissions[waiter.tenant] = (
                self._admissions.get(waiter.tenant, 0) + 1
            )
            self._inflight[waiter.tenant] = (
                self._inflight.get(waiter.tenant, 0) + 1
            )
            QUERIES_INFLIGHT.set(self._inflight[waiter.tenant],
                                 tenant=waiter.tenant)
            ADMISSIONS_TOTAL.inc(policy=self.policy)
            self._peak_committed = max(self._peak_committed,
                                       self._committed())

    # -- grant plumbing (QueryGrant methods delegate here) --------------------

    def _acquire(self, grant: QueryGrant, n: int) -> int:
        if n < 0:
            raise ConfigurationError(f"cannot acquire {n!r} units")
        with self._lock:
            if grant._cancelled:
                raise QueryCancelledError(
                    f"query of tenant {grant.tenant!r} was cancelled"
                )
            if grant._retired:
                return 0
            funded = min(n, grant.demand - grant._acquired)
            if funded > 0:
                grant._acquired += funded
                grant._granted_units += funded
                BUDGET_GRANTS_TOTAL.inc(funded, tenant=grant.tenant,
                                        policy=self.policy)
            return funded

    def _refund(self, grant: QueryGrant, n: int) -> None:
        if n < 0:
            raise ConfigurationError(f"cannot refund {n!r} units")
        with self._lock:
            if n > grant._acquired:
                raise ConfigurationError(
                    f"refund of {n} exceeds the {grant._acquired} units "
                    f"acquired (tenant {grant.tenant!r})"
                )
            grant._acquired -= n

    def _cancel(self, grant: QueryGrant) -> None:
        with self._lock:
            grant._cancelled = True

    def _retire(self, grant: QueryGrant) -> None:
        with self._lock:
            if grant._retired:
                return
            grant._retired = True
            self._live.remove(grant)
            self._spent += grant._acquired
            count = self._inflight.get(grant.tenant, 1) - 1
            self._inflight[grant.tenant] = count
            QUERIES_INFLIGHT.set(count, tenant=grant.tenant)
            self._pump()

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe snapshot of the pool and every tenant's totals."""
        with self._lock:
            tenants: Dict[str, dict] = {}
            for grant in self._live:
                entry = tenants.setdefault(
                    grant.tenant,
                    {"live": 0, "committed": 0, "consumed": 0},
                )
                entry["live"] += 1
                entry["committed"] += grant.demand
                entry["consumed"] += grant._acquired
            return {
                "policy": self.policy,
                "budget": self.budget,
                "spent": self._spent,
                "committed": self._committed(),
                "available": self._available(),
                "waiting": len(self._waiters),
                "peak_committed": self._peak_committed,
                "admissions": dict(self._admissions),
                "tenants": tenants,
            }
