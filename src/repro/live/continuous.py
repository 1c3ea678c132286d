"""Standing ``CONTINUOUS`` queries over live tables.

A query with the ``CONTINUOUS`` clause is a *subscription*, not a
dispatch: the answer is recomputed whenever committed writes may have
changed it, and a fresh
:class:`~repro.streaming.engine.ProgressiveResult` snapshot is emitted
only when the top-k actually moved.  :class:`ContinuousQuery` is the
driver: each cycle plans against the table's newest committed version
(pinning a snapshot, exactly like a one-shot query), executes to
convergence, and compares the ``(id, score)`` answer with the previous
emission.

Cost model: the cross-query memo makes re-emission cheap — elements
untouched by the intervening writes hit their memoized scores (the memo
is keyed by block row, and a write only adds rows: the row rule in
:mod:`repro.memo.store`), so a cycle's fresh UDF calls are
proportional to the write batch, not the table.  When a
:class:`~repro.service.budget.QueryGrant` is attached, each cycle is
metered against the tenant's budget and the grant is *re-armed*
(consumed calls refunded) after the cycle — a standing query holds a
per-cycle reservation, it does not drain the tenant forever.

The session refuses to ``execute()``/``stream()`` a ``CONTINUOUS``
query directly; drive it here, or submit it to the multi-tenant
:class:`~repro.service.service.QueryService`, which hosts one of these
per standing query with cancel/disconnect semantics.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from typing import Iterator, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.live.table import LiveTable
from repro.obs.metrics import CONTINUOUS_EMITS
from repro.query.parser import parse
from repro.query.plan import QueryPlan
from repro.streaming.engine import ProgressiveResult

#: Default wait granularity of :meth:`ContinuousQuery.snapshots` —
#: cancellation is observed at this cadence while no write commits.
DEFAULT_POLL = 0.1


class ContinuousQuery:
    """One standing query: re-emit the top-k as committed writes land.

    Parameters
    ----------
    session:
        The :class:`~repro.session.OpaqueQuerySession` (or a fork) the
        query's table and UDF are registered on.
    query:
        Dialect text or a parsed :class:`~repro.query.plan.QueryPlan`;
        must carry the ``CONTINUOUS`` clause and reference a
        :class:`~repro.live.table.LiveTable`.
    gate:
        Optional :class:`~repro.service.budget.QueryGrant`-shaped budget
        gate, re-armed after every cycle (see the module docstring).
    poll:
        Seconds between cancellation checks while waiting for a commit.
    use_cache / warm_start / trace:
        Forwarded to every cycle's ``execute()``.
    """

    def __init__(self, session, query: Union[str, QueryPlan], *,
                 gate=None, poll: float = DEFAULT_POLL,
                 use_cache: Optional[bool] = None,
                 warm_start: bool = False, trace: bool = False) -> None:
        logical = parse(query) if isinstance(query, str) else query
        if not logical.continuous:
            raise ConfigurationError(
                "ContinuousQuery needs a CONTINUOUS clause; one-shot "
                "queries go through session.execute()"
            )
        if logical.explain:
            raise ConfigurationError(
                "EXPLAIN queries return a plan and cannot stand"
            )
        live = session.table(logical.table)
        if not isinstance(live, LiveTable):
            raise ConfigurationError(
                f"table {logical.table!r} is not a LiveTable; CONTINUOUS "
                f"queries need a mutable table to watch"
            )
        self._session = session
        self._live = live
        self._table = logical.table
        # Each cycle is an ordinary one-shot dispatch of the same query.
        self._cycle = replace(logical, continuous=False)
        self._gate = gate
        self._poll = float(poll)
        self._options = dict(use_cache=use_cache, warm_start=warm_start,
                             trace=trace)
        self._cancelled = threading.Event()
        self._version = -1        # last version a cycle executed against
        self._answer: Optional[Tuple] = None
        self._changed = False
        self.n_cycles = 0
        self.n_emits = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called."""
        return self._cancelled.is_set()

    def cancel(self) -> None:
        """Stop the subscription; waiters return at the next poll tick."""
        self._cancelled.set()

    # -- one cycle -----------------------------------------------------------

    def run_once(self) -> ProgressiveResult:
        """Execute one cycle against the current committed version.

        Always runs (no change detection); updates the standing state so
        a following :meth:`refresh` waits for *newer* commits.  The memo
        keeps unchanged elements warm, so the cycle's fresh UDF calls
        track the writes since the previous cycle, not the table size.
        """
        version = self._live.version
        result = self._session.execute(self._cycle, budget_gate=self._gate,
                                       **self._options)
        self._rearm()
        snapshot = ProgressiveResult.final(result)
        answer = tuple(snapshot.top_k)
        self._changed = self._answer is None or answer != self._answer
        self._answer = answer
        self._version = max(self._version, version)
        self.n_cycles += 1
        return snapshot

    def refresh(self, timeout: Optional[float] = None,
                ) -> Optional[ProgressiveResult]:
        """Wait for a commit past the last cycle, recompute, emit on change.

        Returns the new snapshot when the answer changed (and on the
        very first call, which emits the initial answer), ``None`` when
        the wait timed out, the subscription was cancelled, or the
        commit did not change the top-k.
        """
        if self.cancelled:
            return None
        if self._answer is None:
            return self._emit(self.run_once())
        version = self._live.wait_for_commit(self._version, timeout=timeout)
        if self.cancelled or version <= self._version:
            return None
        snapshot = self.run_once()
        if self._changed:
            return self._emit(snapshot)
        return None

    def snapshots(self) -> Iterator[ProgressiveResult]:
        """The standing subscription: block until :meth:`cancel`.

        Yields the initial answer immediately, then one snapshot per
        answer-changing write batch; commits that leave the top-k intact
        emit nothing (their cycles still run, memo-warm).
        """
        while not self.cancelled:
            snapshot = self.refresh(timeout=self._poll)
            if snapshot is not None:
                yield snapshot

    # -- internals -----------------------------------------------------------

    def _emit(self, snapshot: ProgressiveResult) -> ProgressiveResult:
        self.n_emits += 1
        CONTINUOUS_EMITS.inc(table=self._table)
        return snapshot

    def _rearm(self) -> None:
        """Refund the cycle's consumed grant: standing queries hold a
        per-cycle reservation, not a forever-draining one."""
        gate = self._gate
        if gate is None:
            return
        consumed = getattr(gate, "consumed", 0)
        if consumed:
            gate.refund(consumed)
