"""Sharded top-k in synchronized rounds — the *barrier* wait policy.

:class:`ShardedTopKEngine` executes one opaque top-k query over ``W``
shards on the shared :class:`~repro.parallel.coordinator.ShardCoordinator`
and adds exactly one decision to it: wait for every shard before merging.
Execution proceeds in rounds:

1. the coordinator deals the remaining budget into per-shard caps
   (``sync_interval`` scoring calls per shard per round);
2. every funded active shard is submitted one slice of its cap
   (placement decided by the backend: same thread, thread pool, or
   dedicated child processes) and the coordinator collects that many
   events — the barrier;
3. the coordinator folds each shard's running top-k into the global
   :class:`~repro.core.minmax_heap.TopKBuffer`, in worker order (the
   *merge*);
4. the global k-th score is broadcast back as each shard's kick-out floor
   (the *threshold broadcast*), so no shard wastes budget on elements that
   can no longer enter the merged answer.

The ``serial`` backend reproduces the original single-process round
simulation bit for bit (same RNG streams, same budget split, same merge
order, same virtual clock); ``thread`` and ``process`` run the same
protocol on real concurrency and measure real wall-clock.  See
``docs/architecture.md`` for the protocol invariants.

The sibling :mod:`repro.streaming` is the same coordinator *without* the
barrier (continuous slices, merge on arrival, anytime progressive
results).  Every :class:`~repro.parallel.worker.RoundOutcome` also ships
a sketch tail summary, which the coordinator folds into a
:class:`~repro.core.convergence.ConvergenceBound` — the final
:class:`DistributedResult` reports ``displacement_bound``, an explicit
upper estimate of the probability that the budgeted answer differs from
the exact one (``docs/streaming.md``, "Confidence-bounded convergence").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple

from repro.core.result import ResultBase
from repro.data.dataset import Dataset
from repro.errors import ConfigurationError
from repro.obs.metrics import ROUNDS_TOTAL
from repro.parallel.coordinator import ShardCoordinator, WorkerReport
from repro.parallel.worker import RoundOutcome
from repro.scoring.base import Scorer


@dataclass
class DistributedResult(ResultBase):
    """Merged answer plus the (simulated or measured) execution trace."""

    kind: ClassVar[str] = "sharded"

    k: int
    items: List[Tuple[str, float]]
    stk: float
    wall_time: float
    total_scored: int
    n_rounds: int
    workers: List[WorkerReport]
    checkpoints: List[Tuple[float, float]] = field(default_factory=list)
    backend: str = "serial"
    #: Upper estimate of the probability that any *unscored* element
    #: would displace this answer — the distance to the exact full-table
    #: result, from the shards' sketch tails (:mod:`repro.core.convergence`).
    displacement_bound: float = 1.0

    @property
    def budget_spent(self) -> int:
        """Total scoring calls across all shards (protocol alias)."""
        return self.total_scored

    def _extra_json(self) -> dict:
        return {
            "wall_time": float(self.wall_time),
            "n_rounds": int(self.n_rounds),
            "backend": str(self.backend),
            "workers": [
                {"worker_id": int(report.worker_id),
                 "n_elements": int(report.n_elements),
                 "n_scored": int(report.n_scored),
                 "virtual_time": float(report.virtual_time),
                 "local_stk": float(report.local_stk)}
                for report in self.workers
            ],
        }

    def summary(self) -> str:
        """One-line report."""
        bound = ("" if self.displacement_bound >= 1.0
                 else f", displacement bound<={self.displacement_bound:.3g}")
        return (
            f"top-{self.k}: STK={self.stk:.4f} from {len(self.workers)} "
            f"workers, {self.total_scored} total scores in "
            f"{self.n_rounds} rounds, wall time {self.wall_time:.3f}s"
            f"{bound}"
        )


class ShardedTopKEngine(ShardCoordinator):
    """Round-based sharded execution: the coordinator plus a barrier.

    Parameters
    ----------
    sync_interval:
        Scoring calls per shard between coordinator merges.
    **shards:
        Everything else — ``n_workers``, ``backend``, ``index_config``,
        ``engine_config``, ``share_threshold``, ``seed``, ``index_cache``,
        ``ids``, ``shared_memory``, ``memo``, ``priors``, ``trace``,
        ``gate``, ``table_version`` — is documented once, on
        :class:`~repro.parallel.coordinator.ShardCoordinator`.

    With a ``trace``, each round opens a ``round[i]`` span and stitches
    every reporting shard's fragment under it as ``shard[j]``, with the
    post-merge threshold and displacement bound as attributes.  With a
    ``gate``, a round reserves its worst case (``per_worker`` x active
    shards) before dispatch and refunds what the shards did not spend on
    real UDF calls; an underfunded round stops the run at the barrier.
    """

    kind = "sharded"
    _SNAPSHOT_FORMAT = "repro-sharded-snapshot/1"
    _POLICY_FIELDS = ("sync_interval",)

    def __init__(self, dataset: Dataset, scorer: Scorer, k: int,
                 sync_interval: int = 100, **shards) -> None:
        if sync_interval <= 0:
            raise ConfigurationError(
                f"sync_interval must be positive, got {sync_interval!r}"
            )
        super().__init__(dataset, scorer, k, **shards)
        self.sync_interval = int(sync_interval)
        self.n_rounds = 0
        self.checkpoints: List[Tuple[float, float]] = []

    # -- execution -----------------------------------------------------------

    def _barrier(self, per_worker: int,
                   remaining: int) -> List[RoundOutcome]:
        """One slice per funded active shard; outcomes in worker order.

        A simulation backend runs the slice inside ``submit``, so its event
        is drained at once and the next shard's cap sees what this one
        really scored (live allocation, batch overshoot included).  Real
        backends get their caps dealt up front and run concurrently.
        Inactive and zero-cap shards are not submitted at all: they would
        only re-report a solution the coordinator already merged.
        """
        eager = self.backend.virtual_clock
        outcomes: List[RoundOutcome] = []
        in_flight = 0
        for worker in range(self.n_workers):
            if not self._active[worker]:
                continue
            cap = min(per_worker, remaining)
            if cap <= 0:
                continue
            self.backend.submit(worker, cap, self._floor)
            if eager:
                outcome = self.backend.next_event().outcome
                outcomes.append(outcome)
                remaining -= outcome.scored
            else:
                in_flight += 1
                remaining -= cap
        for _ in range(in_flight):
            outcomes.append(self.backend.next_event().outcome)
        outcomes.sort(key=lambda outcome: outcome.worker_id)
        return outcomes

    def run(self, budget: Optional[int] = None) -> DistributedResult:
        """Execute until ``budget`` *total* scoring calls (default: all).

        The budget is cumulative across calls: after a partial run (or a
        snapshot/restore), calling ``run`` again with a larger budget
        continues from the merged state already reached.
        """
        self._ensure_started()
        total_budget = self._total_budget(budget)
        run_rounds = 0
        while self.total_scored < total_budget and any(self._active):
            remaining = total_budget - self.total_scored
            n_active = sum(self._active)
            per_worker = max(1, min(self.sync_interval,
                                    remaining // n_active))
            # Reserve the round's worst case from the service budget gate
            # before dispatch; the unspent remainder (memo hits, exhausted
            # shards) is refunded at the merge barrier below.
            reserved = per_worker * n_active
            if not self._reserve(reserved):
                break
            self.n_rounds += 1
            run_rounds += 1
            if self._trace is not None:
                self._trace.push(f"round[{self.n_rounds - 1}]",
                                 per_worker_cap=per_worker)
            round_started = time.perf_counter()
            outcomes = self._barrier(per_worker, remaining)
            round_elapsed = time.perf_counter() - round_started
            for outcome in outcomes:  # merge in worker order
                self._absorb(outcome)
            self._refund(reserved, sum(outcome.scored - outcome.memo_hits
                                       for outcome in outcomes))
            if self.backend.virtual_clock:
                self.wall_time += max(o.cost for o in outcomes)
            else:
                self.wall_time += round_elapsed
            self._publish(total_budget)
            self.checkpoints.append((self.wall_time, self._buffer.stk))
            if self._trace is not None:
                for outcome in outcomes:
                    if outcome.span is not None:
                        self._trace.attach(
                            outcome.span,
                            rename=f"shard[{outcome.worker_id}]")
                self._trace.annotate(
                    threshold=self._buffer.threshold,
                    bound=self._bound.exhaustive_bound,
                    total_scored=self.total_scored)
                self._trace.pop()        # round[i]
        if run_rounds:
            ROUNDS_TOTAL.inc(run_rounds, backend=self.backend.name)
        return self.result()

    @property
    def displacement_bound(self) -> float:
        """Bound on displacement by any unscored element (1.0 = unknown)."""
        return self._bound.exhaustive_bound

    def result(self) -> DistributedResult:
        """Assemble the merged answer and trace reached so far."""
        return DistributedResult(
            k=self.k,
            items=self._items(),
            stk=self._buffer.stk,
            wall_time=self.wall_time,
            total_scored=self.total_scored,
            n_rounds=self.n_rounds,
            workers=self._worker_reports(),
            checkpoints=list(self.checkpoints),
            backend=self.backend.name,
            displacement_bound=self._bound.exhaustive_bound,
        )

    # -- pause / resume ------------------------------------------------------

    def _policy_state(self) -> dict:
        return {"n_rounds": self.n_rounds,
                "checkpoints": [list(point) for point in self.checkpoints]}

    def _restore_policy_state(self, state: dict) -> None:
        self.n_rounds = int(state["n_rounds"])
        self.checkpoints = [tuple(point) for point in state["checkpoints"]]
