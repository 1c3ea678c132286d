"""Barrier-free streaming top-k — the *arrival* wait policy.

The round engine (:mod:`repro.parallel.engine`) synchronizes every shard
at a barrier each round, so the slowest shard gates the merge and callers
see nothing until the whole run returns.  :class:`StreamingTopKEngine`
runs the same :class:`~repro.parallel.coordinator.ShardCoordinator`
without the barrier: shard workers run continuously in small budget
*slices*, the coordinator merges each
:class:`~repro.parallel.backends.SliceEvent` the moment it arrives into
the global :class:`~repro.core.minmax_heap.TopKBuffer`, and the k-th-score
threshold is re-broadcast asynchronously — a shard picks up the latest
floor at its next slice boundary, never mid-slice.

Protocol invariants (normative statement in ``docs/architecture.md``):

* **One slice in flight per shard.**  A shard is resubmitted only after
  its previous outcome is merged, so the floor a slice runs under is at
  most one slice stale, and the merge order is a total order of arrivals.
* **Budget reservation.**  A slice reserves its cap from the shared
  budget at submission and returns the unused part on arrival; after
  every merge the unreserved budget is re-offered to *all* idle active
  shards (dealt fairly when it cannot fund a full slice each), so a
  shard that exhausts mid-slice frees budget for the others and the
  engine never overshoots the requested budget even though shards stop
  at different times.
* **Monotone floor.**  The broadcast floor only rises (the global buffer
  threshold is monotone), so a stale floor is always a *lower bound* on
  the true one — shards may waste a little effort, never lose answers.
* **Lossless merge.**  The coordinator's
  :func:`~repro.parallel.coordinator.merge_worker_topk` offers every
  first sighting and never re-admits an evicted id.

The anytime surface is :meth:`StreamingTopKEngine.results_iter`, a
generator of :class:`ProgressiveResult` snapshots (top-k, budget spent,
threshold, convergence flag, displacement bounds) emitted as merges
land — the first snapshot arrives after the first slice, i.e.
time-to-first-result is one slice latency instead of one full run.
``converged`` turns true when the answer is provably final for the drive
(budget spent or every shard exhausted) or when an optional early-stop
rule fires: ``stable_slices=s`` stops once every still-active shard has
reported ``s`` consecutive slices without the top-k id set changing (a
heuristic), and ``confidence=p`` stops once the coordinator's
:class:`~repro.core.convergence.ConvergenceBound` — fed by the sketch
tail summaries every slice ships — certifies at level ``p`` that the
rest of the budget would not change the answer (the principled stop;
see ``docs/streaming.md``).

On the ``serial`` backend the whole pipeline is a deterministic
event-driven simulation (virtual clocks, arrival order =
``(completion, worker)``), so streaming runs are snapshot-testable; on
``thread`` / ``process`` the same protocol runs on real concurrency and
the clocks are measured — and with ``record=True`` the real arrival
order is logged to a :class:`~repro.replay.trace.ArrivalTrace` that
:mod:`repro.replay` re-executes bit-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterator, List, Optional, Tuple

from repro.core.convergence import check_confidence
from repro.core.result import ResultBase
from repro.data.dataset import Dataset
from repro.errors import ConfigurationError
from repro.obs.metrics import SLICES_TOTAL, THRESHOLD_STALENESS
from repro.parallel.backends import SliceEvent
from repro.parallel.coordinator import ShardCoordinator, WorkerReport
from repro.scoring.base import Scorer

@dataclass(frozen=True)
class ProgressiveResult:
    """One anytime snapshot of a streaming run, yielded per merge window.

    ``top_k`` is the current merged answer (best first), ``budget_spent``
    the scoring calls consumed so far, ``threshold`` the global k-th score
    being broadcast (``None`` until the buffer fills), and ``converged``
    whether the answer is final for this drive (budget spent, every shard
    exhausted, or the early-stop stability rule fired).
    """

    top_k: List[Tuple[str, float]]
    budget_spent: int
    threshold: Optional[float]
    converged: bool
    stk: float
    wall_time: float
    n_merges: int
    backend: str
    #: Upper estimate of the probability that the *remainder of this
    #: drive's budget* still changes the top-k (what ``CONFIDENCE p``
    #: compares against ``1 - p``); monotone non-increasing per drive.
    displacement_bound: float = 1.0
    #: Same union bound without the budget cap: the estimated probability
    #: that *any* unscored element would displace the current answer —
    #: the distance to the exact full-table result.
    exhaustive_bound: float = 1.0

    @classmethod
    def final(cls, result: ResultBase) -> "ProgressiveResult":
        """Any engine's finished result as one converged snapshot."""
        items = [(str(element_id), float(score))
                 for element_id, score in result.items]
        return cls(
            top_k=items,
            budget_spent=int(result.budget_spent),
            threshold=items[-1][1] if len(items) >= result.k else None,
            converged=True,
            stk=float(result.stk),
            wall_time=float(getattr(result, "wall_time", 0.0)),
            n_merges=int(getattr(result, "n_merges", 0)),
            backend=str(getattr(result, "backend", "serial")),
            displacement_bound=float(result.displacement_bound),
            exhaustive_bound=float(getattr(result, "exhaustive_bound",
                                           result.displacement_bound)),
        )

    @property
    def ids(self) -> List[str]:
        """Element IDs of the current answer, best first."""
        return [element_id for element_id, _score in self.top_k]

    def to_json(self) -> dict:
        """JSON-safe dict of this snapshot (the service's wire format).

        Everything a client needs to render anytime progress; consumed by
        :mod:`repro.service` when streaming snapshots over the line
        protocol.  ``json.dumps(snapshot.to_json())`` round-trips.
        """
        return {
            "top_k": [[str(element_id), float(score)]
                      for element_id, score in self.top_k],
            "budget_spent": int(self.budget_spent),
            "threshold": (None if self.threshold is None
                          else float(self.threshold)),
            "converged": bool(self.converged),
            "stk": float(self.stk),
            "wall_time": float(self.wall_time),
            "n_merges": int(self.n_merges),
            "backend": str(self.backend),
            "displacement_bound": float(self.displacement_bound),
            "exhaustive_bound": float(self.exhaustive_bound),
        }

    def summary(self) -> str:
        """One-line progress report."""
        threshold = ("-" if self.threshold is None
                     else f"{self.threshold:.4f}")
        bound = ("" if self.displacement_bound >= 1.0
                 else f" bound<={self.displacement_bound:.3g}")
        tail = " [converged]" if self.converged else ""
        return (f"t={self.wall_time:.3f}s scored={self.budget_spent} "
                f"stk={self.stk:.4f} threshold={threshold} "
                f"merges={self.n_merges}{bound}{tail}")


@dataclass
class StreamingResult(ResultBase):
    """Final answer of a streaming drive plus its anytime trace."""

    kind: ClassVar[str] = "streaming"

    k: int
    items: List[Tuple[str, float]]
    stk: float
    wall_time: float
    total_scored: int
    n_merges: int
    time_to_first_result: Optional[float]
    converged: bool
    workers: List[WorkerReport]
    #: (wall_time, budget_spent, stk) per merge — the anytime-quality curve.
    progressive: List[Tuple[float, int, float]] = field(default_factory=list)
    backend: str = "serial"
    #: Final drive-scoped / exhaustive displacement bounds (see
    #: :class:`ProgressiveResult` and :mod:`repro.core.convergence`).
    displacement_bound: float = 1.0
    exhaustive_bound: float = 1.0

    @property
    def budget_spent(self) -> int:
        """Total scoring calls across all shards (protocol alias)."""
        return self.total_scored

    def _extra_json(self) -> dict:
        return {
            "wall_time": float(self.wall_time),
            "n_merges": int(self.n_merges),
            "time_to_first_result": (
                None if self.time_to_first_result is None
                else float(self.time_to_first_result)
            ),
            "converged": bool(self.converged),
            "backend": str(self.backend),
            "exhaustive_bound": float(self.exhaustive_bound),
            "progressive": [[float(t), int(n), float(s)]
                            for t, n, s in self.progressive],
        }

    def summary(self) -> str:
        """One-line report (mirrors ``DistributedResult.summary``)."""
        ttfr = ("n/a" if self.time_to_first_result is None
                else f"{self.time_to_first_result:.3f}s")
        return (
            f"top-{self.k}: STK={self.stk:.4f} from {len(self.workers)} "
            f"workers, {self.total_scored} total scores in "
            f"{self.n_merges} merges, wall time {self.wall_time:.3f}s, "
            f"first result after {ttfr}"
        )


class StreamingTopKEngine(ShardCoordinator):
    """Barrier-free execution: the coordinator plus merge-on-arrival.

    Parameters
    ----------
    slice_budget:
        Scoring calls per shard per slice — the streaming analogue of the
        round engine's ``sync_interval``; smaller slices mean fresher
        thresholds and earlier first results at slightly more merge
        traffic.
    stable_slices:
        Optional early-stop rule: stop once every still-active shard has
        reported this many consecutive slices while the top-k id set and
        the buffer's fill stayed unchanged.  ``None`` disables.
    confidence:
        Optional principled early stop (see :mod:`repro.core.convergence`
        and ``docs/streaming.md``): stop once the displacement bound —
        the estimated probability that the rest of the drive still
        changes the top-k — drops to ``1 - confidence`` or below.
        ``confidence=0.95`` stops when the answer is certified stable at
        the 95% level under the shards' sketch model.  ``None`` disables;
        composable with ``stable_slices`` (whichever fires first).
    record:
        Record every slice submission and merge arrival into a
        JSON-safe :class:`~repro.replay.trace.ArrivalTrace` (read it with
        :meth:`trace`), making real thread/process runs replayable
        bit for bit via :mod:`repro.replay`.
    **shards:
        Everything else — ``n_workers`` (1 is valid: a single shard still
        streams a snapshot every slice), ``backend``, ``index_config``,
        ``engine_config``, ``share_threshold``, ``seed``, ``index_cache``,
        ``ids``, ``shared_memory``, ``memo``, ``priors``, ``trace``,
        ``gate``, ``table_version`` — is documented once, on
        :class:`~repro.parallel.coordinator.ShardCoordinator`.

    Memo hits charge full batch cost, so the serial backend's arrival
    order — keyed on virtual completion — is unchanged and warm runs stay
    bit-identical.  With a ``trace`` (distinct from ``record``'s
    replayable arrival trace), each drive opens a ``drive[d]`` span and
    every arriving slice's ``shard[j].slice[s]`` fragment is stitched
    under it, annotated with its observed threshold staleness.  With a
    ``gate``, each slice cap is reserved at submission and its free
    portion refunded at merge; an underfunded shard is simply not
    refilled, so the drive winds down at slice boundaries (cancellation
    surfaces at the next refill as
    :class:`~repro.errors.QueryCancelledError`).
    """

    kind = "streaming"
    _SNAPSHOT_FORMAT = "repro-streaming-snapshot/1"
    _POLICY_FIELDS = ("slice_budget", "stable_slices", "confidence")

    def __init__(self, dataset: Dataset, scorer: Scorer, k: int,
                 slice_budget: int = 100,
                 stable_slices: Optional[int] = None,
                 confidence: Optional[float] = None,
                 record: bool = False, **shards) -> None:
        if slice_budget <= 0:
            raise ConfigurationError(
                f"slice_budget must be positive, got {slice_budget!r}"
            )
        if stable_slices is not None and stable_slices <= 0:
            raise ConfigurationError(
                f"stable_slices must be positive, got {stable_slices!r}"
            )
        super().__init__(dataset, scorer, k, **shards)
        self.slice_budget = int(slice_budget)
        self.stable_slices = stable_slices
        self.confidence = check_confidence(confidence)
        self._recorder = None
        if record:
            from repro.replay.trace import TraceRecorder

            self._recorder = TraceRecorder()
        self.n_merges = 0
        self.time_to_first_result: Optional[float] = None
        self.converged = False
        self.progressive: List[Tuple[float, int, float]] = []
        self._inflight: Dict[int, int] = {}   # worker -> reserved cap
        self._submit_merges: Dict[int, int] = {}
        self._reserved = 0
        self._stable_count: List[int] = [0] * self.n_workers
        self._drive_count = 0
        # Real-clock bookkeeping for the current drive.
        self._drive_started: Optional[float] = None
        self._wall_base = 0.0
        self._last_total = 0

    # -- execution -----------------------------------------------------------

    def _refill(self, total_budget: int) -> None:
        """Submit slices to every idle active shard the budget can cover.

        Called at drive start and after every merge, so budget freed by a
        shard that exhausted mid-slice is re-offered to *all* idle shards,
        not just the one that arrived.  When the unreserved budget cannot
        fund a full slice per idle shard, it is dealt fairly (each shard
        gets its share of what remains) instead of front-loading the
        lowest worker ids.
        """
        idle = [worker for worker in range(self.n_workers)
                if self._active[worker] and worker not in self._inflight]
        for position, worker in enumerate(idle):
            unreserved = total_budget - self.total_scored - self._reserved
            if unreserved <= 0:
                return
            cap = min(self.slice_budget,
                      max(1, unreserved // (len(idle) - position)),
                      unreserved)
            # The service budget gate funds whole slices or none: an
            # underfunded refill just leaves shards idle (the drive winds
            # down), never shrinks a cap — that would perturb the run.
            if not self._reserve(cap):
                return
            if self._recorder is not None:
                self._recorder.submit(worker, cap, self._floor)
            self.backend.submit(worker, cap, self._floor)
            self._inflight[worker] = cap
            self._submit_merges[worker] = self.n_merges
            self._reserved += cap

    def _topk_signature(self) -> Tuple[int, frozenset]:
        return len(self._buffer), frozenset(self._buffer.payloads())

    def _merge_arrival(self, event: SliceEvent) -> None:
        """Merge one arrived slice into the global state."""
        outcome = event.outcome
        worker = outcome.worker_id
        cap = self._inflight.pop(worker)
        self._reserved -= cap
        # Merges that landed while this slice was in flight — exactly how
        # stale the threshold floor it ran under had become by arrival.
        staleness = self.n_merges - self._submit_merges.pop(
            worker, self.n_merges)
        before = self._topk_signature()
        self._absorb(outcome)
        self.n_merges += 1
        if self.backend.virtual_clock:
            self.wall_time = max(self.wall_time,
                                 event.virtual_completion or 0.0)
        else:
            assert self._drive_started is not None
            self.wall_time = self._wall_base + (
                time.perf_counter() - self._drive_started
            )
        if self.time_to_first_result is None:
            self.time_to_first_result = self.wall_time
        if self._topk_signature() == before:
            self._stable_count[worker] += 1
        else:
            self._stable_count = [0] * self.n_workers
        self._publish(self._last_total)
        if self._recorder is not None:
            self._recorder.arrival(worker, outcome.scored, self.wall_time,
                                   cost=outcome.cost)
        self.progressive.append(
            (self.wall_time, self.total_scored, self._buffer.stk)
        )
        SLICES_TOTAL.inc(backend=self.backend.name)
        THRESHOLD_STALENESS.observe(staleness, backend=self.backend.name)
        # The slice reserved its full cap at submission; give back what
        # never became a real UDF call (memo hits, exhaustion).
        self._refund(cap, outcome.scored - outcome.memo_hits)
        if self._trace is not None and outcome.span is not None:
            span = self._trace.attach(outcome.span)
            span.attrs.update(
                staleness=staleness,
                threshold=self._buffer.threshold,
                bound=self._bound.exhaustive_bound,
            )

    def _is_stable(self) -> bool:
        """Early-stop rule: every active shard quiet for ``stable_slices``."""
        if self.stable_slices is None or len(self._buffer) < self.k:
            return False
        active = [w for w in range(self.n_workers) if self._active[w]]
        if not active:
            return True
        return all(self._stable_count[w] >= self.stable_slices
                   for w in active)

    def _is_confident(self) -> bool:
        """Principled early stop: displacement bound reached ``1 - p``."""
        return (self.confidence is not None
                and len(self._buffer) >= self.k
                and self._bound.drive_bound <= 1.0 - self.confidence)

    @property
    def displacement_bound(self) -> float:
        """Current drive-scoped displacement bound (1.0 = no certificate)."""
        return self._bound.drive_bound

    @property
    def exhaustive_bound(self) -> float:
        """Current bound on displacement by *any* unscored element."""
        return self._bound.exhaustive_bound

    def _is_finished(self, total_budget: int) -> bool:
        """Provably final for this drive: budget spent or shards exhausted."""
        return (self.total_scored >= total_budget
                or not any(self._active))

    def _progressive(self, converged: bool) -> ProgressiveResult:
        return ProgressiveResult(
            top_k=self._items(),
            budget_spent=self.total_scored,
            threshold=self._buffer.threshold,
            converged=converged,
            stk=self._buffer.stk,
            wall_time=self.wall_time,
            n_merges=self.n_merges,
            backend=self.backend.name,
            displacement_bound=self._bound.drive_bound,
            exhaustive_bound=self._bound.exhaustive_bound,
        )

    def _begin_drive(self) -> None:
        self._drive_started = time.perf_counter()
        self._wall_base = self.wall_time

    def results_iter(self, budget: Optional[int] = None,
                     every: Optional[int] = None,
                     ) -> Iterator[ProgressiveResult]:
        """Drive the pipeline, yielding anytime snapshots as merges land.

        ``budget`` is cumulative total scoring calls across drives (like
        the round engine's ``run``); ``every`` throttles snapshots to one
        per that many newly scored elements (default: one per slice, i.e.
        roughly every merge).  The final snapshot is always yielded and
        carries the drive's ``converged`` verdict.  Abandoning the
        generator mid-drive leaves slices in flight; they are drained on
        the next drive or :meth:`snapshot` call.
        """
        self._ensure_started()
        total = self._total_budget(budget)
        self._last_total = total
        step = self.slice_budget if every is None else max(1, int(every))
        self._bound.begin_drive()
        if self._recorder is not None:
            self._recorder.begin_drive(total, every)
        if self._trace is not None:
            drive_span = self._trace.push(f"drive[{self._drive_count}]",
                                          budget=total)
            self._drive_count += 1
        self._begin_drive()
        self._refill(total)
        last_yield = self.total_scored
        stopping = False
        while self._inflight:
            self._merge_arrival(self.backend.next_event())
            if not stopping and (self._is_stable() or self._is_confident()):
                stopping = True  # early stop: drain, no resubmissions
            if not stopping:
                self._refill(total)
            if (self._inflight
                    and self.total_scored - last_yield >= step):
                yield self._progressive(converged=False)
                last_yield = self.total_scored
        self.converged = stopping or self._is_finished(total)
        if self._trace is not None:
            drive_span.attrs.update(
                threshold=self._buffer.threshold,
                bound=self._bound.exhaustive_bound,
                total_scored=self.total_scored,
                merges=self.n_merges,
            )
            self._trace.pop()        # drive[d]
        yield self._progressive(converged=self.converged)

    def run(self, budget: Optional[int] = None,
            every: Optional[int] = None) -> StreamingResult:
        """Drive to completion and return the final result with its trace."""
        for _snapshot in self.results_iter(budget, every=every):
            pass
        return self.result()

    def result(self) -> StreamingResult:
        """Assemble the merged answer and anytime trace reached so far."""
        return StreamingResult(
            k=self.k,
            items=self._items(),
            stk=self._buffer.stk,
            wall_time=self.wall_time,
            total_scored=self.total_scored,
            n_merges=self.n_merges,
            time_to_first_result=self.time_to_first_result,
            converged=self.converged,
            workers=self._worker_reports(),
            progressive=list(self.progressive),
            backend=self.backend.name,
            displacement_bound=self._bound.drive_bound,
            exhaustive_bound=self._bound.exhaustive_bound,
        )

    # -- recorded-arrival tracing -------------------------------------------

    def trace(self):
        """The recorded :class:`~repro.replay.trace.ArrivalTrace` so far.

        Requires the engine to have been constructed with ``record=True``;
        read it after (or during) a drive and replay it with
        :func:`repro.replay.replay_run`.
        """
        if self._recorder is None:
            raise ConfigurationError(
                "arrival tracing is off; construct the engine with "
                "record=True to record a replayable trace"
            )
        from repro.replay.trace import ArrivalTrace

        return ArrivalTrace(
            backend=self.backend.name,
            n_workers=self.n_workers,
            k=self.k,
            slice_budget=self.slice_budget,
            share_threshold=self.share_threshold,
            stable_slices=self.stable_slices,
            confidence=self.confidence,
            root_entropy=self.root_entropy,
            drives=[dict(drive) for drive in self._recorder.drives],
            events=[dict(event) for event in self._recorder.events],
        )

    # -- pause / resume ------------------------------------------------------

    def _quiesce(self) -> None:
        """Absorb any in-flight slices without resubmitting."""
        if not self._inflight:
            return
        if self._drive_started is None:
            self._begin_drive()
        while self._inflight:
            self._merge_arrival(self.backend.next_event())

    def _policy_state(self) -> dict:
        return {"n_merges": self.n_merges,
                "time_to_first_result": self.time_to_first_result,
                "progressive": [list(point) for point in self.progressive]}

    def _restore_policy_state(self, state: dict) -> None:
        self.n_merges = int(state["n_merges"])
        ttfr = state.get("time_to_first_result")
        self.time_to_first_result = None if ttfr is None else float(ttfr)
        self.progressive = [tuple(point)
                            for point in state.get("progressive", [])]
