"""The shard coordinator — Section 6's MapReduce combination, written once.

"Run the indexing and bandit algorithm on each worker, and periodically
communicate the running solution back to a coordinator."
:class:`ShardCoordinator` is that coordinator: it deals the dataset into
``W`` shards (each with its own index and
:class:`~repro.core.engine.TopKEngine`, see :mod:`repro.parallel.worker`),
places them on a backend (:mod:`repro.parallel.backends`), folds every
:class:`~repro.parallel.worker.RoundOutcome` a shard reports into the
global :class:`~repro.core.stk.TopKBuffer` (the *merge*), and
broadcasts the global k-th score back as each shard's kick-out floor (the
*threshold broadcast*).

What it does **not** decide is *when to wait* for the shards.  That is
the one thing the two engines built on it differ in:

* :class:`~repro.parallel.engine.ShardedTopKEngine` — the **barrier**
  policy: one slice per shard per round, wait for all, merge in worker
  order;
* :class:`~repro.streaming.engine.StreamingTopKEngine` — the **arrival**
  policy: merge each slice the moment it lands and refill that shard.

Everything else lives here: argument validation, root entropy, the
partitions and the in-process shard specs (memo slices, priors, resume
seeds; cached trees on a hit), index-cache harvest, the version-checked
absorb with memo write-back, budget-gate reserve/refund,
:class:`WorkerReport` assembly, and snapshot/restore.  Every backend
starts from the same specs; what crosses into a child process is the
process backend's own business (:mod:`repro.parallel.backends`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, List, Optional, Sequence, Set, Tuple, Union

from repro.core.convergence import ConvergenceBound
from repro.core.engine import EngineConfig, TopKEngine, _fully_funded
from repro.core.stk import TopKBuffer
from repro.data.dataset import Dataset
from repro.errors import ConfigurationError, SerializationError
from repro.index.builder import IndexConfig
from repro.memo.store import MemoStore
from repro.obs.metrics import MEMO_HITS_TOTAL, UDF_CALLS_TOTAL
from repro.obs.spans import TraceContext
from repro.parallel.backends import ShardBackend, make_backend
from repro.parallel.cache import (
    ShardIndexCache,
    shard_cache_key,
    subset_fingerprint,
)
from repro.parallel.worker import RoundOutcome, ShardSpec, partition_ids
from repro.persist import NULL, NUMBER, read, read_fixed, read_topk
from repro.scoring.base import Scorer
from repro.utils.rng import RngFactory


@dataclass(frozen=True)
class WorkerReport:
    """Final statistics of one shard."""

    worker_id: int
    n_elements: int
    n_scored: int
    virtual_time: float
    local_stk: float
    fallback_events: Tuple[Tuple[int, str], ...]


def merge_worker_topk(buffer: TopKBuffer, merged_ids: Set[str],
                      items: List[Tuple[str, float]]) -> None:
    """Fold one shard's running solution into the global top-k.

    ``merged_ids`` remembers every ID ever offered: scores are immutable, so
    an element seen twice (second sight can only come from re-reporting the
    same shard's buffer, or a pathological duplicate ID across shards) is
    offered exactly once, and an evicted element — below the global k-th
    score forever — is never re-admitted.
    """
    for element_id, score in items:
        if element_id not in merged_ids:
            merged_ids.add(element_id)
            buffer.offer(score, element_id)


def _pinned(dataset: Dataset) -> Dataset:
    """``dataset``, or the snapshot of a live table's current version."""
    # Not a module import: repro.live imports the streaming engine, which
    # imports this module.
    from repro.live.table import LiveTable
    return dataset.snapshot() if isinstance(dataset, LiveTable) else dataset


class ShardCoordinator:
    """Shared half of the sharded and streaming engines.

    Parameters
    ----------
    dataset / scorer / k:
        The query, exactly as for :class:`~repro.core.engine.TopKEngine`.
        The run is pinned to ``dataset.version`` (0 for immutable
        datasets, a live table's snapshot's own version otherwise; a
        :class:`~repro.live.table.LiveTable` itself is read through the
        ``snapshot()`` of its version at construction, so writes
        committed during the run never reach its shards): it keys the
        shard-index cache so partitions built at one version
        never serve another, stamps every
        :class:`~repro.parallel.worker.ShardSpec` and snapshot payload,
        and is asserted against each arriving
        :class:`~repro.parallel.worker.RoundOutcome`.
    n_workers:
        Number of shards.
    backend:
        ``"serial"`` (deterministic simulation, virtual clock),
        ``"thread"`` or ``"process"`` (real concurrency, measured clock),
        or a ready :class:`~repro.parallel.backends.ShardBackend` instance
        (how :mod:`repro.replay` injects its trace-driven backend).
    index_config:
        Per-partition index configuration (cluster count is clamped per
        shard, minimum 1).
    engine_config:
        Per-shard engine settings (``k`` is forced to the query's k so the
        merge is lossless).
    seed:
        Root seed; shards derive their own named streams from it
        regardless of the backend (the root entropy travels to child
        processes, not live generators; shards 10 and up share shard 1's
        engine seed — see :class:`~repro.utils.rng.RngFactory`).  Passing
        a previous run's :attr:`root_entropy` rebuilds its partitions and
        shard indexes identically.
    index_cache:
        Optional :class:`~repro.parallel.cache.ShardIndexCache` shared
        across runs on the same immutable dataset: a hit reuses the cached
        partitions bit-identically, and in-process shards their cached
        indexes too (process children rebuild theirs from the same RNG
        streams); a miss harvests them after the build (in-process
        backends only).
    ids:
        Restrict execution to a candidate subset (``WHERE`` pushdown):
        only those elements are partitioned, indexed, and drawn.
    memo:
        Optional :class:`~repro.memo.store.MemoView` over the cross-query
        score memo for this ``(table, udf)`` pair.  Each shard spec ships
        a frozen per-partition restriction; fresh scores travel back in
        :class:`~repro.parallel.worker.RoundOutcome` and are recorded here
        at merge time (process children stay read-only).  Memo hits skip
        the real UDF call but charge full batch cost, so warm answers are
        bit-identical to cold ones.
    priors:
        Optional per-worker warm-start priors (one
        ``{node id -> histogram payload}`` dict per shard, see
        :mod:`repro.memo.priors`), applied to fresh shard engines before
        their first draw.  Opt-in and deliberately not bit-identical.
    trace:
        Optional :class:`~repro.obs.spans.TraceContext`.  When given,
        shards record one span fragment per slice (shipped on
        :attr:`~repro.parallel.worker.RoundOutcome.span`) and the engine
        stitches them under its own spans.  ``None`` (the default) keeps
        the coordinator loop untouched.
    gate:
        Optional :class:`~repro.service.budget.QueryGrant`-shaped budget
        gate (``acquire(n) -> int`` / ``refund(n)``).  The engine reserves
        each dispatch's worst-case fresh-call count before submitting and
        refunds whatever did not become a real UDF call (memo hits, early
        exhaustion).  Fully funded dispatches leave the schedule untouched
        — bit-identity is preserved; a partial grant is refunded whole and
        the run winds down.
    """

    #: ``"sharded"`` / ``"streaming"``: the metric label.
    kind: ClassVar[str]
    _SNAPSHOT_FORMAT: ClassVar[str]
    #: The wait policy's constructor arguments (also public attributes) and
    #: their JSON types; a snapshot stores them, ``restore`` feeds them back.
    _POLICY_FIELDS: ClassVar[dict]
    #: Fields the ``/1`` snapshot keeps for options since fixed, with the
    #: one value a snapshot writes and ``restore`` accepts: the threshold
    #: broadcast is always on.
    _FIXED_FIELDS: ClassVar[dict] = {"share_threshold": True}

    def __init__(self, dataset: Dataset, scorer: Scorer, k: int,
                 n_workers: int = 4,
                 backend: Union[str, ShardBackend] = "serial",
                 index_config: Optional[IndexConfig] = None,
                 engine_config: Optional[EngineConfig] = None,
                 seed=None,
                 index_cache: Optional[ShardIndexCache] = None,
                 ids: Optional[Sequence[str]] = None,
                 memo=None,
                 priors: Optional[List[Optional[dict]]] = None,
                 trace: Optional[TraceContext] = None,
                 gate=None) -> None:
        if n_workers <= 0:
            raise ConfigurationError(
                f"n_workers must be positive, got {n_workers!r}"
            )
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k!r}")
        dataset = _pinned(dataset)
        self._ids: Optional[List[str]] = (
            list(ids) if ids is not None else None
        )
        # Fingerprint of ``ids`` (it keys the index cache), computed at
        # most once per run — on first start, unless the session's
        # dispatch, which scoped its priors by it, set it already.
        self._subset: Optional[str] = None
        self._population = (len(self._ids) if self._ids is not None
                            else len(dataset))
        if self._population < n_workers:
            raise ConfigurationError(
                f"{n_workers} workers for only {self._population} elements"
            )
        self.dataset = dataset
        self.scorer = scorer
        self.k = int(k)
        self.n_workers = int(n_workers)
        self._factory = RngFactory(seed)
        self._index_config = index_config
        self._engine_config = replace(engine_config or EngineConfig(),
                                      k=self.k)
        self._index_cache = index_cache
        self._memo = memo
        self._priors = priors
        self._trace = trace
        self._gate = gate
        # Read once: every shard report is checked against the version
        # the run started at.
        self._table_version = int(dataset.version)
        self.backend: ShardBackend = (
            backend if isinstance(backend, ShardBackend)
            else make_backend(backend)
        )
        # Coordinator state (persists across runs for resumption).
        self._started = False
        # The shards' member tuples, shared with the specs and the index
        # cache (never copied here): read for their sizes, and banked in
        # the cache after a miss.
        self._partitions: List[Sequence[str]] = []
        self._buffer: TopKBuffer[str] = TopKBuffer(self.k)
        self._merged_ids: Set[str] = set()
        self.wall_time = 0.0
        self.total_scored = 0
        self._worker_times: List[float] = [0.0] * self.n_workers
        self._active: List[bool] = [True] * self.n_workers
        #: Latest broadcast threshold; ``None`` until the buffer fills.
        #: Monotone: the buffer's k-th score only rises.
        self._floor: Optional[float] = None
        self._bound = ConvergenceBound(self.n_workers)
        self._last_outcomes: List[Optional[RoundOutcome]] = (
            [None] * self.n_workers
        )
        self._resume_count = 0
        self._restore_payloads: Optional[List[dict]] = None

    @property
    def root_entropy(self) -> int:
        """Root of every RNG stream of this run (partition, index, engines)."""
        return self._factory.root_entropy

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Release backend resources (child processes, thread pools)."""
        self.backend.close()

    def start(self) -> None:
        """Bootstrap every shard eagerly (``run()`` otherwise does it lazily).

        Exposed so callers (``bench/wl_sharded.py``) can time the
        bootstrap — spec assembly plus backend start — separately from
        query execution.
        """
        self._ensure_started()

    def _ensure_started(self) -> None:
        """Deal the partitions, build one spec per shard, start the backend.

        On an index-cache hit the cached partitions are reused and each
        spec carries its cached ``prebuilt_index``, skipping the per-shard
        k-means fits bit-identically (each named RNG stream is a generator
        of its own, so skipping one's draws never perturbs another).  The
        specs hold the partition tuples uncopied and nothing reads the
        whole table's ids on a hit, so a warm start is O(workers).
        """
        if self._started:
            return
        key = cached = None
        if self._index_cache is not None:
            if self._subset is None:
                self._subset = subset_fingerprint(self._ids)
            key = shard_cache_key(self.root_entropy, self.n_workers,
                                  self._index_config, self._population,
                                  subset=self._subset,
                                  table_version=self._table_version)
            cached = self._index_cache.get(key)
        if cached is not None:
            self._partitions, indexes = cached
        else:
            self._partitions = [tuple(members) for members in partition_ids(
                self._ids if self._ids is not None else self.dataset.ids(),
                self.n_workers, self._factory.named("partition"))]
            indexes = [None] * self.n_workers
        memo = self._memo.snapshot() if self._memo is not None else None
        specs = []
        for worker, members in enumerate(self._partitions):
            snapshot = resume_seed = None
            if self._restore_payloads is not None:
                snapshot = self._restore_payloads[worker]
                resume_seed = int(self._factory.named(
                    f"resume:{worker}:{self._resume_count}").integers(2**31))
            specs.append(ShardSpec(
                worker_id=worker,
                member_ids=members,
                engine_config=self._engine_config,
                index_config=self._index_config,
                root_entropy=self.root_entropy,
                engine_snapshot=snapshot,
                resume_seed=resume_seed,
                prebuilt_index=indexes[worker],
                # Restricted to this shard's members: partitions are
                # disjoint, so nothing is lost, and an *empty* slice still
                # means "memo on" (fresh scores come home for write-back).
                memo=(None if memo is None else
                      {element_id: memo[element_id] for element_id in members
                       if element_id in memo}),
                priors=(self._priors[worker] if self._priors is not None
                        else None),
                trace=self._trace is not None,
                table_version=self._table_version,
            ))
        try:
            self.backend.start(specs, self.dataset, self.scorer,
                               worker_times=list(self._worker_times))
        except BaseException:
            # The backend releases its partial state (pools, segment).
            self.backend.close()
            raise
        self._started = True
        # Bank freshly built shard indexes for later runs.  Process
        # children own theirs out of reach: the harvest is in-process only.
        workers = self.backend.inline_workers()
        if key is not None and cached is None and workers is not None:
            self._index_cache.put(key, self._partitions,
                                  [worker.index for worker in workers])

    # -- the merge -----------------------------------------------------------

    def _total_budget(self, budget: Optional[int]) -> int:
        """Cumulative scoring-call target of a run (default: everything)."""
        return (self._population if budget is None
                else min(budget, self._population))

    def _reserve(self, calls: int) -> bool:
        """Draw ``calls`` from the budget gate; all-or-nothing."""
        return self._gate is None or _fully_funded(self._gate, calls)

    def _refund(self, reserved: int, fresh: int) -> None:
        """Return the part of a reservation that never became a UDF call."""
        if self._gate is not None and reserved > fresh:
            self._gate.refund(reserved - fresh)

    def _absorb(self, outcome: RoundOutcome) -> None:
        """Fold one shard report into the global state."""
        worker = outcome.worker_id
        if outcome.table_version != self._table_version:
            raise ConfigurationError(
                f"shard {worker} reported table version "
                f"{outcome.table_version}, coordinator pinned "
                f"{self._table_version}"
            )
        self.total_scored += outcome.scored
        self._worker_times[worker] += outcome.cost
        self._active[worker] = not outcome.exhausted
        self._last_outcomes[worker] = outcome
        if self._memo is not None:
            # Coordinator-side write-back: shards only read their frozen
            # memo slice; new scores land here in merge order (process
            # children stay read-only).
            if outcome.fresh_scores:
                self._memo.record_pairs(outcome.fresh_scores)
            self._memo.count(outcome.memo_hits, len(outcome.fresh_scores))
        merge_worker_topk(self._buffer, self._merged_ids, outcome.topk)
        self._bound.update(worker, outcome.tail)
        fresh = outcome.scored - outcome.memo_hits
        if fresh:
            UDF_CALLS_TOTAL.inc(fresh, engine=self.kind,
                                backend=self.backend.name)
        if outcome.memo_hits:
            MEMO_HITS_TOTAL.inc(outcome.memo_hits, engine=self.kind,
                                backend=self.backend.name)

    def _publish(self, total_budget: int) -> None:
        """After a merge: tighten the bounds, raise the broadcast floor."""
        threshold = self._buffer.threshold
        self._bound.refresh(threshold, len(self._buffer) >= self.k,
                            max(0, total_budget - self.total_scored))
        if threshold is not None:
            self._floor = threshold

    # -- result assembly -----------------------------------------------------

    def _items(self) -> List[Tuple[str, float]]:
        """The merged answer, best first."""
        return [(element_id, score)
                for score, element_id in self._buffer.items()]

    def _worker_reports(self) -> List[WorkerReport]:
        reports = []
        for worker, outcome in enumerate(self._last_outcomes):
            reports.append(WorkerReport(
                worker_id=worker,
                n_elements=(len(self._partitions[worker])
                            if self._partitions else 0),
                n_scored=outcome.n_scored_total if outcome else 0,
                virtual_time=self._worker_times[worker],
                local_stk=outcome.local_stk if outcome else 0.0,
                fallback_events=tuple(outcome.fallback_events)
                if outcome else (),
            ))
        return reports

    # -- pause / resume ------------------------------------------------------

    def _quiesce(self) -> None:
        """Leave no slice in flight (the barrier never does)."""

    def _policy_state(self) -> dict:
        """The wait policy's own progress counters, JSON-safe."""
        raise NotImplementedError

    def _restore_policy_state(self, state: dict) -> None:
        raise NotImplementedError

    def snapshot(self) -> dict:
        """Capture the full run: coordinator state + shard engines.

        Shards snapshot at slice boundaries, where no batch is pending
        (in-flight slices are drained first).  The payload nests one
        :meth:`repro.core.engine.TopKEngine.snapshot` dict per shard; like the
        single-engine snapshot, RNG state is *not* captured, so a resumed
        run is a valid execution but not bit-identical to the
        uninterrupted one.
        """
        self._ensure_started()
        self._quiesce()
        return {
            "format": self._SNAPSHOT_FORMAT,
            "k": self.k,
            "n_workers": self.n_workers,
            **{name: getattr(self, name) for name in self._POLICY_FIELDS},
            **self._FIXED_FIELDS,
            "backend": self.backend.name,
            "root_entropy": self.root_entropy,
            "resume_count": self._resume_count,
            "table_version": self._table_version,
            "coordinator": {
                "buffer": [[score, element_id]
                           for score, element_id in self._buffer.items()],
                "merged_ids": sorted(self._merged_ids),
                "exhaustive_bound": self._bound.exhaustive_bound,
                "wall_time": self.wall_time,
                "total_scored": self.total_scored,
                **self._policy_state(),
                "worker_times": list(self._worker_times),
                "active": list(self._active),
                "pending_floor": self._floor,
                "worker_stats": [
                    [o.n_scored_total, o.local_stk,
                     [list(e) for e in o.fallback_events]]
                    if o else None
                    for o in self._last_outcomes
                ],
            },
            "workers": self.backend.snapshots(),
            # WHERE candidate subset; None when the whole table ran.
            "ids": self._ids,
            # Cross-query memo slice for this (table, udf) pair, so a
            # resumed run keeps its warm scores; None when caching is off.
            "memo": (None if self._memo is None else
                     {"fingerprint": self._memo.fingerprint,
                      "scores": self._memo.snapshot()}),
        }

    @classmethod
    def restore(cls, dataset: Dataset, scorer: Scorer, snapshot: dict,
                backend: Optional[str] = None,
                index_config: Optional[IndexConfig] = None,
                engine_config: Optional[EngineConfig] = None,
                index_cache: Optional[ShardIndexCache] = None,
                memo=None):
        """Rebuild a run from :meth:`snapshot` output.

        ``dataset`` must be the same immutable dataset (a live table is
        read through the snapshot of its current version), and
        ``index_config`` / ``engine_config`` must repeat whatever the
        original run used (shard indexes are rebuilt deterministically from
        the stored root entropy, and node IDs are verified during engine
        restore).  ``backend`` may differ — a run snapshotted under
        ``process`` can resume under ``serial`` and vice versa.

        ``memo`` optionally re-attaches a live
        :class:`~repro.memo.store.MemoView`; the snapshot's stored memo
        slice is merged into it (or, with no view supplied, revived into a
        standalone store) so the resumed run stays warm.

        ``dataset.version`` must equal the table version the run was
        snapshotted at (0 for immutable datasets): a paused run holds
        per-shard engine state valid only for the rows it saw, so
        restoring it onto a table that has since committed writes is
        rejected rather than silently resumed against different data.
        So is a ``memo`` view of another UDF than the snapshot's slice,
        before anything is recorded into it.
        """
        fmt = cls._SNAPSHOT_FORMAT
        read(snapshot, fmt, k=int, n_workers=int, backend=str,
             root_entropy=int, coordinator=dict, workers=list,
             resume_count=(int, NULL), table_version=(int, NULL),
             ids=(list, NULL), memo=(dict, NULL), **cls._POLICY_FIELDS)
        read_fixed(snapshot, fmt, **cls._FIXED_FIELDS)
        state = read(snapshot["coordinator"], fmt, "coordinator",
                     buffer=list, merged_ids=list, wall_time=NUMBER,
                     total_scored=int, worker_times=list, active=list,
                     exhaustive_bound=NUMBER + (NULL,),
                     pending_floor=NUMBER + (NULL,),
                     worker_stats=(list, NULL))
        buffer = read_topk(state["buffer"], fmt, "coordinator buffer")
        workers = snapshot["workers"]
        if len(workers) != snapshot["n_workers"]:
            raise SerializationError(f"expected {fmt} with one 'workers' "
                                     f"payload per shard, found {len(workers)}")
        for payload in workers:
            read(payload, TopKEngine._SNAPSHOT_FORMAT)
        dataset = _pinned(dataset)
        stored_version = snapshot.get("table_version") or 0
        if stored_version != dataset.version:
            raise ConfigurationError(
                f"snapshot was taken at table version {stored_version}, "
                f"cannot restore against version {dataset.version}")
        memo_payload = snapshot.get("memo")
        if memo_payload is not None:
            read(memo_payload, fmt, "memo", fingerprint=str, scores=dict)
            stored = memo_payload["fingerprint"]
            if memo is None:
                memo = MemoStore().view(stored)
            elif memo.fingerprint != stored:
                raise ConfigurationError(
                    f"snapshot memo holds scores of UDF {stored!r}, cannot "
                    f"restore them into the view of UDF {memo.fingerprint!r}")
        engine = cls(
            dataset, scorer, k=snapshot["k"],
            n_workers=snapshot["n_workers"],
            backend=backend or snapshot["backend"],
            index_config=index_config,
            engine_config=engine_config,
            # The original run's root entropy: partitions and shard
            # indexes rebuild identically.
            seed=snapshot["root_entropy"],
            index_cache=index_cache,
            ids=snapshot.get("ids"),
            memo=memo,
            **{name: snapshot.get(name) for name in cls._POLICY_FIELDS},
        )
        engine._resume_count = (snapshot.get("resume_count") or 0) + 1
        engine._restore_payloads = list(workers)
        engine._restore_policy_state(state)
        for score, element_id in buffer:
            engine._buffer.offer(score, element_id)
        engine._merged_ids = set(state["merged_ids"])
        engine.wall_time = float(state["wall_time"])
        engine.total_scored = state["total_scored"]
        # The exhaustive certificate survives the pause (it only ever
        # tightens); a drive-scoped bound resets with the next drive.
        bound = state.get("exhaustive_bound")
        engine._bound.exhaustive_bound = 1.0 if bound is None else float(bound)
        engine._worker_times = [float(t) for t in state["worker_times"]]
        engine._active = [bool(flag) for flag in state["active"]]
        floor = state.get("pending_floor")
        engine._floor = None if floor is None else float(floor)
        for worker, stats in enumerate(state.get("worker_stats") or ()):
            if stats is not None:
                n_scored, local_stk, events = stats
                engine._last_outcomes[worker] = RoundOutcome(
                    worker_id=worker, scored=0, cost=0.0,
                    topk=[], exhausted=not engine._active[worker],
                    n_scored_total=int(n_scored),
                    local_stk=float(local_stk),
                    fallback_events=[(int(t), str(kind))
                                     for t, kind in events],
                )
        if memo_payload is not None:
            memo.record_pairs(memo_payload["scores"].items())
        return engine
