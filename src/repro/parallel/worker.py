"""Shard-side execution: partitioning, per-shard state, and round running.

One *shard* owns a partition of the dataset, its own index over that
partition, and its own :class:`~repro.core.engine.TopKEngine` — exactly the
per-worker setup of the paper's Section 6 MapReduce sketch.  The coordinator
(:mod:`repro.parallel.coordinator`) never touches shard internals; it only
asks a shard to run one budget slice and reads back a light
:class:`RoundOutcome`.

Everything a shard needs to bootstrap itself is captured in a *picklable*
:class:`ShardSpec`, so the same code path runs in-process (serial and thread
backends) and in a child process (process backend).  Determinism is
preserved across placements by shipping the coordinator's root RNG entropy
instead of live generator objects: a shard derives its streams with
``RngFactory(root_entropy).named(f"index:{w}")`` / ``named(f"engine:{w}")``,
which are byte-identical to the streams the single-process simulation draws
from its shared factory (named streams depend only on the root entropy and
the first eight bytes of the name — see :class:`~repro.utils.rng.RngFactory`
— so shards 10 and up share shard 1's ``engine:`` seed, and a resumed
shard's ``resume:{w}:{count}`` seed does not depend on the count).

Pause/resume uses the engine snapshot layer
(:func:`repro.core.snapshot.snapshot_engine` /
:func:`~repro.core.snapshot.restore_engine`): a shard's learned state
serializes to a JSON-safe dict that crosses process boundaries and sessions
alike.  See ``docs/architecture.md`` ("Shard coordinator + wait policy")
for the full protocol walkthrough.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.convergence import TailSummary, tail_summary_from_engine
from repro.core.engine import EngineConfig, ScoringStep, TopKEngine
from repro.core.snapshot import restore_engine, snapshot_engine
from repro.data.dataset import InMemoryDataset
from repro.errors import ConfigurationError
from repro.index.builder import IndexConfig, build_index, index_config_for
from repro.index.tree import ClusterTree
from repro.memo.store import MemoView
from repro.obs.spans import Span
from repro.parallel.shm import (
    SharedFeatureTable,
    SharedSliceRef,
    shm_default_enabled,
)
from repro.scoring.base import Scorer
from repro.utils.rng import RngFactory


def partition_ids(ids: Sequence[str], n_workers: int,
                  rng: np.random.Generator) -> List[List[str]]:
    """Shuffle ``ids`` with ``rng`` and deal them round-robin to workers.

    This is the exact partitioning of the original single-process
    simulation; the shuffle consumes ``rng``'s stream, so the caller must
    pass the factory's ``named("partition")`` generator to stay
    bit-compatible.
    """
    shuffled = list(ids)
    rng.shuffle(shuffled)
    return [shuffled[w::n_workers] for w in range(n_workers)]


def shard_features(dataset, member_ids: Sequence[str]) -> np.ndarray:
    """Stack the partition's cheap feature vectors for index construction.

    Prefers the dataset's vectorized ``features_of`` gather (bit-identical
    to the row-by-row stack, one numpy call instead of one per element);
    falls back to per-element ``feature_of``, and finally to a constant
    vector when the dataset exposes neither (the index then degenerates
    gracefully).
    """
    if hasattr(dataset, "features_of"):
        return np.asarray(dataset.features_of(member_ids), dtype=float)
    return np.stack([
        np.asarray(dataset.feature_of(element_id), dtype=float)
        if hasattr(dataset, "feature_of")
        else np.zeros(1)
        for element_id in member_ids
    ])


class ShardDataset(InMemoryDataset):
    """A picklable, self-contained view of one worker's partition.

    Process workers cannot reach back into the coordinator's dataset, so
    the spec materializes the partition's objects and features up front.
    """


@dataclass
class ShardSpec:
    """Everything needed to (re)build one shard anywhere — all picklable."""

    worker_id: int
    member_ids: List[str]
    k: int
    engine_config: EngineConfig
    index_config: Optional[IndexConfig]
    root_entropy: int
    scorer: Optional[Scorer] = None          # shipped to process workers
    objects: Optional[list] = None           # partition elements, id-aligned
    features: Optional[np.ndarray] = None    # partition features, id-aligned
    engine_snapshot: Optional[dict] = None   # resume payload
    resume_seed: Optional[int] = None
    prebuilt_index: Optional[ClusterTree] = None  # cache hit: skip the build
    #: Zero-copy alternative to the inline ``objects`` / ``features`` copy:
    #: a constant-size handle into a coordinator-owned shared-memory
    #: segment (:mod:`repro.parallel.shm`).  When set, ``member_ids`` is
    #: left empty and the child resolves ids, objects, features, and any
    #: cached index from the mapped segment, keeping the pickled spec O(1)
    #: in the partition size.
    features_ref: Optional[SharedSliceRef] = None
    #: Frozen cross-query score memo restricted to this shard's members
    #: (partitions are disjoint, so the restriction is complete).  The
    #: worker only *reads* it — fresh scores travel back through
    #: :attr:`RoundOutcome.fresh_scores` and the coordinator records them
    #: into the live :class:`~repro.memo.store.MemoStore` at merge time,
    #: keeping process children read-only.  ``None`` disables the memo.
    memo: Optional[dict] = None
    #: Warm-start histogram priors (``{node id -> histogram payload}``,
    #: see :mod:`repro.memo.priors`), applied to a *fresh* engine before
    #: its first draw; ignored on resume (the snapshot already carries
    #: richer learned state).  Opt-in and not bit-identical by design.
    priors: Optional[dict] = None
    #: When True the worker records one span fragment per round/slice and
    #: ships it back on :attr:`RoundOutcome.span` for the coordinator's
    #: :class:`~repro.obs.spans.TraceContext` to stitch.  Off by default:
    #: the round loop then never touches the tracing layer.
    trace: bool = False
    #: Live tables: the pinned :class:`~repro.live.table.TableSnapshot`
    #: version this shard's partition was cut from.  Echoed back on every
    #: :attr:`RoundOutcome.table_version` so the coordinator can assert
    #: no cross-version outcome ever merges.  0 for immutable datasets.
    table_version: int = 0


@dataclass
class RoundOutcome:
    """What a shard reports back after one synchronization round."""

    worker_id: int
    scored: int                  # elements scored this round
    cost: float                  # virtual scoring cost of this round (s)
    elapsed: float               # real wall-clock of this round (s)
    topk: List[Tuple[str, float]]
    exhausted: bool
    n_scored_total: int
    local_stk: float
    fallback_events: List[Tuple[int, str]] = field(default_factory=list)
    #: Unscored-mass summary for the coordinator's displacement bound
    #: (:mod:`repro.core.convergence`); ``None`` on restored stubs.
    tail: Optional[TailSummary] = None
    #: ``(element id, score)`` pairs this round actually paid a UDF call
    #: for (memo misses; everything when no memo rides the spec).  The
    #: coordinator records them into the cross-query memo at merge time.
    fresh_scores: List[Tuple[str, float]] = field(default_factory=list)
    #: Memo hits this round (scores served without a UDF call), for the
    #: coordinator's cache accounting.
    memo_hits: int = 0
    #: JSON-safe span fragment for this round/slice
    #: (:meth:`repro.obs.spans.Span.to_dict`), present only when the spec
    #: asked for tracing.  Rides the existing wire format, so process
    #: backends ship it through the same pickle as the answer rows.
    span: Optional[dict] = None
    #: The table version this outcome was scored against (echoed from
    #: :attr:`ShardSpec.table_version`); the coordinator refuses to merge
    #: an outcome from any other version than its own pinned snapshot.
    table_version: int = 0


def build_shard_specs(dataset, scorer: Scorer, *, n_workers: int, k: int,
                      engine_config: EngineConfig,
                      index_config: Optional[IndexConfig],
                      factory: RngFactory,
                      materialize: bool,
                      restore_payloads: Optional[List[dict]] = None,
                      resume_count: int = 0,
                      index_cache=None,
                      ids: Optional[Sequence[str]] = None,
                      subset: Optional[str] = None,
                      shared_memory: Optional[bool] = None,
                      memo_snapshot: Optional[dict] = None,
                      priors: Optional[List[Optional[dict]]] = None,
                      trace: bool = False,
                      table_version: int = 0,
                      ) -> Tuple[List[List[str]], List[ShardSpec], bool,
                                 Optional[SharedFeatureTable]]:
    """Partition the dataset and assemble one :class:`ShardSpec` per worker.

    Called by the one :class:`~repro.parallel.coordinator.ShardCoordinator`,
    so the round and streaming engines get identical shards from identical
    inputs.  ``ids`` restricts execution to a
    candidate subset (the dialect's ``WHERE`` pushdown): only those
    elements are partitioned, indexed, and ever drawn.  When
    ``index_cache`` (a :class:`~repro.parallel.cache.ShardIndexCache`)
    holds an entry for this build's key — which includes the subset
    fingerprint (``subset``, computed from ``ids`` when the caller has
    not already) — the cached partitions are reused and each spec carries
    its ``prebuilt_index``, skipping the per-shard k-means fits
    bit-identically (each named RNG stream is a generator of its own, so
    skipping one's draws never perturbs another).

    ``shared_memory`` selects the zero-copy bootstrap for materialized
    (process-bound) specs: ``None`` auto-enables when POSIX shared memory
    works here (:func:`repro.parallel.shm.shm_default_enabled`; opt out
    globally with ``REPRO_DISABLE_SHM=1``), ``True`` requires it,
    ``False`` forces the inline copy path.  On the shm path each spec
    ships a constant-size ``features_ref`` instead of inline ids /
    objects / features (and the cached index, on a cache hit, ships its
    float payload through the same segment); the packed per-shard feature
    blocks are exactly the arrays :func:`shard_features` produces, so
    child-side index builds — and therefore answers — are bit-identical
    to the copy path.  Packing failures fall back to the copy path unless
    ``shared_memory=True`` demanded it.

    Returns ``(partitions, specs, cache_hit, shm_table)``; ``shm_table``
    is the coordinator-owned :class:`~repro.parallel.shm.SharedFeatureTable`
    (``None`` on the copy path) whose ``close()`` the caller owes once the
    run is over.
    """
    from repro.parallel.cache import shard_cache_key, subset_fingerprint

    population = list(ids) if ids is not None else dataset.ids()
    root_entropy = factory.root_entropy
    cached = None
    if index_cache is not None:
        key = shard_cache_key(root_entropy, n_workers, index_config,
                              len(population),
                              subset=(subset_fingerprint(ids)
                                      if subset is None else subset),
                              table_version=table_version)
        cached = index_cache.get(key)
    if cached is not None:
        partitions, indexes = cached
        partitions = [list(p) for p in partitions]
    else:
        partitions = partition_ids(population, n_workers,
                                   factory.named("partition"))
        indexes = [None] * n_workers
    use_shm = materialize and (shm_default_enabled()
                               if shared_memory is None
                               else bool(shared_memory))
    table: Optional[SharedFeatureTable] = None
    refs: List[Optional[SharedSliceRef]] = [None] * n_workers
    if use_shm:
        try:
            table = SharedFeatureTable.create([
                {"member_ids": list(members),
                 "objects": dataset.fetch_batch(members),
                 "features": shard_features(dataset, members),
                 "tree": indexes[worker]}
                for worker, members in enumerate(partitions)
            ])
        except Exception as exc:
            if shared_memory:
                raise ConfigurationError(
                    f"shared_memory=True but the zero-copy bootstrap "
                    f"failed: {exc}"
                ) from exc
            table = None  # clean fallback to the inline copy path
        else:
            refs = [table.ref(worker) for worker in range(n_workers)]
    specs: List[ShardSpec] = []
    for worker, members in enumerate(partitions):
        snapshot = None
        resume_seed = None
        if restore_payloads is not None:
            snapshot = restore_payloads[worker]
            resume_seed = int(
                factory.named(f"resume:{worker}:{resume_count}")
                .integers(2**31)
            )
        ref = refs[worker]
        inline = materialize and ref is None
        shard_memo = None
        if memo_snapshot is not None:
            # Restrict to this shard's members so process specs stay small;
            # partitions are disjoint, so the restriction loses nothing.
            # An *empty* dict is meaningful (caching on, nothing stored
            # yet): the worker still collects fresh scores for write-back.
            shard_memo = {
                element_id: memo_snapshot[element_id]
                for element_id in members
                if element_id in memo_snapshot
            }
        specs.append(ShardSpec(
            worker_id=worker,
            member_ids=[] if ref is not None else list(members),
            k=k,
            engine_config=engine_config,
            index_config=index_config,
            root_entropy=root_entropy,
            scorer=scorer if materialize else None,
            objects=(dataset.fetch_batch(members) if inline else None),
            features=(shard_features(dataset, members) if inline else None),
            engine_snapshot=snapshot,
            resume_seed=resume_seed,
            prebuilt_index=None if ref is not None else indexes[worker],
            features_ref=ref,
            memo=shard_memo,
            priors=priors[worker] if priors is not None else None,
            trace=trace,
            table_version=int(table_version),
        ))
    return partitions, specs, cached is not None, table


class ShardWorker:
    """One shard: partition + local index + local engine + round loop."""

    def __init__(self, spec: ShardSpec, dataset=None,
                 scorer: Optional[Scorer] = None) -> None:
        self.spec = spec
        self.worker_id = spec.worker_id
        resolved = None
        if dataset is None and spec.features_ref is not None:
            # Zero-copy bootstrap: attach the coordinator's segment and
            # materialize this shard's ids / objects / cached index from
            # it; the feature block stays a read-only view into the
            # mapping (never copied into this process).
            resolved = spec.features_ref.resolve()
            self.member_ids = list(resolved.member_ids)
            self.dataset = ShardDataset(resolved.member_ids,
                                        resolved.objects, resolved.features)
        else:
            self.member_ids = list(spec.member_ids)
            self.dataset = dataset if dataset is not None else ShardDataset(
                spec.member_ids, spec.objects, spec.features
            )
        scorer = scorer if scorer is not None else spec.scorer
        if scorer is None:
            raise ValueError("shard needs a scorer (inline or via spec)")
        self.scorer = scorer
        factory = RngFactory(spec.root_entropy)
        prebuilt = spec.prebuilt_index
        if prebuilt is None and resolved is not None:
            prebuilt = resolved.index
        if prebuilt is not None:
            # Cache hit: the tree is a pure function of (root entropy,
            # worker id, partition, index config), and it is read-only at
            # query time (the bandit mirrors it into its own nodes), so
            # reuse is bit-identical to a rebuild.  Each named RNG stream
            # is its own generator, so skipping the index:{w} draws never
            # perturbs the engine:{w} stream derived below.
            self.index: ClusterTree = prebuilt
        else:
            if resolved is not None:
                features = resolved.features
            elif spec.features is not None:
                features = np.asarray(spec.features, dtype=float)
            else:
                features = shard_features(self.dataset, self.member_ids)
            self.index = build_index(
                features, self.member_ids,
                index_config_for(len(self.member_ids), spec.index_config,
                                 cap=32),
                rng=factory.named(f"index:{self.worker_id}"),
            )
        engine_seed = int(
            factory.named(f"engine:{self.worker_id}").integers(2**31)
        )
        config = replace(spec.engine_config, k=spec.k, seed=engine_seed)
        if spec.engine_snapshot is not None:
            self.engine = restore_engine(
                self.index, spec.engine_snapshot, config=replace(
                    config, seed=spec.resume_seed
                ),
                resume_seed=spec.resume_seed,
            )
        else:
            self.engine = TopKEngine(self.index, config)
            if spec.priors:
                # Warm start only fresh engines: a resume snapshot already
                # carries richer learned state than any harvested prior.
                from repro.memo.priors import apply_priors

                apply_priors(self.engine, spec.priors)
        # The shipped slice, behind the same lookup/record surface the
        # single engine reads (a private store: fresh scores still travel
        # home on RoundOutcome.fresh_scores).  An empty slice is a view
        # too — "memo on, nothing stored yet".
        self._memo = (None if spec.memo is None else MemoView.from_payload(
            {"fingerprint": "shard", "scores": spec.memo}))
        self._trace = bool(spec.trace)
        self._slice_count = 0

    # -- round protocol ------------------------------------------------------

    def run_round(self, cap: int,
                  threshold_floor: Optional[float] = None) -> RoundOutcome:
        """Score up to ``cap`` elements, then report the running solution.

        ``threshold_floor`` is the coordinator's latest global k-th score;
        the local buffer still accepts everything (the merge stays lossless)
        but gain estimation targets only globally competitive scores.
        """
        engine = self.engine
        if threshold_floor is not None:
            engine.threshold_floor = threshold_floor
        step = ScoringStep(self.dataset, self.scorer, self._memo)
        started = time.perf_counter()
        engine.advance(step, engine.n_scored + cap)
        elapsed = time.perf_counter() - started
        span = None
        if self._trace:
            # One fragment per slice, built from the totals the loop
            # already accumulates — tracing adds nothing per batch.
            span = Span(
                f"shard[{self.worker_id}].slice[{self._slice_count}]",
                wall=elapsed,
                counters={"vclock": step.cost, "scored": step.scored,
                          "udf_calls": step.scored - step.hits,
                          "memo_hits": step.hits},
                attrs={"worker": self.worker_id,
                       "n_scored_total": engine.n_scored,
                       "threshold": engine.threshold},
            ).to_dict()
            self._slice_count += 1
        return RoundOutcome(
            worker_id=self.worker_id,
            scored=step.scored,
            cost=step.cost,
            elapsed=elapsed,
            topk=engine.topk_items(),
            exhausted=engine.exhausted,
            n_scored_total=engine.n_scored,
            local_stk=engine.stk,
            fallback_events=list(engine.fallback_events),
            # Per-slice, not per-element: one leaf walk + mixture build per
            # outcome (~0.4 ms on a 50-cluster shard).  In the scoring-
            # dominated regime the protocol targets, one slice of UDF calls
            # costs orders of magnitude more, and always-on tails are what
            # make every ProgressiveResult carry its bound.
            tail=tail_summary_from_engine(engine),
            fresh_scores=step.fresh,
            memo_hits=step.hits,
            span=span,
            table_version=self.spec.table_version,
        )

    def snapshot(self) -> dict:
        """JSON-safe learned state of this shard (see core.snapshot)."""
        return snapshot_engine(self.engine)


# ---------------------------------------------------------------------------
# Process-backend entry points.  A dedicated single-process pool hosts each
# shard; the initializer builds the ShardWorker once and round commands
# operate on the process-global instance, so only light RoundOutcome dicts
# cross the pipe every round (never the index or histograms).
# ---------------------------------------------------------------------------

_PROCESS_WORKER: Optional[ShardWorker] = None


def process_init(spec: ShardSpec) -> None:
    """Pool initializer: build this process's shard from its picklable spec."""
    global _PROCESS_WORKER
    _PROCESS_WORKER = ShardWorker(spec)


def process_run_round(cap: int,
                      threshold_floor: Optional[float]) -> RoundOutcome:
    """Run one round on the process-resident shard."""
    assert _PROCESS_WORKER is not None, "pool initializer did not run"
    return _PROCESS_WORKER.run_round(cap, threshold_floor)


def process_snapshot() -> dict:
    """Snapshot the process-resident shard's engine."""
    assert _PROCESS_WORKER is not None, "pool initializer did not run"
    return _PROCESS_WORKER.snapshot()
