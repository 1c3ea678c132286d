"""A declarative query interface — the Section 7.4 sketch, grown up.

"A minimal implementation is natural in a system that supports UDFs and an
incrementally updating query interface."  :class:`OpaqueQuerySession` is
that implementation: register tables (datasets) and UDFs (scorers), then
execute queries written in a small SQL-ish dialect.

Queries run through a three-stage pipeline (see :mod:`repro.query`):

1. **Parse** — :func:`repro.query.parse`, a hand-written recursive-descent
   parser (order-insensitive clauses, ``WHERE`` feature predicates,
   ``EXPLAIN``, caret-span errors), produces a logical
   :class:`~repro.query.plan.QueryPlan`.  The parser module docstring is
   the normative grammar; ``docs/dialect.md`` is the user-facing tour.
2. **Resolve** — :meth:`OpaqueQuerySession.plan` checks registrations,
   evaluates the ``WHERE`` mask over the table's features, and resolves
   the budget into an :class:`~repro.query.plan.ExecutionPlan`.  The
   statement's clauses are the only way to choose the execution mode;
   front-ends fold their own switches in with
   :meth:`~repro.query.plan.QueryPlan.with_defaults`.
3. **Dispatch** — :meth:`OpaqueQuerySession.execute` runs the plan with
   the function its mode names in :mod:`repro.query.executors`
   (``single`` / ``sharded`` / ``streaming``), or returns the plan
   itself for ``EXPLAIN`` queries.

Every mode returns a :class:`~repro.core.result.ResultBase`: the
single-engine :class:`~repro.core.result.QueryResult`, the sharded
:class:`~repro.parallel.engine.DistributedResult`, or the streaming
:class:`~repro.streaming.engine.StreamingResult` — one shared surface
(``items`` / ``summary()`` / ``budget_spent`` / ``displacement_bound`` /
``to_json()``).

Everything the session keeps *per table* — the task-independent index
(built once, reused by every UDF), the score memo, the cache of per-shard
partition indexes that repeat sharded and streaming queries hit, and a
live table's index maintainer — lives on one
:class:`~repro.catalog.TableBinding`; the session itself holds the
catalog of bindings, the UDFs, and its own warm-start priors.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Dict, Iterator, Optional, Union

import numpy as np

from repro.catalog import TableBinding
from repro.core.result import ResultBase
from repro.data.dataset import Dataset
from repro.errors import ConfigurationError
from repro.index.builder import IndexConfig
from repro.index.tree import ClusterTree
from repro.memo import PriorStore, udf_fingerprint
from repro.obs.analyze import ExplainAnalyzeReport
from repro.obs.metrics import BOUND_WIDTH, MEMO_HIT_RATE, QUERIES_TOTAL
from repro.obs.spans import Span, TraceContext
from repro.parallel.cache import subset_fingerprint
from repro.query.executors import RUNNERS, shard_coordinator
from repro.query.parser import parse
from repro.query.plan import ExecutionPlan, QueryPlan
from repro.scoring.base import Scorer
from repro.streaming.engine import ProgressiveResult


class OpaqueQuerySession:
    """Registry of tables and UDFs plus the declarative executor.

    ``enable_cache`` (default on) activates the cross-query score memo
    (:mod:`repro.memo`): scores are remembered per ``(udf fingerprint,
    element id)`` across queries on the same table, so no element is ever
    scored twice by the same UDF — and memo hits are *transparent* (full
    budget and clock accounting), so warm answers are bit-identical to
    cold ones.  Per-query overrides: ``execute(..., use_cache=False)``
    disables the memo for one dispatch; ``warm_start=True`` additionally
    preloads bandit histogram priors harvested from earlier runs on the
    same ``(table, udf)`` pair (opt-in — a warm-started run explores
    differently, deterministically, but not bit-identically).

    A session instance serves **one caller at a time** — engines mutate
    per-dispatch state (``last_trace``, prior harvests) through it.  For
    concurrent callers, :meth:`fork` derives a connection-local session
    that *shares* the registrations and every transparent cache (tables,
    indexes, UDFs, shard-index caches, score memos — all safe to share
    because hits are bit-identical to rebuilds/rescoring) while keeping
    the non-transparent state private (warm-start prior stores — priors
    change exploration, so one tenant's learning must never leak into
    another's answers — and ``last_trace``).  The multi-tenant service
    (:mod:`repro.service`) forks one child per query.
    """

    def __init__(self, sync_interval: int = 100,
                 enable_cache: bool = True) -> None:
        self._sync_interval = sync_interval  # WORKERS merge / slice cadence
        self._enable_cache = bool(enable_cache)
        # Shared with every fork: the table bindings (dataset, index,
        # score memo, shard-index cache, live maintainer — all
        # transparent), the UDFs, and the lock that serialises lazy
        # builds and write-log reconciliation.
        self._catalog: Dict[str, TableBinding] = {}
        self._udfs: Dict[str, Scorer] = {}
        # Fingerprint taken at registration time (refreshed at plan time,
        # so post-registration parameter mutation invalidates cleanly).
        self._udf_fingerprints: Dict[str, Optional[str]] = {}
        self._registry_lock = threading.RLock()
        # Private to this fork: one warm-start prior store per table
        # (keyed inside by UDF fingerprint), and the table version each
        # was last dirtied up to.
        self._prior_stores: Dict[str, PriorStore] = {}
        self._prior_versions: Dict[str, int] = {}
        #: Span tree of the most recent traced dispatch (``trace=True``
        #: or ``EXPLAIN ANALYZE``); ``None`` until one runs.
        self.last_trace: Optional[TraceContext] = None

    # -- connection isolation ------------------------------------------------

    def fork(self) -> "OpaqueQuerySession":
        """Derive a connection-local session over the same registrations.

        The fork shares every *transparent* structure with its parent —
        the catalog of table bindings (tables, built indexes, index
        configs, shard-index caches, score memos, live maintainers) and
        the UDFs with their fingerprints: a hit in any of them is
        bit-identical to the rebuild or rescore it skips, so tenants warm
        each other without contaminating answers.  It gets its **own**
        warm-start prior stores (priors deliberately change exploration,
        so they stay per-connection) and its own ``last_trace``.
        Registrations made on either side after the fork are visible to
        both — the registries are shared, not copied.
        """
        child = OpaqueQuerySession(
            sync_interval=self._sync_interval,
            enable_cache=self._enable_cache,
        )
        child._catalog = self._catalog
        child._udfs = self._udfs
        child._udf_fingerprints = self._udf_fingerprints
        child._registry_lock = self._registry_lock
        return child

    # -- registration --------------------------------------------------------

    @staticmethod
    def _check_name(name: str, what: str) -> None:
        """Reject registry names the dialect could never reference."""
        from repro.query.parser import KEYWORDS

        if name.upper() in KEYWORDS:
            raise ConfigurationError(
                f"{what} name {name!r} is a reserved dialect keyword and "
                f"could never be queried; pick another name "
                f"(reserved: {', '.join(sorted(KEYWORDS))})"
            )

    def register_table(self, name: str, dataset: Dataset,
                       index_config: Optional[IndexConfig] = None,
                       index: Optional[ClusterTree] = None) -> None:
        """Register a dataset; optionally with a prebuilt index."""
        self._check_name(name, "table")
        if name in self._catalog:
            raise ConfigurationError(f"table {name!r} already registered")
        if index is not None and index.n_elements() != len(dataset):
            raise ConfigurationError(
                "prebuilt index does not cover the dataset"
            )
        self._catalog[name] = TableBinding(
            name, dataset, index_config, self._registry_lock, index=index)

    def register_udf(self, name: str, scorer: Scorer) -> None:
        """Register an opaque scoring function under a name.

        The scorer is fingerprinted (:func:`repro.memo.udf_fingerprint`)
        so the cross-query memo can key its scores; an unfingerprintable
        scorer registers fine but runs with caching off.
        """
        self._check_name(name, "udf")
        if name in self._udfs:
            raise ConfigurationError(f"udf {name!r} already registered")
        self._udfs[name] = scorer
        self._udf_fingerprints[name] = udf_fingerprint(scorer)

    # -- per-table state -----------------------------------------------------

    def _binding(self, table: str) -> TableBinding:
        """The table's binding; the one "unknown table" error."""
        try:
            return self._catalog[table]
        except KeyError:
            raise ConfigurationError(
                f"unknown table {table!r}; registered: "
                f"{sorted(self._catalog)}"
            ) from None

    def table(self, name: str) -> Dataset:
        """The dataset (or :class:`~repro.live.table.LiveTable`) registered
        under ``name``."""
        return self._binding(name).dataset

    def table_info(self, table: str) -> dict:
        """Version, row count, and index-freshness card of one table.

        The per-table surface behind ``repro info``: static tables
        report version 0 and a ``static``/``unbuilt`` index; live tables
        report their current ``table_version``, per-kind write counters,
        and how the maintained index last caught up (``built`` /
        ``incremental`` / ``rebuilt``).
        """
        return self._binding(table).info()

    def cache_stats(self, table: str) -> dict:
        """Hit/miss/entry statistics of one table's score memo."""
        return self._binding(table).memo.stats()

    def _prior_store_for(self, binding: TableBinding,
                         version: int) -> PriorStore:
        """This fork's warm-start prior store for one table, clean as of
        table version ``version``.

        Created on first touch — a fork's executor threads may race each
        other, hence the lock.  When the table has committed writes since
        this fork last looked, exactly the node histograms whose subtrees
        changed are dropped first (all of them when the maintainer's log
        no longer reaches back that far).
        """
        with self._registry_lock:
            store = self._prior_stores.get(binding.name)
            if store is None:
                store = self._prior_stores[binding.name] = PriorStore()
            synced = self._prior_versions.get(binding.name, 0)
            if synced < version:
                touched = binding.touched_since(synced)
                if touched is None:
                    store.clear()
                else:
                    store.drop_nodes(touched)
                self._prior_versions[binding.name] = version
            return store

    # -- planning ------------------------------------------------------------

    def plan(self, query: Union[str, QueryPlan], *,
             use_cache: Optional[bool] = None,
             warm_start: bool = False) -> ExecutionPlan:
        """Parse and resolve one query into an :class:`ExecutionPlan`.

        The execution mode comes from the statement's clauses alone
        (``WORKERS`` / ``BACKEND`` / ``STREAM`` / ``EVERY`` /
        ``CONFIDENCE``); a front-end with switches of its own folds them
        in first with :meth:`QueryPlan.with_defaults
        <repro.query.plan.QueryPlan.with_defaults>` and passes the plan.

        ``use_cache`` overrides the session's ``enable_cache`` for this
        query; ``warm_start`` opts into preloading harvested bandit
        priors (requires the cache).  The UDF fingerprint is recomputed
        here, so mutating a scorer's parameters after registration
        changes the key and never serves stale scores.
        """
        logical = parse(query) if isinstance(query, str) else query
        binding = self._binding(logical.table)
        scorer = self._udfs.get(logical.udf)
        if scorer is None:
            raise ConfigurationError(
                f"unknown udf {logical.udf!r}; registered: "
                f"{sorted(self._udfs)}"
            )
        # A live table reconciles its write log here (index maintenance,
        # the memo's row maps, cache eviction) and pins this query to an
        # immutable snapshot; this fork's priors are dirtied to match.
        dataset, index_freshness, index = binding.pin()
        priors = self._prior_store_for(binding, dataset.version)
        n_workers = logical.workers or 1
        streaming = bool(logical.stream or logical.every is not None
                         or logical.confidence is not None)
        # WHERE pushdown: evaluate the predicate mask once over the cheap
        # feature matrix; the candidate list flows to every executor.
        allowed_ids = None
        n_candidates = len(dataset)
        if logical.where is not None:
            mask = np.asarray(logical.where.mask(dataset.features()),
                              dtype=bool)
            all_ids = dataset.ids()
            # flatnonzero + fancy indexing keeps the compaction out of
            # the interpreter loop (a 1M-row zip walk costs ~100 ms).
            allowed_ids = [all_ids[i] for i in np.flatnonzero(mask)]
            n_candidates = len(allowed_ids)
            # A filter may leave fewer candidates than requested shards;
            # clamp so the query still runs (one worker minimum) instead
            # of failing with a worker-count error that never mentions
            # the WHERE clause.
            n_workers = min(n_workers, max(1, n_candidates))
        budget = logical.budget
        if logical.budget_fraction is not None:
            budget = max(logical.k,
                         int(logical.budget_fraction * n_candidates))
        # Zero surviving candidates degenerate to the single executor,
        # which short-circuits to an (exact) empty answer — there is
        # nothing to shard or stream.
        mode = ("single" if n_candidates == 0
                else "streaming" if streaming
                else "sharded" if n_workers > 1 else "single")
        # Cross-query memo: refresh the fingerprint (mutation-safe) and
        # decide whether this dispatch caches.  The expected hit rate is
        # an O(candidates) probe, so it is computed for EXPLAIN only.
        fingerprint = udf_fingerprint(scorer)
        self._udf_fingerprints[logical.udf] = fingerprint
        cache_on = (self._enable_cache if use_cache is None
                    else bool(use_cache)) and fingerprint is not None
        expected_hit_rate = None
        if cache_on and logical.explain:
            expected_hit_rate = binding.memo_view(
                fingerprint, dataset).expected_hit_rate(
                    ids=allowed_ids, n_candidates=n_candidates)
        return ExecutionPlan(
            query=logical,
            mode=mode,
            n_elements=len(dataset),
            n_candidates=n_candidates,
            budget=budget,
            batch_size=logical.batch_size,
            seed=logical.seed,
            workers=n_workers,
            backend=logical.backend or "serial",
            every=logical.every,
            confidence=logical.confidence,
            allowed_ids=allowed_ids,
            fingerprint=fingerprint,
            cache_enabled=cache_on,
            warm_start=bool(warm_start) and cache_on,
            expected_hit_rate=expected_hit_rate,
            dataset=dataset,
            binding=binding,
            scorer=scorer,
            priors=priors,
            subset=subset_fingerprint(allowed_ids),
            sync_interval=self._sync_interval,
            index_freshness=index_freshness,
            index=index,
        )

    # -- execution -----------------------------------------------------------

    def _prepare(self, query: Union[str, QueryPlan, ExecutionPlan], *,
                 trace: bool, budget_gate, use_cache: Optional[bool],
                 warm_start: bool, streamed: bool = False) -> ExecutionPlan:
        """Parse, plan and arm one query — the head of execute()/stream().

        ``streamed`` is :meth:`stream`'s implied ``STREAM`` clause.  An
        :class:`ExecutionPlan` (``use_cache`` / ``warm_start`` applied by
        :meth:`plan`) is armed as it is; its trace has no parse or plan.

        With tracing on (``trace=True``, or an ``EXPLAIN ANALYZE`` query:
        the report *is* the span tree) the parse and plan stages are timed
        into a fresh :class:`~repro.obs.spans.TraceContext`; tracer and
        budget gate ride the returned plan to the executor.  A plain
        ``EXPLAIN`` plan comes back unarmed — it is never dispatched.
        """
        if isinstance(query, ExecutionPlan):
            resolved, logical = query, query.query
            if (streamed and resolved.mode != "streaming"
                    and resolved.n_candidates):
                raise ConfigurationError(
                    "stream() needs a plan resolved with STREAM; got a "
                    f"{resolved.mode!r} plan")
            tracer = TraceContext() if trace or logical.analyze else None
        else:
            t_parse = time.perf_counter()
            logical = parse(query) if isinstance(query, str) else query
            if streamed:
                logical = logical.with_defaults(stream=True)
            parse_wall = time.perf_counter() - t_parse
            tracer = None
            if trace or logical.analyze:
                # The parse span is attached after the fact (the ANALYZE
                # keyword is only known once parsing is done) — backdating
                # the origin to t_parse keeps the timeline starting at the
                # parse, not after it.
                tracer = TraceContext(origin=t_parse)
                tracer.attach(Span("parse", wall=parse_wall).to_dict())
            with tracer.span("plan") if tracer is not None else nullcontext():
                resolved = self.plan(logical, use_cache=use_cache,
                                     warm_start=warm_start)
        if not logical.explain or logical.analyze:
            if logical.continuous:
                raise ConfigurationError(
                    "CONTINUOUS queries are standing subscriptions, not "
                    "one-shot dispatches; drive one with "
                    "repro.live.ContinuousQuery or submit it to the "
                    "multi-tenant repro.service.QueryService"
                )
            resolved.trace = tracer
            resolved.gate = budget_gate
            if tracer is not None:
                self.last_trace = tracer
        return resolved

    def execute(self, query: Union[str, QueryPlan, ExecutionPlan], *,
                use_cache: Optional[bool] = None,
                warm_start: bool = False,
                trace: bool = False,
                budget_gate=None,
                ) -> Union[ResultBase, ExecutionPlan,
                           ExplainAnalyzeReport]:
        """Parse, resolve, and dispatch one query.

        Single-engine queries return a
        :class:`~repro.core.result.QueryResult`; ``WORKERS > 1`` queries
        a :class:`~repro.parallel.engine.DistributedResult`; ``STREAM``
        queries the final
        :class:`~repro.streaming.engine.StreamingResult` (use
        :meth:`stream` for live snapshots) — all implementing
        :class:`~repro.core.result.ResultBase`.  ``EXPLAIN`` queries
        return the resolved :class:`~repro.query.plan.ExecutionPlan`
        instead of executing; ``EXPLAIN ANALYZE`` queries run under a
        forced tracer and return an
        :class:`~repro.obs.analyze.ExplainAnalyzeReport`.
        ``use_cache`` / ``warm_start`` are those of :meth:`plan`.
        ``query`` may be a plan :meth:`plan` returned: it runs as
        resolved, on the snapshot it pinned, without planning again.

        ``trace=True`` records a query-lifecycle span tree
        (:class:`~repro.obs.spans.TraceContext`) without changing the
        answer — tracing observes totals the engines already account, so
        traced runs stay bit-identical.  The tree is attached to the
        result as ``result.trace`` and kept as :attr:`last_trace`.

        ``budget_gate`` threads a service
        :class:`~repro.service.budget.QueryGrant` (or anything with its
        ``acquire``/``refund`` shape) to the engine, metering the
        query's real UDF calls against a shared pool; a fully funded
        gate never changes the answer.
        """
        resolved = self._prepare(
            query, trace=trace, budget_gate=budget_gate,
            use_cache=use_cache, warm_start=warm_start)
        if resolved.query.explain and not resolved.query.analyze:
            return resolved
        stats_before = (resolved.binding.memo.stats()
                        if resolved.cache_enabled else None)
        result = self._observe_query(
            resolved, RUNNERS[resolved.mode](resolved), stats_before)
        if resolved.query.analyze:
            return ExplainAnalyzeReport(plan=resolved, result=result,
                                        trace=resolved.trace)
        return result

    @staticmethod
    def _observe_query(plan: ExecutionPlan, result: ResultBase,
                       stats_before: Optional[dict]) -> ResultBase:
        """The tail of execute()/stream(): metrics, then the trace.

        The process-wide metrics are always on (unlike span tracing): one
        counter bump and two gauge stores per *query* — never per
        element — so the cost is unmeasurable against even the cheapest
        dispatch.  A traced plan's span tree is attached to the result.
        """
        QUERIES_TOTAL.inc(table=plan.table, mode=plan.mode)
        BOUND_WIDTH.set(float(result.displacement_bound), mode=plan.mode)
        if stats_before is not None:
            after = plan.binding.memo.stats()
            hits = after["hits"] - stats_before["hits"]
            looked = hits + (after["misses"] - stats_before["misses"])
            if looked:
                MEMO_HIT_RATE.set(hits / looked, table=plan.table)
        if plan.trace is not None:
            result.trace = plan.trace
        return result

    def stream(self, query: Union[str, QueryPlan, ExecutionPlan], *,
               use_cache: Optional[bool] = None,
               warm_start: bool = False,
               trace: bool = False,
               budget_gate=None,
               ) -> Iterator[ProgressiveResult]:
        """Run one query barrier-free, yielding progressive snapshots.

        Any query is accepted (a ``STREAM`` clause is implied), or a plan
        :meth:`plan` resolved with ``STREAM``; snapshots arrive from the
        first slice onward and the last one carries ``converged=True``.
        ``trace=True`` records the span tree into :attr:`last_trace`
        (complete once the iterator is exhausted).
        """
        resolved = self._prepare(
            query, trace=trace, budget_gate=budget_gate,
            use_cache=use_cache, warm_start=warm_start, streamed=True)
        if resolved.query.explain:
            raise ConfigurationError(
                "EXPLAIN queries return a plan and cannot be streamed; "
                "use execute() to inspect the plan"
            )
        stats_before = (resolved.binding.memo.stats()
                        if resolved.cache_enabled else None)
        if resolved.mode == "streaming":
            with shard_coordinator(resolved) as streaming:
                yield from streaming.results_iter(resolved.budget,
                                                  every=resolved.every)
                result = streaming.result()
        else:
            # WHERE filtered everything out (plan() degrades the mode to
            # "single"): execute()'s empty answer, exact and final, as
            # the one snapshot.
            result = RUNNERS[resolved.mode](resolved)
            yield ProgressiveResult.final(result)
        self._observe_query(resolved, result, stats_before)
