"""Dispatch: run one resolved plan on the engine its mode names.

Three plain functions, chosen by :attr:`ExecutionPlan.mode
<repro.query.plan.ExecutionPlan.mode>` through :data:`RUNNERS` —
``single`` (one engine over the table's index), ``sharded`` (the barrier
coordinator) and ``streaming`` (the arrival coordinator).  They are
deliberately *thin*: all policy (clause validation, WHERE mask
evaluation, budget resolution) happens before dispatch, and everything a
run needs — rows, table binding, scorer, prior store, subset fingerprint
— rides the plan, so nothing here reaches back into the session.

:func:`shard_coordinator` builds either coordinator from a plan and, on
exit, banks the shards' learned priors and closes it; the two sharded
runners and :meth:`OpaqueQuerySession.stream
<repro.session.OpaqueQuerySession.stream>` all go through it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator, Union

from repro.core.engine import EngineConfig, TopKEngine
from repro.core.result import QueryResult, ResultBase
from repro.memo.priors import (
    apply_priors,
    harvest_priors,
    shard_scope,
    single_scope,
)
from repro.parallel.engine import ShardedTopKEngine
from repro.query.plan import ExecutionPlan
from repro.streaming.engine import StreamingTopKEngine
from repro.utils.rng import RngFactory


def _memo_view(plan: ExecutionPlan):
    """The memo view the engines thread, or ``None`` (caching off)."""
    if not plan.cache_enabled:
        return None
    return plan.binding.memo_view(plan.fingerprint, plan.table_version)


def _execute_span(plan: ExecutionPlan, **attrs):
    """The ``execute[mode]`` span of a traced plan (a no-op untraced)."""
    if plan.trace is None:
        return nullcontext()
    return plan.trace.span(f"execute[{plan.mode}]", **attrs)


def run_single(plan: ExecutionPlan) -> ResultBase:
    """One in-process engine over the table's task-independent index.

    A ``WHERE`` filter restricts the index to the candidate leaves
    (:meth:`~repro.index.tree.ClusterTree.restricted`) before the engine
    is built, so the bandit never draws — and the UDF never scores — a
    filtered-out element.
    """
    if plan.n_candidates == 0:
        # WHERE filtered everything out: the empty answer is exact.
        return QueryResult(
            k=plan.k, items=[], stk=0.0, n_scored=0, n_batches=0,
            n_explore=0, n_exploit=0, virtual_time=0.0,
            overhead_time=0.0, exhausted=True,
        )
    # The index request carries the pinned version so a write racing the
    # dispatch serves a one-off tree over exactly the pinned rows.
    index = plan.binding.index_for(plan.table_version, plan.dataset)
    if plan.allowed_ids is not None:
        index = index.restricted(plan.allowed_ids)
    engine = TopKEngine(
        index,
        EngineConfig(k=plan.k, batch_size=plan.batch_size, seed=plan.seed),
    )
    scope = single_scope(plan.subset)
    if plan.warm_start:
        priors = plan.priors.get(plan.fingerprint, scope)
        if priors:
            apply_priors(engine, priors)
    with _execute_span(plan):
        result = engine.run(plan.dataset, plan.scorer, budget=plan.budget,
                            memo=_memo_view(plan), trace=plan.trace,
                            gate=plan.gate)
    if plan.cache_enabled:
        plan.priors.put(plan.fingerprint, scope, harvest_priors(engine))
    return result


@contextmanager
def shard_coordinator(plan: ExecutionPlan) -> Iterator[
        Union[ShardedTopKEngine, StreamingTopKEngine]]:
    """Either shard coordinator, built from the plan and closed on exit.

    The root entropy is settled here, before construction, because the
    warm-start priors are scoped by it; the engine is seeded with that
    entropy and derives exactly the streams ``seed=plan.seed`` would.

    On exit each in-process shard's learned histograms are banked for
    warm starts.  Process children are out of reach (their engines live
    in the pool), and the scopes of a run without a ``SEED`` clause embed
    entropy no later plan can reproduce, so neither is banked —
    warm-start is best-effort by design.
    """
    root_entropy = RngFactory(plan.seed).root_entropy
    scopes = [shard_scope(worker, plan.workers, root_entropy, plan.subset)
              for worker in range(plan.workers)]
    shards = dict(
        k=plan.k,
        n_workers=plan.workers,
        backend=plan.backend,
        index_config=plan.binding.index_config,
        engine_config=EngineConfig(k=plan.k, batch_size=plan.batch_size),
        seed=root_entropy,
        index_cache=plan.binding.shard_cache,
        ids=plan.allowed_ids,
        memo=_memo_view(plan),
        priors=([plan.priors.get(plan.fingerprint, scope)
                 for scope in scopes] if plan.warm_start else None),
        trace=plan.trace,
        gate=plan.gate,
        table_version=plan.table_version,
    )
    if plan.mode == "streaming":
        engine = StreamingTopKEngine(
            plan.dataset, plan.scorer, slice_budget=plan.sync_interval,
            confidence=plan.confidence, **shards)
    else:
        engine = ShardedTopKEngine(
            plan.dataset, plan.scorer, sync_interval=plan.sync_interval,
            **shards)
    engine._subset = plan.subset    # already computed at plan time
    try:
        yield engine
    finally:
        workers = engine.backend.inline_workers()
        if plan.cache_enabled and plan.seed is not None and workers:
            for scope, worker in zip(scopes, workers):
                plan.priors.put(plan.fingerprint, scope,
                                harvest_priors(worker.engine))
        engine.close()


def run_sharded(plan: ExecutionPlan) -> ResultBase:
    """Round-based sharded execution (:mod:`repro.parallel`)."""
    with shard_coordinator(plan) as sharded, _execute_span(
            plan, workers=plan.workers, backend=plan.backend):
        return sharded.run(plan.budget)


def run_streaming(plan: ExecutionPlan) -> ResultBase:
    """Barrier-free streaming execution (:mod:`repro.streaming`)."""
    with shard_coordinator(plan) as streaming, _execute_span(
            plan, workers=plan.workers, backend=plan.backend):
        return streaming.run(plan.budget, every=plan.every)


#: ``ExecutionPlan.mode`` -> the function that runs it to completion.
RUNNERS = {"single": run_single, "sharded": run_sharded,
           "streaming": run_streaming}
