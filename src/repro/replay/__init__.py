"""Recorded-arrival replay: audit and reproduce real streaming runs.

Under the ``thread`` and ``process`` backends the streaming engine merges
slices in real — hence nondeterministic — arrival order.  This package makes such runs
reproducible after the fact:

1. **Record.**  Construct the streaming engine with ``record=True`` (or
   pass ``--record-trace`` to ``python -m repro demo``).  The coordinator
   logs every slice submission and every merge arrival into a JSON-safe
   :class:`~repro.replay.trace.ArrivalTrace` (``engine.trace()``).
2. **Replay.**  :func:`replay_engine` rebuilds the same shards (from the
   trace's root entropy — supply the *same* dataset and scorer) wired to
   the :class:`~repro.replay.backend.ReplayStreamBackend`, which releases
   outcomes in the recorded order and re-emits the recorded wall-clock as
   its virtual clock.  :func:`replay_run` drives the recorded drives end
   to end and returns the final
   :class:`~repro.streaming.engine.StreamingResult`.

A replay reproduces the recorded run's merge sequence, progressive trace,
and answer bit for bit, and two replays of one trace are identical —
pinned by ``tests/test_replay.py``; protocol notes in
``docs/streaming.md``.  Divergence (different dataset, scorer, seed, or
configuration) raises :class:`~repro.errors.ReplayDivergenceError`
instead of silently producing a different history.
"""

from __future__ import annotations

from typing import Optional

from repro.replay.backend import REPLAY_BACKEND_NAME, ReplayStreamBackend
from repro.replay.trace import TRACE_FORMAT, ArrivalTrace, TraceRecorder

__all__ = [
    "ArrivalTrace",
    "REPLAY_BACKEND_NAME",
    "ReplayStreamBackend",
    "TRACE_FORMAT",
    "TraceRecorder",
    "replay_engine",
    "replay_run",
]


def replay_engine(dataset, scorer, trace: ArrivalTrace, *,
                  index_config=None, engine_config=None, index_cache=None,
                  span_trace=None):
    """Build a streaming engine that will re-execute ``trace``.

    ``dataset`` / ``scorer`` must be the ones the trace was recorded
    with (they are not serialized into the trace);  ``index_config`` /
    ``engine_config`` must repeat the recorded run's, exactly as for
    snapshot restore.  The returned engine exposes the normal anytime
    surface (``results_iter`` / ``run`` / ``result``) — drive it with the
    recorded budgets (see :func:`replay_run`).

    ``span_trace`` optionally threads a
    :class:`~repro.obs.spans.TraceContext` through the replay; its
    :meth:`~repro.obs.spans.TraceContext.timeline` (span order, names,
    and deterministic counters — everything but the real stopwatch,
    which PR 4's replay contract carves out) reproduces the recorded
    run's exactly.
    """
    from repro.streaming.engine import StreamingTopKEngine

    return StreamingTopKEngine(
        dataset, scorer, k=trace.k,
        n_workers=trace.n_workers,
        backend=ReplayStreamBackend(trace),
        index_config=index_config,
        engine_config=engine_config,
        slice_budget=trace.slice_budget,
        share_threshold=trace.share_threshold,
        stable_slices=trace.stable_slices,
        confidence=trace.confidence,
        # The recorded run's root entropy: partitions and shard engines
        # rebuild identically (same as snapshot restore).
        seed=trace.root_entropy,
        index_cache=index_cache,
        trace=span_trace,
    )


def replay_run(dataset, scorer, trace: ArrivalTrace, *,
               index_config=None, engine_config=None, index_cache=None,
               span_trace=None):
    """Re-execute every recorded drive; return the final streaming result."""
    engine = replay_engine(
        dataset, scorer, trace,
        index_config=index_config, engine_config=engine_config,
        index_cache=index_cache, span_trace=span_trace,
    )
    try:
        for drive in trace.drives:
            every: Optional[int] = drive.get("every")
            engine.run(budget=int(drive["budget"]),
                       every=None if every is None else int(every))
        return engine.result()
    finally:
        engine.close()
