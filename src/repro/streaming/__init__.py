"""Barrier-free streaming execution of opaque top-k queries.

Where :mod:`repro.parallel` runs the paper's Section 6 shard/coordinator
protocol in synchronized rounds, this subsystem runs the same
:class:`~repro.parallel.coordinator.ShardCoordinator` as a *pipeline*:
shard workers execute continuously in small budget slices, an
event-driven coordinator merges each slice outcome the moment it arrives,
the k-th-score threshold is re-broadcast asynchronously (picked up at the
next slice boundary), and callers consume an **anytime results API** —
:meth:`~repro.streaming.engine.StreamingTopKEngine.results_iter` yields
:class:`~repro.streaming.engine.ProgressiveResult` snapshots from the
first slice onward, each carrying an explicit displacement bound.  Two
early stops: the ``stable_slices`` heuristic, and the principled
``confidence=p`` certificate built on
:mod:`repro.core.convergence`.

Backends are the ones of :mod:`repro.parallel.backends` (``serial`` is a
deterministic event-driven simulation; ``thread`` / ``process`` run real
concurrency), plus the trace-driven ``replay`` backend of
:mod:`repro.replay` for bit-identical re-execution of recorded real
runs.  Entry point:
:class:`~repro.streaming.engine.StreamingTopKEngine`.  The merge-on-arrival
protocol and its threshold-staleness invariants are documented in
``docs/architecture.md`` ("Arrival policy: streaming"); the user guide is
``docs/streaming.md``.
"""

from repro.streaming.engine import (
    ProgressiveResult,
    StreamingResult,
    StreamingTopKEngine,
)

__all__ = [
    "ProgressiveResult",
    "StreamingResult",
    "StreamingTopKEngine",
]
