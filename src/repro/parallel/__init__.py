"""Real sharded execution of opaque top-k queries (paper Section 6).

The subsystem splits a query across ``W`` shards — per-shard index plus
bandit engine, periodic coordinator merge, k-th-score threshold broadcast —
and executes them on a pluggable backend:

* ``serial``  — deterministic single-thread simulation (virtual clock);
* ``thread``  — one thread per shard (``concurrent.futures``);
* ``process`` — one pinned child process per shard, built once from a
  picklable :class:`~repro.parallel.worker.ShardSpec`.

One :class:`~repro.parallel.coordinator.ShardCoordinator` owns everything
but the wait policy.  Entry point here:
:class:`~repro.parallel.engine.ShardedTopKEngine` (wait for every shard
each round); :mod:`repro.streaming` is the same coordinator merging on
arrival.  The architecture and protocol invariants are documented in
``docs/architecture.md``.
"""

from repro.parallel.backends import (
    BACKENDS,
    SerialBackend,
    ShardBackend,
    SliceEvent,
    available_backends,
    backend_availability,
    make_backend,
)
from repro.parallel.cache import ShardIndexCache, shard_cache_key
from repro.parallel.shm import (
    SharedFeatureTable,
    SharedSliceRef,
    shm_available,
    shm_probe,
)
from repro.parallel.coordinator import (
    ShardCoordinator,
    WorkerReport,
    merge_worker_topk,
)
from repro.parallel.engine import DistributedResult, ShardedTopKEngine
from repro.parallel.worker import RoundOutcome, ShardSpec, ShardWorker

__all__ = [
    "BACKENDS",
    "DistributedResult",
    "RoundOutcome",
    "SerialBackend",
    "ShardBackend",
    "ShardCoordinator",
    "ShardIndexCache",
    "ShardSpec",
    "ShardWorker",
    "ShardedTopKEngine",
    "SharedFeatureTable",
    "SharedSliceRef",
    "SliceEvent",
    "WorkerReport",
    "available_backends",
    "backend_availability",
    "make_backend",
    "merge_worker_topk",
    "shard_cache_key",
    "shm_available",
    "shm_probe",
]
