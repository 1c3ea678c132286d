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
    ProcessBackend,
    SerialBackend,
    ShardBackend,
    SliceEvent,
    ThreadBackend,
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
from repro.parallel.worker import (
    RoundOutcome,
    ShardDataset,
    ShardSpec,
    ShardWorker,
    build_shard_specs,
    partition_ids,
)

__all__ = [
    "BACKENDS",
    "DistributedResult",
    "ProcessBackend",
    "RoundOutcome",
    "SerialBackend",
    "ShardBackend",
    "ShardCoordinator",
    "ShardDataset",
    "ShardIndexCache",
    "ShardSpec",
    "ShardWorker",
    "ShardedTopKEngine",
    "SharedFeatureTable",
    "SharedSliceRef",
    "SliceEvent",
    "ThreadBackend",
    "WorkerReport",
    "available_backends",
    "backend_availability",
    "build_shard_specs",
    "make_backend",
    "merge_worker_topk",
    "partition_ids",
    "shard_cache_key",
    "shm_available",
    "shm_probe",
]
