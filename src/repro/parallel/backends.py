"""Execution backends for the shard coordinators: serial, thread, process.

A backend owns worker placement and answers two questions, independently:
"run *this* shard for one budget slice under this threshold floor"
(:meth:`ShardBackend.submit`) and "hand me whichever in-flight slice
finishes next" (:meth:`ShardBackend.next_event`).  Everything else —
budgeting, merging, threshold broadcast, result assembly, and above all
*when to wait* — lives in the coordinators
(:mod:`repro.parallel.coordinator`): the round engine submits one slice
per shard and waits for all of them (a barrier), the streaming engine
resubmits each shard the moment its slice is merged.  One backend family
serves both.

The coordinator keeps **at most one slice in flight per shard**, which
bounds the broadcast threshold's staleness: a slice runs with the floor
captured at its submission.  See ``docs/architecture.md``.

* :class:`SerialBackend` is the deterministic simulation: a slice executes
  eagerly inside ``submit`` (with exactly the floor it was submitted
  under) and is released in virtual-completion order — each worker carries
  a virtual clock advanced by the slice's latency-model cost, ties break
  by worker id.  This reproduces the arrival interleaving of a perfectly
  parallel execution, bit for bit.
* :class:`ThreadBackend` runs slices on a
  :class:`concurrent.futures.ThreadPoolExecutor` (one thread per shard).
  Useful when the UDF releases the GIL (I/O, numpy kernels, remote calls).
* :class:`ProcessBackend` pins each shard to its own single-process
  :class:`concurrent.futures.ProcessPoolExecutor`.  The shard is built once
  per process from a picklable :class:`~repro.parallel.worker.ShardSpec`;
  slices exchange only ``(cap, floor)`` and light outcome payloads.

Every backend starts from the same in-process specs the coordinator
builds.  The process backend alone decides what crosses into a child:
it packs the partitions into one shared-memory segment
(:mod:`repro.parallel.shm`) whenever
:func:`~repro.parallel.shm.shm_default_enabled` says so and ships each
child a constant-size handle, or else (and when packing fails) ships
inline ids, objects and features.  Never a tree: a cached
``prebuilt_index`` is dropped, and each child builds its index from its
``index:{w}`` stream — the tree the cache holds.  The backend owns the
segment from creation to unlink: :meth:`ProcessBackend.close` and a
failed :meth:`ProcessBackend.start` both unlink it.

:mod:`repro.replay` adds a trace-driven :class:`SerialBackend` subclass,
handed to the streaming engine as an instance (it is not in the registry).
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.parallel.shm import SharedFeatureTable, shm_default_enabled
from repro.parallel.worker import (
    RoundOutcome,
    ShardSpec,
    ShardWorker,
    process_init,
    process_run_round,
    process_snapshot,
    shard_features,
)


def _pool_ready() -> bool:
    """No-op child task: resolving it proves the pool's worker bootstrapped."""
    return True


@dataclass(frozen=True)
class SliceEvent:
    """One completed slice, as released to the coordinator.

    ``virtual_completion`` is set only by simulation backends (the
    worker's virtual clock at slice completion); real backends leave it
    ``None`` and the coordinator measures wall-clock itself.
    """

    outcome: RoundOutcome
    virtual_completion: Optional[float] = None


class ShardBackend:
    """Common interface; subclasses define placement and arrival order."""

    name: str = "abstract"
    #: True for simulations: a slice runs eagerly inside ``submit`` and its
    #: cost is charged to a virtual clock.  False when slices really run
    #: concurrently and the coordinator measures wall-clock instead.
    virtual_clock: bool = True

    def start(self, specs: List[ShardSpec], dataset, scorer,
              worker_times: Optional[List[float]] = None) -> None:
        """Materialize the shards; ``worker_times`` seeds virtual clocks."""
        raise NotImplementedError

    def submit(self, worker_id: int, cap: int,
               threshold_floor: Optional[float]) -> None:
        """Schedule one budget slice on one shard (non-blocking intent)."""
        raise NotImplementedError

    def next_event(self) -> SliceEvent:
        """Block until the next in-flight slice completes; arrival order."""
        raise NotImplementedError

    def snapshots(self) -> List[dict]:
        """Collect every shard's engine snapshot (no slice may be in flight)."""
        raise NotImplementedError

    def inline_workers(self) -> Optional[List[ShardWorker]]:
        """The live :class:`ShardWorker` list when it exists in-process.

        Backends whose shards live in the coordinator process (serial,
        thread) return them so the coordinator can harvest freshly built
        shard indexes into a :class:`~repro.parallel.cache.ShardIndexCache`;
        placement-remote backends (process) return ``None``.
        """
        return None

    def close(self) -> None:
        """Release any pools; idempotent."""


class SerialBackend(ShardBackend):
    """Deterministic one-thread execution — the simulation oracle.

    ``submit`` runs the slice immediately (shard state lives in-process
    and the floor is, by protocol, the one known at submission time) and
    parks the outcome on a heap keyed by ``(virtual completion, worker)``;
    ``next_event`` releases the earliest completion.  Because the
    coordinator holds one in-flight slice per shard, the heap never holds
    two entries for the same worker and the interleaving is a pure
    function of the seed and the latency model.
    """

    name = "serial"
    virtual_clock = True

    def __init__(self) -> None:
        self.workers: List[ShardWorker] = []
        self._clock: List[float] = []
        self._ready: List[Tuple[float, int, RoundOutcome]] = []

    def start(self, specs: List[ShardSpec], dataset, scorer,
              worker_times: Optional[List[float]] = None) -> None:
        self.workers = [ShardWorker(spec, dataset=dataset, scorer=scorer)
                        for spec in specs]
        self._clock = list(worker_times or [0.0] * len(self.workers))

    def submit(self, worker_id: int, cap: int,
               threshold_floor: Optional[float]) -> None:
        outcome = self.workers[worker_id].run_round(cap, threshold_floor)
        self._clock[worker_id] += outcome.cost
        heapq.heappush(self._ready,
                       (self._clock[worker_id], worker_id, outcome))

    def next_event(self) -> SliceEvent:
        if not self._ready:
            raise ConfigurationError("next_event() with no slice in flight")
        completion, _worker, outcome = heapq.heappop(self._ready)
        return SliceEvent(outcome, virtual_completion=completion)

    def snapshots(self) -> List[dict]:
        return [worker.snapshot() for worker in self.workers]

    def inline_workers(self) -> Optional[List[ShardWorker]]:
        return self.workers


class _FutureBackend(ShardBackend):
    """Future bookkeeping shared by the real (thread/process) backends."""

    virtual_clock = False

    def __init__(self) -> None:
        self._pending: Dict[Future, int] = {}

    def next_event(self) -> SliceEvent:
        if not self._pending:
            raise ConfigurationError("next_event() with no slice in flight")
        done, _running = wait(list(self._pending),
                              return_when=FIRST_COMPLETED)
        # Several slices may have completed while the coordinator was
        # merging; release the lowest worker id first so the consumption
        # order at least breaks ties stably.
        future = min(done, key=lambda f: self._pending[f])
        self._pending.pop(future)
        return SliceEvent(future.result())


class ThreadBackend(_FutureBackend):
    """One thread per shard via ThreadPoolExecutor."""

    name = "thread"

    def __init__(self) -> None:
        super().__init__()
        self.workers: List[ShardWorker] = []
        self._pool: Optional[ThreadPoolExecutor] = None

    def start(self, specs: List[ShardSpec], dataset, scorer,
              worker_times: Optional[List[float]] = None) -> None:
        self.workers = [ShardWorker(spec, dataset=dataset, scorer=scorer)
                        for spec in specs]
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, len(self.workers)),
            thread_name_prefix="repro-shard",
        )

    def submit(self, worker_id: int, cap: int,
               threshold_floor: Optional[float]) -> None:
        assert self._pool is not None, "start() must run first"
        future = self._pool.submit(self.workers[worker_id].run_round,
                                   cap, threshold_floor)
        self._pending[future] = worker_id

    def snapshots(self) -> List[dict]:
        assert not self._pending, "snapshot with slices in flight"
        return [worker.snapshot() for worker in self.workers]

    def inline_workers(self) -> Optional[List[ShardWorker]]:
        return self.workers

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessBackend(_FutureBackend):
    """One dedicated child process per shard via ProcessPoolExecutor.

    Each shard gets its own ``max_workers=1`` pool so worker state can live
    in the child process for the whole query: the initializer builds the
    shard from its picklable spec once, and every subsequent slice only
    ships ``(cap, floor)`` down and a light outcome back.
    """

    name = "process"

    def __init__(self) -> None:
        super().__init__()
        self._pools: List[ProcessPoolExecutor] = []
        self._table: Optional[SharedFeatureTable] = None

    def start(self, specs: List[ShardSpec], dataset, scorer,
              worker_times: Optional[List[float]] = None) -> None:
        """One pinned single-process pool per shard, bootstrapped concurrently.

        ``ProcessPoolExecutor`` spawns its worker lazily on first submit,
        so a no-op warmup task is submitted to every pool before waiting
        on any of them: the children spawn and run their initializers
        (spec transfer or shm attach, index build) in parallel instead of
        serializing at first-slice time.  On any failure every pool
        created so far is shut down and the segment unlinked before the
        error propagates, so a failed start leaks neither.
        """
        pools: List[ProcessPoolExecutor] = []
        try:
            shipped = self._materialize(specs, dataset, scorer)
            context = multiprocessing.get_context()
            for spec in shipped:
                pools.append(ProcessPoolExecutor(
                    max_workers=1, mp_context=context,
                    initializer=process_init, initargs=(spec,),
                ))
            for future in [pool.submit(_pool_ready) for pool in pools]:
                future.result()
        except BaseException:
            for pool in pools:
                pool.shutdown(wait=False, cancel_futures=True)
            self._unlink()
            raise
        self._pools = pools

    def _materialize(self, specs: List[ShardSpec], dataset,
                     scorer) -> List[ShardSpec]:
        """The specs a child can bootstrap from: the scorer, no tree, and
        the partition as a shared-memory handle or as inline copies.

        The packed feature blocks are exactly the arrays
        :func:`~repro.parallel.worker.shard_features` produces, so the
        children's index builds — and the answers — are the same on
        either path.
        """
        if shm_default_enabled():
            try:
                self._table = SharedFeatureTable.create([
                    {"member_ids": spec.member_ids,
                     "objects": dataset.fetch_batch(spec.member_ids),
                     "features": shard_features(dataset, spec.member_ids)}
                    for spec in specs
                ])
            except Exception:
                pass  # clean fallback to the inline copy path
            else:
                return [replace(spec, member_ids=(), scorer=scorer,
                                prebuilt_index=None,
                                features_ref=self._table.ref(worker))
                        for worker, spec in enumerate(specs)]
        return [replace(spec, scorer=scorer, prebuilt_index=None,
                        objects=dataset.fetch_batch(spec.member_ids),
                        features=shard_features(dataset, spec.member_ids))
                for spec in specs]

    def _unlink(self) -> None:
        if self._table is not None:
            self._table.close()
            self._table = None

    def submit(self, worker_id: int, cap: int,
               threshold_floor: Optional[float]) -> None:
        future = self._pools[worker_id].submit(process_run_round,
                                               cap, threshold_floor)
        self._pending[future] = worker_id

    def snapshots(self) -> List[dict]:
        assert not self._pending, "snapshot with slices in flight"
        return [pool.submit(process_snapshot).result()
                for pool in self._pools]

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        self._pools = []
        self._unlink()


#: The one backend vocabulary, serial first — introspected (never
#: hard-coded) by the CLI and the session dialect.
BACKENDS: Dict[str, Type[ShardBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


def _probe_process() -> Optional[str]:
    """``None`` when child processes work here, else the reason they don't.

    A real probe — spawn one child through the configured start method and
    round-trip a task — because sandboxes that forbid fork/spawn (or ship
    a broken ``multiprocessing``) are exactly where "process" must not be
    advertised.
    """
    try:
        from multiprocessing import shared_memory  # noqa: F401 (importable?)
    except ImportError as exc:
        return f"multiprocessing.shared_memory does not import: {exc}"
    try:
        with ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context()) as pool:
            if pool.submit(_pool_ready).result(timeout=60) is not True:
                return "child probe returned an unexpected result"
    except Exception as exc:
        return f"child process spawn failed: {type(exc).__name__}: {exc}"
    return None


#: Cached :func:`_probe_process` verdict, as a 1-tuple once probed.
_PROCESS_PROBE: Optional[Tuple[Optional[str]]] = None


def unavailable_reason(name: str) -> Optional[str]:
    """Why registered backend ``name`` cannot run here (``None`` = usable).

    Lazy per name: ``serial`` and ``thread`` run in the coordinator
    process and never probe anything; only asking about ``process`` forks
    the probe child (once per process, cached) — so a threaded server
    resolving ``BACKEND thread`` never forks.
    """
    global _PROCESS_PROBE
    if name != ProcessBackend.name:
        return None
    if _PROCESS_PROBE is None:
        _PROCESS_PROBE = (_probe_process(),)
    return _PROCESS_PROBE[0]


def backend_availability() -> Dict[str, Optional[str]]:
    """Per-backend usability: name -> ``None`` (usable) or a reason string.

    Probes ``process`` (see :func:`unavailable_reason`); the CLI's
    ``info`` command prints the reasons.
    """
    return {name: unavailable_reason(name) for name in BACKENDS}


def available_backends() -> List[str]:
    """Names of the usable backends on this machine, serial first."""
    return [name for name, reason in backend_availability().items()
            if reason is None]


def check_backend(name: str) -> None:
    """Raise with guidance unless ``name`` is registered and usable here."""
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {name!r}; registered: {', '.join(BACKENDS)} "
            f"(this machine reports {os.cpu_count() or 1} CPU core(s))"
        )
    reason = unavailable_reason(name)
    if reason is not None:
        raise ConfigurationError(
            f"backend {name!r} is unavailable here: {reason}"
        )


def make_backend(name: str) -> ShardBackend:
    """Instantiate a backend by name; raise with guidance on a typo."""
    check_backend(name)
    return BACKENDS[name]()
