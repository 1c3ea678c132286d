"""Zero-copy shard bootstrap: shared-memory feature tables for processes.

The paper's Section-6 MapReduce sketch assumes workers *map* the table.
The process backend's inline copy path
(:class:`~repro.parallel.backends.ProcessBackend`) does the opposite: it
stacks each partition's ids, objects and feature matrix into the
:class:`~repro.parallel.worker.ShardSpec`, so a process child's bootstrap
cost (spec pickling, transfer, re-materialization) and resident set grow
linearly with the table.  This module restores the map semantics on one
machine: the backend packs everything a shard needs into a single
:mod:`multiprocessing.shared_memory` segment and ships each child a
constant-size :class:`SharedSliceRef` instead of the data.

Segment layout (one segment per engine run, 64-byte aligned spans):

* per shard — the partition's **feature block** (``(n_w, d)`` float64,
  C-contiguous, so the child maps it as a true zero-copy view) and its
  **rows blob** (the member ids and the elements, pickled together once
  by the backend; children unpickle straight out of the mapping instead
  of receiving a per-child pipe transfer).  Pickle keeps every id
  exactly — a fixed-width numpy unicode array would drop an id's
  trailing ``'\x00'``.

No cluster tree rides the segment: a child builds its shard's index from
the mapped feature block and its ``index:{w}`` RNG stream, which yields
the same tree an in-process shard would (see
:class:`~repro.parallel.worker.ShardWorker`).

Lifecycle (the invariant: **no orphan segments survive, ever**):

* the process backend owns the segment via :class:`SharedFeatureTable`;
  :meth:`SharedFeatureTable.close` is idempotent and unlinks;
* a :func:`weakref.finalize` on every table re-runs that cleanup when the
  table is garbage collected or the interpreter exits (``finalize``
  callbacks run at shutdown), and a module-level ``atexit`` sweep of all
  owned segment names is kept as a second net — so an engine that
  crashes before ``close()`` still unlinks;
* children attach by name through a per-process refcounted cache
  (:func:`attach_segment` / :func:`detach_segment`), and an ``atexit``
  hook closes whatever is still mapped.  Python < 3.13 registers
  *attachments* with :mod:`multiprocessing.resource_tracker` exactly like
  creations, but the tracker's per-name cache is a set shared by the
  whole process tree, so the child registrations are no-ops and the
  owner's ``unlink`` performs the single balanced unregister — children
  must *not* unregister themselves (that would poison the owner's entry
  and make its ``unlink`` warn);
* a child killed with SIGKILL leaks nothing: only the owner's name is
  linked in the filesystem namespace, and the owner (or, after a hard
  owner crash, the resource tracker) unlinks it.

:func:`shm_default_enabled` is the one switch over the path a process
run takes: the shm path when ``shm_probe()`` finds POSIX shared memory
working here (some sandboxes mount no ``/dev/shm``) and the operator has
not set ``REPRO_DISABLE_SHM=1`` (say, for a container with a small
``/dev/shm``), the inline copy path otherwise.  A packing failure falls
back to the copy path — never fails the query.
"""

from __future__ import annotations

import atexit
import os
import pickle
import secrets
import weakref
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Filesystem prefix of every segment this library creates — the leak
#: gate (``tools/check_shm_leaks.py``) and the tests key on it.
SEGMENT_PREFIX = "repro-shm-"

_ALIGNMENT = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


# ---------------------------------------------------------------------------
# Spans: constant-size descriptors of arrays/blobs inside the segment.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArraySpan:
    """One numpy array inside the segment: offset + dtype + shape."""

    offset: int
    dtype: str
    shape: Tuple[int, ...]


@dataclass(frozen=True)
class BytesSpan:
    """One raw byte range inside the segment (a pickle blob)."""

    offset: int
    size: int


@dataclass(frozen=True)
class SharedSliceRef:
    """Picklable, O(1)-wire-size handle to one shard's slice of the table.

    This is what a :class:`~repro.parallel.worker.ShardSpec` carries in
    ``features_ref`` instead of inline member ids / objects / features:
    a segment name plus two constant-size spans.  Its pickled size does not
    depend on the partition size (pinned by ``tests/test_shm.py``).
    """

    segment: str
    features: ArraySpan
    rows: BytesSpan              # pickled ``(member ids, objects)``

    def resolve(self) -> "ResolvedShard":
        """Attach the segment and materialize this shard's bootstrap data.

        The feature block comes back as a **read-only zero-copy view**
        into the mapping; member ids and objects are decoded into regular
        Python objects (the engine mutates neither).  The attachment is
        refcounted per process and released at interpreter exit.
        """
        segment = attach_segment(self.segment)
        buf = segment.buf
        features = _as_array(buf, self.features)
        features.flags.writeable = False
        start, stop = self.rows.offset, self.rows.offset + self.rows.size
        member_ids, objects = pickle.loads(bytes(buf[start:stop]))
        return ResolvedShard(segment=self.segment, member_ids=member_ids,
                             objects=objects, features=features)


@dataclass
class ResolvedShard:
    """Child-side view of one shard's slice (see :meth:`SharedSliceRef.resolve`)."""

    segment: str
    member_ids: List[str]
    objects: list
    features: np.ndarray

    def close(self) -> None:
        """Release this resolution's hold on the segment attachment."""
        detach_segment(self.segment)


def _as_array(buf, span: ArraySpan) -> np.ndarray:
    return np.ndarray(span.shape, dtype=np.dtype(span.dtype), buffer=buf,
                      offset=span.offset)


# ---------------------------------------------------------------------------
# Child-side attachment cache (refcounted; atexit-drained).
# ---------------------------------------------------------------------------

_ATTACHED: Dict[str, List[Any]] = {}  # name -> [SharedMemory, refcount]


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach (or re-use this process's attachment of) a named segment."""
    entry = _ATTACHED.get(name)
    if entry is None:
        try:
            segment = shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            raise ConfigurationError(
                f"shared-memory segment {name!r} does not exist (was the "
                f"owner's SharedFeatureTable closed early?)"
            ) from None
        entry = _ATTACHED[name] = [segment, 0]
    entry[1] += 1
    return entry[0]


def detach_segment(name: str) -> None:
    """Drop one reference; the mapping closes when the count reaches zero."""
    entry = _ATTACHED.get(name)
    if entry is None:
        return
    entry[1] -= 1
    if entry[1] <= 0:
        _ATTACHED.pop(name, None)
        try:
            entry[0].close()
        except BufferError:
            # Live numpy views still reference the mapping; the OS unmaps
            # at process exit regardless, and the segment's lifetime is
            # the owner's concern — nothing leaks.
            pass


def _drain_attachments() -> None:  # pragma: no cover - exit path
    for name in list(_ATTACHED):
        entry = _ATTACHED.pop(name, None)
        if entry is None:
            continue
        try:
            entry[0].close()
        except Exception:
            pass


atexit.register(_drain_attachments)


# ---------------------------------------------------------------------------
# Owner-side packing.
# ---------------------------------------------------------------------------


class _SegmentLayout:
    """Two-pass packer: reserve aligned spans, then copy into the mapping."""

    def __init__(self) -> None:
        self._arrays: List[Tuple[int, np.ndarray]] = []
        self._blobs: List[Tuple[int, bytes]] = []
        self.size = 0

    def add_array(self, array: np.ndarray) -> ArraySpan:
        array = np.ascontiguousarray(array)
        offset = _aligned(self.size)
        self._arrays.append((offset, array))
        self.size = offset + array.nbytes
        return ArraySpan(offset=offset, dtype=str(array.dtype),
                         shape=tuple(array.shape))

    def add_bytes(self, blob: bytes) -> BytesSpan:
        offset = _aligned(self.size)
        self._blobs.append((offset, blob))
        self.size = offset + len(blob)
        return BytesSpan(offset=offset, size=len(blob))

    def write(self, buf) -> None:
        for offset, array in self._arrays:
            if array.nbytes == 0:
                continue
            target = np.ndarray(array.shape, dtype=array.dtype, buffer=buf,
                                offset=offset)
            target[...] = array
        for offset, blob in self._blobs:
            buf[offset:offset + len(blob)] = blob


_OWNED_SEGMENTS: set = set()


def _cleanup_segment(segment: shared_memory.SharedMemory) -> None:
    """Owner-side teardown: close the mapping and unlink the name."""
    _OWNED_SEGMENTS.discard(segment.name)
    try:
        segment.close()
    except Exception:
        pass
    try:
        segment.unlink()
    except Exception:
        pass


def _sweep_owned() -> None:  # pragma: no cover - exit path
    for name in list(_OWNED_SEGMENTS):
        _OWNED_SEGMENTS.discard(name)
        try:
            stale = shared_memory.SharedMemory(name=name, create=False)
        except Exception:
            continue
        try:
            stale.close()
        except Exception:
            pass
        try:
            stale.unlink()
        except Exception:
            pass


atexit.register(_sweep_owned)


class SharedFeatureTable:
    """Owner-side shared-memory segment holding every shard's slice.

    Build one with :meth:`create` (one segment per engine run), hand each
    shard its :meth:`ref`, and :meth:`close` when the run ends.  Closing
    is idempotent; a ``weakref.finalize`` re-runs it on garbage
    collection and at interpreter exit, so no code path — including an
    engine error mid-start — leaves the segment linked.
    """

    def __init__(self, segment: shared_memory.SharedMemory,
                 refs: List[SharedSliceRef]) -> None:
        self._segment = segment
        self.name = segment.name
        self._refs = refs
        _OWNED_SEGMENTS.add(segment.name)
        self._finalizer = weakref.finalize(self, _cleanup_segment, segment)

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, shards: Sequence[dict]) -> "SharedFeatureTable":
        """Pack per-shard payloads into one fresh segment.

        Each entry of ``shards`` is a dict with ``member_ids`` (sequence of
        str), ``objects`` (the partition's elements, any picklable
        type) and ``features`` (``(n_w, d)`` array).
        """
        layout = _SegmentLayout()
        partial_refs: List[SharedSliceRef] = []
        for shard in shards:
            features = np.asarray(shard["features"], dtype=float)
            if features.ndim == 1:
                features = features.reshape(-1, 1)
            features_span = layout.add_array(features)
            rows_span = layout.add_bytes(pickle.dumps(
                (list(shard["member_ids"]), list(shard["objects"])),
                protocol=pickle.HIGHEST_PROTOCOL))
            partial_refs.append(SharedSliceRef(
                segment="", features=features_span, rows=rows_span,
            ))
        segment = _create_segment(max(1, layout.size))
        try:
            layout.write(segment.buf)
        except BaseException:
            _cleanup_segment(segment)
            raise
        refs = [replace(ref, segment=segment.name) for ref in partial_refs]
        return cls(segment, refs)

    # -- access --------------------------------------------------------------

    def ref(self, worker_id: int) -> SharedSliceRef:
        """The picklable slice handle for one shard, in worker order."""
        return self._refs[worker_id]

    @property
    def nbytes(self) -> int:
        """Segment size in bytes."""
        return self._segment.size

    # -- lifecycle -----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once the segment has been unlinked."""
        return not self._finalizer.alive

    def close(self) -> None:
        """Unlink the segment (idempotent; children's mappings survive)."""
        self._finalizer()

    def __enter__(self) -> "SharedFeatureTable":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self.nbytes} bytes"
        return (f"SharedFeatureTable(name={self.name!r}, "
                f"shards={len(self._refs)}, {state})")


def _create_segment(size: int) -> shared_memory.SharedMemory:
    """Create a fresh uniquely-named segment (retrying name collisions)."""
    last_error: Optional[Exception] = None
    for _attempt in range(8):
        name = SEGMENT_PREFIX + secrets.token_hex(8)
        try:
            return shared_memory.SharedMemory(name=name, create=True,
                                              size=size)
        except FileExistsError as exc:  # pragma: no cover - 2^64 space
            last_error = exc
    raise ConfigurationError(
        f"could not allocate a unique shared-memory segment: {last_error}"
    )


# ---------------------------------------------------------------------------
# Capability probe + policy.
# ---------------------------------------------------------------------------

_PROBE: Optional[Tuple[Optional[str]]] = None


def shm_probe(refresh: bool = False) -> Optional[str]:
    """``None`` when POSIX shared memory works here, else the reason.

    Probed once per process (create + map + unlink of a tiny segment)
    and cached; ``refresh=True`` re-probes.
    """
    global _PROBE
    if _PROBE is None or refresh:
        reason: Optional[str] = None
        try:
            segment = shared_memory.SharedMemory(create=True, size=16)
        except Exception as exc:
            reason = f"{type(exc).__name__}: {exc}"
        else:
            try:
                segment.close()
                segment.unlink()
            except Exception:
                pass
        _PROBE = (reason,)
    return _PROBE[0]


def shm_available() -> bool:
    """True when the zero-copy bootstrap path can run on this machine."""
    return shm_probe() is None


def shm_default_enabled() -> bool:
    """Auto-enable policy: shm works and ``REPRO_DISABLE_SHM`` is unset."""
    if os.environ.get("REPRO_DISABLE_SHM", "").strip().lower() in (
            "1", "true", "yes", "on"):
        return False
    return shm_available()
