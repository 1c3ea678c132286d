"""Versioned mutable tables: append/update/delete with shared-storage snapshots.

A :class:`LiveTable` is a :class:`~repro.data.dataset.Dataset` whose
contents change over time.  Every committed write batch — one
``append``/``update``/``delete`` call — advances a monotone
``table_version`` and is recorded as a :class:`WriteDelta` in the
table's write log, which downstream consumers (incremental index
maintenance, memo/prior/shard-cache invalidation, standing
``CONTINUOUS`` queries) replay through a :class:`LogCursor`; the log
keeps only what some live cursor has not pulled yet.

Snapshot isolation is structural, not locked-in-time: feature rows live
in an append-only block with an object list and an id list parallel to
it — an ``update`` writes a *new* row and repoints the element's
locator, it never mutates the old row in place — so a
:class:`~repro.data.dataset.TableSnapshot` taken at version ``v`` (the
layout a static :class:`~repro.data.dataset.InMemoryDataset` is, at
version 0) *shares* the block and the object and id rows and keeps
reading exactly the rows that were current at ``v`` no matter how many
writes commit while a query over it is still in flight.  The
``id -> row`` :class:`~repro.data.dataset.Locator` is a frozen base dict
plus an overlay of the ids written since: a snapshot shares the base and
copies the overlay, and once the overlay passes
:data:`~repro.data.dataset.REBASE_FRACTION` of the table one C-level
copy and update folds it into a new base.  So a write costs its batch, a
snapshot the ids written since the last rebase, and the aligned
``features()`` matrix is gathered only for whoever asks (index builds,
``WHERE`` masks).  When dead rows (deleted or superseded) outnumber live
ones the commit rewrites block, object and id rows and locator into
fresh storage; pinned snapshots keep the old.  The table's own
:class:`~repro.data.dataset.Dataset` reads go through
:meth:`LiveTable.snapshot` of the current version, cached until the
next commit: a table has one read path.

A block row is also how the index names an element: each
:class:`WriteDelta` lists the rows it wrote and retired, and carries the
block that holds their features, a maintained
leaf is an int array of rows (:mod:`repro.live.maintenance`) read
through the row -> id list, and the delta of a commit that compacted
carries the old -> new row map, which the maintainer applies in log
order.

Writes are observable: each commit increments the process-wide
``writes_total{table, kind}`` counter and records a ``write[kind]``
span fragment (:attr:`LiveTable.spans`, stitchable into any
:class:`~repro.obs.spans.TraceContext` via ``attach``).
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset, Locator, TableSnapshot, _aligned
from repro.errors import ConfigurationError
from repro.obs.metrics import WRITES_TOTAL
from repro.obs.spans import Span
from repro.utils.validation import check_finite_features

#: Write-span fragments retained per table (oldest dropped first).
MAX_WRITE_SPANS = 64


@dataclass(frozen=True)
class WriteDelta:
    """One committed write batch, as replayed by downstream consumers.

    ``written`` are the block rows the batch wrote (empty for deletes)
    and ``retired`` the rows it replaced (empty for appends), aligned
    with ``ids``; ``block`` is the table's block as the commit left it
    before any compaction: the rows of this delta, and of every earlier
    one since the last compaction, index it, so ``block[written]`` and
    ``block[retired]`` are the new and old feature rows incremental
    maintenance moves centroid aggregates by.  A commit that
    compacted the table sets ``remap``, each old block row's new row (-1
    for a dead one).
    """

    version: int
    kind: str  # "append" | "update" | "delete"
    ids: Tuple[str, ...]
    written: Sequence[int] = ()
    retired: Sequence[int] = ()
    remap: Optional[np.ndarray] = None
    block: Optional[np.ndarray] = None


class LogCursor:
    """One consumer's place in a :class:`LiveTable`'s write log.

    :meth:`LiveTable.subscribe` hands one out at the table's current
    version.  The table holds its cursors weakly and keeps exactly the
    deltas some live cursor has not pulled yet, so a subscriber never
    sees a gap and one that goes away stops pinning the log.
    """

    def __init__(self, table: "LiveTable", version: int) -> None:
        self._table = table
        self.version = version

    def pull(self) -> Tuple[List[WriteDelta], TableSnapshot]:
        """Every delta committed since the last pull, and the snapshot
        they lead to — read together, so no write falls between them."""
        table = self._table
        with table._lock:
            deltas = table.deltas_since(self.version)
            self.version = table._version
            table._trim_log()
            return deltas, table.snapshot()


class LiveTable(Dataset):
    """A mutable, versioned dataset over append-only row storage.

    Parameters
    ----------
    ids, objects, features:
        Optional initial contents (committed as version 0).
    dim:
        Feature dimensionality; required when starting empty, otherwise
        inferred from ``features``.
    name:
        Label used in metrics and span fragments.
    """

    def __init__(self, ids: Sequence[str] = (),
                 objects: Optional[Sequence[Any]] = None,
                 features: Optional[np.ndarray] = None,
                 *, dim: Optional[int] = None, name: str = "live") -> None:
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.name = str(name)

        ids = [str(element_id) for element_id in ids]
        if objects is None:
            objects = list(ids)
        if features is None:
            if ids:
                raise ConfigurationError("initial rows need features")
            if dim is None:
                raise ConfigurationError(
                    "an empty LiveTable needs an explicit dim=")
            features = np.empty((0, int(dim)), dtype=float)
        ids, features = _aligned(ids, objects, features)
        if dim is not None and features.shape[1] != int(dim):
            raise ConfigurationError(
                f"features have dim {features.shape[1]}, expected {dim}")
        check_finite_features(features, ids)

        self._dim = int(features.shape[1])
        # Row r of the block and entry r of the object and id rows
        # describe one element as of one write; all only grow at the end.
        self._block = np.empty((max(16, 2 * len(ids)), self._dim),
                               dtype=float)
        self._block[:len(ids)] = features
        self._object_rows: List[Any] = list(objects)
        self._row_ids: List[str] = ids
        self._n_rows = len(ids)  # block rows in use, dead ones included
        #: live id -> its current row, in the table's id order (append
        #: adds at the end, update keeps the id's place).
        self._locator = Locator({eid: row for row, eid in enumerate(ids)})
        self._version = 0
        #: Retained deltas, consecutive versions ending at ``_version``.
        self._deltas: List[WriteDelta] = []
        self._cursors: "weakref.WeakSet[LogCursor]" = weakref.WeakSet()
        self._snapshot_cache: Optional[TableSnapshot] = None
        self.spans: List[dict] = []
        self._write_counts = {"append": 0, "update": 0, "delete": 0}

    # -- write surface -------------------------------------------------------

    def append(self, ids: Sequence[str], objects: Optional[Sequence[Any]],
               features: np.ndarray) -> int:
        """Add new elements; returns the new ``table_version``."""
        started = time.perf_counter()
        ids = [str(element_id) for element_id in ids]
        if not ids:
            raise ConfigurationError("append needs at least one element")
        if len(set(ids)) != len(ids):
            raise ConfigurationError("appended ids must be unique")
        if objects is None:
            objects = list(ids)
        if len(objects) != len(ids):
            raise ConfigurationError(
                f"{len(ids)} ids for {len(objects)} objects")
        rows = self._coerce_rows(features, ids)
        with self._cond:
            for element_id in ids:
                if element_id in self._locator:
                    raise ConfigurationError(
                        f"element id {element_id!r} already present")
            written = self._write_rows(ids, objects, rows)
            self._locator.add(ids, written)
            return self._commit("append", ids, written=written,
                                started=started)

    def update(self, ids: Sequence[str], features: np.ndarray,
               objects: Optional[Sequence[Any]] = None) -> int:
        """Replace existing elements' features (and optionally objects)."""
        started = time.perf_counter()
        ids = [str(element_id) for element_id in ids]
        if not ids:
            raise ConfigurationError("update needs at least one element")
        if len(set(ids)) != len(ids):
            raise ConfigurationError("updated ids must be unique")
        rows = self._coerce_rows(features, ids)
        if objects is not None and len(objects) != len(ids):
            raise ConfigurationError(
                f"{len(ids)} ids for {len(objects)} objects")
        with self._cond:
            old = self._locator.rows(ids)
            if objects is None:
                objects = [self._object_rows[row] for row in old]
            # The old rows stay untouched for pinned snapshots; the
            # locator now points at freshly appended rows.
            written = self._write_rows(ids, objects, rows)
            self._locator.move(ids, written)
            return self._commit("update", ids, written=written,
                                retired=old, started=started)

    def delete(self, ids: Sequence[str]) -> int:
        """Remove elements; returns the new ``table_version``."""
        started = time.perf_counter()
        ids = [str(element_id) for element_id in ids]
        if not ids:
            raise ConfigurationError("delete needs at least one element")
        if len(set(ids)) != len(ids):
            raise ConfigurationError("deleted ids must be unique")
        with self._cond:
            old = self._locator.rows(ids)
            self._locator.drop(ids)
            return self._commit("delete", ids, retired=old, started=started)

    # -- read surface --------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone version of the latest committed write."""
        with self._lock:
            return self._version

    def snapshot(self) -> TableSnapshot:
        """Immutable view of the current version (cached per version)."""
        with self._lock:
            if self._snapshot_cache is None:
                block = self._block[:self._n_rows]
                block.flags.writeable = False
                self._snapshot_cache = TableSnapshot(
                    block, self._object_rows, self._locator.frozen(),
                    version=self._version, row_ids=self._row_ids)
            return self._snapshot_cache

    def subscribe(self) -> LogCursor:
        """A cursor on the write log, placed at the current version.

        From now on the table drops a delta only once every live cursor
        has pulled it; a table nobody subscribed to keeps its whole log.
        """
        with self._lock:
            cursor = LogCursor(self, self._version)
            self._cursors.add(cursor)
            return cursor

    def deltas_since(self, version: int,
                     upto: Optional[int] = None) -> List[WriteDelta]:
        """Retained deltas with ``version < delta.version <= upto``."""
        with self._lock:
            first = self._version - len(self._deltas) + 1
            stop = None if upto is None else max(0, upto - first + 1)
            return self._deltas[max(0, version - first + 1):stop]

    def wait_for_commit(self, after_version: int,
                        timeout: Optional[float] = None) -> int:
        """Block until a write past ``after_version`` commits.

        Returns the current version (which may still equal
        ``after_version`` if the timeout elapsed first) — standing
        continuous queries park here between emissions.
        """
        with self._cond:
            self._cond.wait_for(lambda: self._version > after_version,
                                timeout=timeout)
            return self._version

    def stats(self) -> Dict[str, Any]:
        """Version, live-row count, and per-kind write counters.

        ``rows_written`` is the number of block rows in use — live rows
        plus the dead ones (deleted or superseded by an update) the next
        compaction reclaims — not a lifetime total.
        """
        with self._lock:
            return {
                "name": self.name,
                "version": self._version,
                "rows": len(self._locator),
                "rows_written": self._n_rows,
                "dim": self._dim,
                "writes": dict(self._write_counts),
            }

    # -- Dataset protocol (reads the snapshot of the current version) --------

    def ids(self) -> List[str]:
        return self.snapshot().ids()

    def fetch(self, element_id: str) -> Any:
        return self.fetch_batch((element_id,))[0]

    def fetch_batch(self, element_ids: Sequence[str]) -> List[Any]:
        return self.snapshot().fetch_batch(element_ids)

    def features(self) -> np.ndarray:
        return self.snapshot().features()

    def feature_of(self, element_id: str) -> np.ndarray:
        return self.features_of((element_id,))[0]

    def features_of(self, element_ids: Sequence[str]) -> np.ndarray:
        return self.snapshot().features_of(element_ids)

    def __len__(self) -> int:
        return len(self.snapshot())

    # -- internals -----------------------------------------------------------

    def _coerce_rows(self, features: np.ndarray,
                     ids: Sequence[str]) -> np.ndarray:
        rows = np.asarray(features, dtype=float)
        if rows.ndim == 1:
            rows = rows.reshape(-1, 1) if self._dim == 1 else rows.reshape(1, -1)
        if rows.shape != (len(ids), self._dim):
            raise ConfigurationError(
                f"expected a ({len(ids)}, {self._dim}) feature block, "
                f"got {rows.shape}")
        check_finite_features(rows, ids)
        # No copy: _write_rows copies the rows into the block.
        return rows

    def _write_rows(self, ids: Sequence[str], objects: Sequence[Any],
                    rows: np.ndarray) -> range:
        """Append the rows, their objects and ids; the block rows they
        took."""
        base = self._n_rows
        needed = base + len(rows)
        if needed > len(self._block):
            # A fresh array: snapshots keep reading the one they share.
            block = np.empty((max(needed, 2 * len(self._block)), self._dim),
                             dtype=float)
            block[:base] = self._block[:base]
            self._block = block
        self._block[base:needed] = rows
        self._object_rows.extend(objects)
        self._row_ids.extend(ids)
        self._n_rows = needed
        return range(base, needed)

    def _compact(self) -> np.ndarray:
        """Rewrite the live rows into fresh storage, in id order; returns
        each old row's new row (-1 for a dead one).

        Costs O(live rows) and runs once dead rows outnumber them, so a
        written row pays O(1) amortised; snapshots pinned before keep
        the old block, object and id rows and their own locator.
        """
        ids = self._locator.ids()
        live = self._locator.row_array()
        rows = live.tolist()
        # Room for the dead rows of the next round (it ends at 2 x live)
        # without growing the block first.
        block = np.empty((max(16, 3 * len(rows)), self._dim), dtype=float)
        block[:len(rows)] = self._block[rows]
        object_rows = self._object_rows
        self._block = block
        self._object_rows = [object_rows[row] for row in rows]
        self._row_ids = ids
        self._locator = Locator(dict(zip(ids, range(len(rows)))))
        remap = np.full(self._n_rows, -1, dtype=np.intp)
        remap[live] = np.arange(len(rows))
        self._n_rows = len(rows)
        return remap

    def _trim_log(self) -> None:
        """Drop the deltas every live cursor has already pulled."""
        pulled = min((cursor.version for cursor in self._cursors),
                     default=None)
        if pulled is not None:
            first = self._version - len(self._deltas) + 1
            del self._deltas[:max(0, pulled - first + 1)]

    def _commit(self, kind: str, ids: Sequence[str], *,
                written: Sequence[int] = (), retired: Sequence[int] = (),
                started: float = 0.0) -> int:
        self._version += 1
        self._snapshot_cache = None
        block = self._block[:self._n_rows]
        block.flags.writeable = False
        remap = (self._compact() if self._n_rows > 2 * len(self._locator)
                 else None)
        self._deltas.append(WriteDelta(
            version=self._version, kind=kind, ids=tuple(ids),
            written=written, retired=tuple(retired), remap=remap,
            block=block))
        self._write_counts[kind] += 1
        WRITES_TOTAL.inc(table=self.name, kind=kind)
        wall = max(0.0, time.perf_counter() - started)
        self.spans.append(Span(
            f"write[{kind}]", wall=wall,
            attrs={"table": self.name, "version": self._version,
                   "n": len(ids)},
        ).to_dict())
        del self.spans[:-MAX_WRITE_SPANS]
        self._cond.notify_all()
        return self._version
