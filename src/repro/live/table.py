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
in an append-only block with an object list parallel to it — an
``update`` writes a *new* row and repoints the element's locator, it
never mutates the old row in place — so a :class:`TableSnapshot` taken
at version ``v`` *shares* the block and the object rows and owns only a
copy of the ``id -> row`` locator: it keeps reading exactly the rows
that were current at ``v`` no matter how many writes commit while a
query over it is still in flight.  A write costs its batch, a snapshot
one C-level dict copy per version, and the aligned ``features()``
matrix is gathered only for whoever asks (index builds, ``WHERE``
masks).  When dead rows (deleted or superseded) outnumber live ones the
table rewrites block, object rows and locator into fresh storage;
pinned snapshots keep the old.

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

from repro.data.dataset import Dataset
from repro.errors import ConfigurationError
from repro.obs.metrics import WRITES_TOTAL
from repro.obs.spans import Span
from repro.utils.validation import check_finite_features

#: Write-span fragments retained per table (oldest dropped first).
MAX_WRITE_SPANS = 64


@dataclass(frozen=True)
class WriteDelta:
    """One committed write batch, as replayed by downstream consumers.

    ``rows`` are the new feature rows (``None`` for deletes);
    ``old_rows`` the rows the batch replaced (``None`` for appends) —
    incremental maintenance needs both to move centroid aggregates.
    """

    version: int
    kind: str  # "append" | "update" | "delete"
    ids: Tuple[str, ...]
    rows: Optional[np.ndarray] = None
    old_rows: Optional[np.ndarray] = None


def _rows_in(locator: Dict[str, int], element_ids: Sequence[str]) -> List[int]:
    """Block rows of ``element_ids``; a stranger is a configuration error."""
    try:
        return [locator[element_id] for element_id in element_ids]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown element id {exc.args[0]!r}") from None


class TableSnapshot(Dataset):
    """An immutable view of one :class:`LiveTable` version.

    Shares the table's append-only feature block (``block`` is a
    read-only view of the rows in use at its version, none of which is
    ever written again) and object rows, and owns the ``id -> row``
    locator as of its version, whose key order is :meth:`ids`.  Every
    engine, shard builder and shared-memory path reads it through the
    :class:`~repro.data.dataset.Dataset` protocol plus ``features_of`` /
    ``feature_of``; ``version`` is the stamp queries pin at plan time.
    """

    def __init__(self, block: np.ndarray, object_rows: List[Any],
                 locator: Dict[str, int], version: int,
                 table: str = "") -> None:
        self._block = block
        self._object_rows = object_rows
        self._locator = locator
        self._features: Optional[np.ndarray] = None
        self.version = int(version)
        self.table = table

    def ids(self) -> List[str]:
        return list(self._locator)

    def __len__(self) -> int:
        return len(self._locator)

    def fetch(self, element_id: str) -> Any:
        return self.fetch_batch((element_id,))[0]

    def fetch_batch(self, element_ids: Sequence[str]) -> List[Any]:
        object_rows = self._object_rows
        return [object_rows[row]
                for row in _rows_in(self._locator, element_ids)]

    def features(self) -> np.ndarray:
        """Rows aligned with :meth:`ids`, gathered on first use.

        Without dead rows (a fresh or just-compacted table) the block
        already is that matrix, row for row, and nothing is copied.
        """
        if self._features is None:
            if len(self._block) == len(self._locator):
                self._features = self._block
            else:
                self._features = self._block[list(self._locator.values())]
        return self._features

    def feature_of(self, element_id: str) -> np.ndarray:
        """One element's row: a read-only view of the shared block."""
        return self._block[_rows_in(self._locator, (element_id,))[0]]

    def features_of(self, element_ids: Sequence[str]) -> np.ndarray:
        """Rows for many ids in one gather (a fresh array)."""
        return self._block[_rows_in(self._locator, element_ids)]


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
        if len(set(ids)) != len(ids):
            raise ConfigurationError("element ids must be unique")
        if objects is None:
            objects = list(ids)
        if len(objects) != len(ids):
            raise ConfigurationError(
                f"{len(ids)} ids for {len(objects)} objects")
        if features is None:
            if ids:
                raise ConfigurationError("initial rows need features")
            if dim is None:
                raise ConfigurationError(
                    "an empty LiveTable needs an explicit dim=")
            features = np.empty((0, int(dim)), dtype=float)
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if len(features) != len(ids):
            raise ConfigurationError(
                f"{len(ids)} ids for {len(features)} feature rows")
        if dim is not None and features.shape[1] != int(dim):
            raise ConfigurationError(
                f"features have dim {features.shape[1]}, expected {dim}")
        check_finite_features(features, ids)

        self._dim = int(features.shape[1])
        # Row r of the block and entry r of the object rows describe one
        # element as of one write; both only ever grow at the end.
        self._block = np.empty((max(16, 2 * len(ids)), self._dim),
                               dtype=float)
        self._block[:len(ids)] = features
        self._object_rows: List[Any] = list(objects)
        self._n_rows = len(ids)  # block rows in use, dead ones included
        #: live id -> its current row; key order is the table's id order
        #: (append adds at the end, update keeps the key's place).
        self._locator: Dict[str, int] = {eid: row
                                         for row, eid in enumerate(ids)}
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
            self._write_rows(ids, objects, rows)
            return self._commit("append", ids, rows=rows, started=started)

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
            old = _rows_in(self._locator, ids)
            old_rows = self._block[old]
            if objects is None:
                objects = [self._object_rows[row] for row in old]
            # The old rows stay untouched for pinned snapshots; the
            # locator now points at freshly appended rows.
            self._write_rows(ids, objects, rows)
            return self._commit("update", ids, rows=rows, old_rows=old_rows,
                                started=started)

    def delete(self, ids: Sequence[str]) -> int:
        """Remove elements; returns the new ``table_version``."""
        started = time.perf_counter()
        ids = [str(element_id) for element_id in ids]
        if not ids:
            raise ConfigurationError("delete needs at least one element")
        if len(set(ids)) != len(ids):
            raise ConfigurationError("deleted ids must be unique")
        with self._cond:
            old_rows = self._block[_rows_in(self._locator, ids)]
            for element_id in ids:
                del self._locator[element_id]
            return self._commit("delete", ids, old_rows=old_rows,
                                started=started)

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
                    block, self._object_rows, self._locator.copy(),
                    version=self._version, table=self.name)
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

    # -- Dataset protocol (reads the *current* version) ----------------------

    def ids(self) -> List[str]:
        with self._lock:
            return list(self._locator)

    def fetch(self, element_id: str) -> Any:
        return self.fetch_batch((element_id,))[0]

    def fetch_batch(self, element_ids: Sequence[str]) -> List[Any]:
        with self._lock:
            object_rows = self._object_rows
            return [object_rows[row]
                    for row in _rows_in(self._locator, element_ids)]

    def features(self) -> np.ndarray:
        return self.snapshot().features()

    def feature_of(self, element_id: str) -> np.ndarray:
        return self.features_of((element_id,))[0]

    def features_of(self, element_ids: Sequence[str]) -> np.ndarray:
        with self._lock:
            return self._block[_rows_in(self._locator, element_ids)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._locator)

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
        return rows.copy()

    def _write_rows(self, ids: Sequence[str], objects: Sequence[Any],
                    rows: np.ndarray) -> None:
        """Append one row per id and point the locator at it."""
        base = self._n_rows
        needed = base + len(ids)
        if needed > len(self._block):
            # A fresh array: snapshots keep reading the one they share.
            block = np.empty((max(needed, 2 * len(self._block)), self._dim),
                             dtype=float)
            block[:base] = self._block[:base]
            self._block = block
        self._block[base:needed] = rows
        self._object_rows.extend(objects)
        self._locator.update(zip(ids, range(base, needed)))
        self._n_rows = needed

    def _compact(self) -> None:
        """Rewrite the live rows into fresh storage, in id order.

        Costs O(live rows) and runs once dead rows outnumber them, so a
        written row pays O(1) amortised; snapshots pinned before keep
        the old block, object rows and their own locator.
        """
        rows = list(self._locator.values())
        # Room for the dead rows of the next round (it ends at 2 x live)
        # without growing the block first.
        block = np.empty((max(16, 3 * len(rows)), self._dim), dtype=float)
        block[:len(rows)] = self._block[rows]
        object_rows = self._object_rows
        self._block = block
        self._object_rows = [object_rows[row] for row in rows]
        self._locator = dict(zip(self._locator, range(len(rows))))
        self._n_rows = len(rows)

    def _trim_log(self) -> None:
        """Drop the deltas every live cursor has already pulled."""
        pulled = min((cursor.version for cursor in self._cursors),
                     default=None)
        if pulled is not None:
            first = self._version - len(self._deltas) + 1
            del self._deltas[:max(0, pulled - first + 1)]

    def _commit(self, kind: str, ids: Sequence[str], *,
                rows: Optional[np.ndarray] = None,
                old_rows: Optional[np.ndarray] = None,
                started: float = 0.0) -> int:
        self._version += 1
        self._snapshot_cache = None
        if self._n_rows > 2 * len(self._locator):
            self._compact()
        self._deltas.append(WriteDelta(
            version=self._version, kind=kind, ids=tuple(ids),
            rows=rows, old_rows=old_rows))
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
