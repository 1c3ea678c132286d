"""Live tables: versioned writes, incremental index maintenance, and
standing ``CONTINUOUS`` queries.

* :class:`~repro.live.table.LiveTable` — a mutable, versioned
  :class:`~repro.data.dataset.Dataset` over append-only row storage;
  every write batch commits a monotone ``table_version`` and a
  replayable :class:`~repro.live.table.WriteDelta`.
* :class:`~repro.data.dataset.TableSnapshot` — the immutable view one
  query pins at plan time (snapshot isolation against racing writers);
  it shares the table's storage and owns only its locator.  It is the
  static tables' layout too, re-exported here for live callers.
* :class:`~repro.live.table.LogCursor` — one consumer's place in the
  write log; the table keeps only what some cursor has not pulled.
* :class:`~repro.live.maintenance.IndexMaintainer` — keeps the cluster
  tree in step with the write log (route/split/prune incrementally,
  rebuild past the churn threshold) without mutating published trees.
* :class:`~repro.live.continuous.ContinuousQuery` — the standing-query
  driver behind the dialect's ``CONTINUOUS`` clause.

See ``docs/live.md`` for the tour and ``docs/architecture.md`` for the
invariants.
"""

from repro.data.dataset import TableSnapshot
from repro.live.continuous import ContinuousQuery
from repro.live.maintenance import IndexMaintainer, MaintenanceReport
from repro.live.table import LiveTable, LogCursor, WriteDelta

__all__ = [
    "ContinuousQuery",
    "IndexMaintainer",
    "LiveTable",
    "LogCursor",
    "MaintenanceReport",
    "TableSnapshot",
    "WriteDelta",
]
