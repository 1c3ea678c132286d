"""One registered table and everything the session keeps beside it.

The paper's index is *task-independent* — a property of the table, not of
a query — and so is everything this repo has since hung next to it: the
cross-query score memo, the shard-index cache and, for a mutable
:class:`~repro.live.table.LiveTable`, the incremental index maintainer
that follows the write log.  :class:`TableBinding` owns all of it behind
a small door — :meth:`~TableBinding.pin`, :meth:`~TableBinding.index_for`,
:meth:`~TableBinding.memo_view`, :meth:`~TableBinding.info`,
:meth:`~TableBinding.touched_since` — and static versus live is decided
here and nowhere else.  Bindings are shared by every fork of a session
(each structure is *transparent*: a hit is bit-identical to the rebuild
or rescore it skips), so lazy builds and write-log reconciliation are
serialised under the session's lock.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.data.dataset import Dataset
from repro.index.builder import IndexConfig, build_index, index_config_for
from repro.index.tree import ClusterNode, ClusterTree
from repro.live.maintenance import IndexMaintainer
from repro.live.table import LiveTable, LogCursor
from repro.memo import MemoStore, MemoView
from repro.parallel.cache import ShardIndexCache


class TableBinding:
    """Per-table state of one session family (a session and its forks)."""

    def __init__(self, name: str, dataset: Dataset,
                 index_config: Optional[IndexConfig], index_seed: int,
                 lock, index: Optional[ClusterTree] = None) -> None:
        self.name = name
        self.dataset = dataset
        self.live = isinstance(dataset, LiveTable)
        #: The table's own configuration, else the session default, else
        #: ``None`` (the sizing policy of ``index_config_for``).
        self.index_config = index_config
        #: Cross-query scores, keyed inside by UDF fingerprint.
        self.memo = MemoStore()
        #: Per-shard partition indexes, shared by the round and streaming
        #: engines: a repeat query with the same seed / worker count /
        #: filter / index config / table version skips every k-means fit.
        self.shard_cache = ShardIndexCache()
        #: Live tables only, created with the first pin — the maintainer
        #: and this binding's place in the table's write log.
        self.maintainer: Optional[IndexMaintainer] = None
        self._log: Optional[LogCursor] = None
        self._index = index
        self._index_seed = index_seed
        self._lock = lock

    def _build(self, rows: Dataset) -> ClusterTree:
        """Full index build over the table or one snapshot of it."""
        if len(rows) == 0:
            return ClusterTree(ClusterNode(node_id="root"))
        config = index_config_for(len(rows), self.index_config)
        return build_index(rows.features(), rows.ids(), config,
                           rng=self._index_seed)

    def _reconcile(self):
        """Catch index, memo stamps and shard cache up to the write log.

        Caller holds the lock, so each shared structure advances exactly
        once across forks.  Returns the snapshot reconciled against.  The
        first touch subscribes to the log and builds over the snapshot
        it pulls (a registration-time prebuilt index is adopted only
        when it covers exactly the live ids); the memo is still empty
        then, so it learns the version and has nothing to evict.  From
        there every pull hands over exactly the deltas not yet folded
        in, and the table retains no others on this binding's account.
        """
        if self.maintainer is None:
            log = self.dataset.subscribe()
            _, snapshot = log.pull()
            tree = self._index
            if tree is not None and set(snapshot.ids()) != {
                    member for leaf in tree.leaves()
                    for member in leaf.member_ids}:
                tree = None
            if tree is None:
                tree = self._build(snapshot)
            self.maintainer = IndexMaintainer(tree, snapshot, self._build,
                                              table=self.name)
            self.memo.apply_writes((), snapshot.version)
            self._log = log
            return snapshot
        deltas, snapshot = self._log.pull()
        if deltas:
            self.maintainer.advance(deltas, snapshot)
            self.shard_cache.evict_stale(snapshot.version)
            for delta in deltas:
                self.memo.apply_writes(delta.ids, delta.version)
        return snapshot

    def pin(self) -> Tuple[Dataset, int, Optional[str]]:
        """``(dataset, version, index freshness)`` for one query to read.

        A static table is ``(dataset, 0, None)``.  A live table first
        reconciles against its write log, then pins an immutable
        snapshot — concurrent writers can no longer change what the
        query reads.
        """
        if not self.live:
            return self.dataset, 0, None
        with self._lock:
            snapshot = self._reconcile()
            return snapshot, snapshot.version, self.maintainer.freshness

    def index_for(self, version: int = 0,
                  dataset: Optional[Dataset] = None) -> ClusterTree:
        """The table's index, built once, as of a :meth:`pin`.

        When a write committed between the pin and this call, the
        maintained tree has moved on: the query gets a one-off tree over
        its pinned ``dataset`` instead — its snapshot-isolated answer,
        uncached.
        """
        with self._lock:
            if not self.live:
                if self._index is None:
                    self._index = self._build(self.dataset)
                return self._index
            self._reconcile()
            if dataset is not None and version != self.maintainer.version:
                return self._build(dataset)
            return self.maintainer.tree

    def memo_view(self, fingerprint: str, version: int) -> MemoView:
        """One UDF's read/write handle on the score memo.

        On a live table the view carries the reader's pinned version: it
        refuses hits on — and never records scores for — elements
        rewritten after it (the MVCC rule in :mod:`repro.memo.store`).
        """
        return self.memo.view(
            fingerprint, reader_version=version if self.live else None)

    def touched_since(self, version: int) -> Optional[Set[str]]:
        """Index nodes whose membership changed after ``version``.

        ``None`` when the maintainer's log no longer reaches back that
        far — the caller must treat every node as touched.
        """
        with self._lock:
            if self.maintainer is None:
                return set()
            return self.maintainer.touched_since(version)

    def info(self) -> dict:
        """Version, row count, and index-freshness card (``repro info``)."""
        with self._lock:
            info = {
                "table": self.name,
                "rows": len(self.dataset),
                "live": self.live,
                "version": 0,
                "index_freshness": ("static" if self._index is not None
                                    else "unbuilt"),
            }
            if self.live:
                stats = self.dataset.stats()
                info["version"] = stats["version"]
                info["writes"] = stats["writes"]
                maintainer = self.maintainer
                if maintainer is None:
                    info["index_freshness"] = "unbuilt"
                else:
                    info["index_freshness"] = maintainer.freshness
                    info["index_version"] = maintainer.version
                    info["index_splits"] = maintainer.n_splits
                    info["index_rebuilds"] = maintainer.n_rebuilds
            return info
