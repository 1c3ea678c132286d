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

from repro.data.dataset import Dataset, InMemoryDataset, TableSnapshot
from repro.index.builder import IndexConfig, build_index, index_config_for
from repro.index.tree import ClusterNode, ClusterTree
from repro.live.maintenance import IndexMaintainer
from repro.live.table import LiveTable, LogCursor
from repro.memo import MemoStore, MemoView
from repro.parallel.cache import ShardIndexCache


class TableBinding:
    """Per-table state of one session family (a session and its forks)."""

    def __init__(self, name: str, dataset: Dataset,
                 index_config: Optional[IndexConfig],
                 lock, index: Optional[ClusterTree] = None) -> None:
        self.name = name
        self.dataset = dataset
        self.live = isinstance(dataset, LiveTable)
        #: The table's own configuration, else ``None`` (the sizing
        #: policy of ``index_config_for``).
        self.index_config = index_config
        #: Cross-query scores, keyed inside by UDF fingerprint and row.
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
        self._lock = lock

    def _build(self, rows: Dataset) -> ClusterTree:
        """Full index build over the table or one snapshot of it.

        A static table's leaves slot its row -> id list (its ids, in
        order, for good), so an engine over the tree fetches and
        memoizes by row; a live snapshot's tree is republished over
        block rows by the maintainer that adopts it.
        """
        if len(rows) == 0:
            return ClusterTree(ClusterNode(node_id="root"))
        config = index_config_for(len(rows), self.index_config)
        block, block_rows = rows.feature_rows()
        ids = (rows.row_ids if isinstance(rows, InMemoryDataset)
               else rows.ids())
        # Seed 0: a table's index is a function of its rows alone.
        return build_index(block, ids, config, rng=0, rows=block_rows)

    def _reconcile(self):
        """Catch index, memo and shard cache up to the write log.

        Caller holds the lock, so each shared structure advances exactly
        once across forks.  Returns the snapshot reconciled against.  The
        first touch subscribes to the log and builds over the snapshot
        it pulls (a registration-time prebuilt index is adopted only
        when it covers exactly the live ids); the memo starts following
        the table's rows there.  From there every pull hands over
        exactly the deltas not yet folded in, and the table retains no
        others on this binding's account.  The memo is keyed by block
        row, which no write rewrites: it only follows the compactions'
        row maps (the row rule in :mod:`repro.memo.store`).
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
            self.memo.follow(snapshot)
            self._log = log
            return snapshot
        deltas, snapshot = self._log.pull()
        if deltas:
            self.maintainer.advance(deltas, snapshot)
            self.shard_cache.evict_stale(snapshot.version)
            self.memo.follow(snapshot, [delta.remap for delta in deltas
                                        if delta.remap is not None])
        return snapshot

    def pin(self) -> Tuple[Dataset, Optional[str], Optional[ClusterTree]]:
        """``(dataset, index freshness, index)`` for one query.

        The dataset carries its own ``version``.  A static table is
        ``(dataset, None, None)``, at version 0: its index never
        changes and is built on the first :meth:`index_for`.  A live
        table first reconciles against its write log, then pins an
        immutable snapshot and the maintained tree of that same version
        — concurrent writers can no longer change what the query reads,
        nor the tree it draws from (published trees are never mutated,
        and their leaves' row slots name the rows of the snapshot's own
        storage, compactions included).
        """
        if not self.live:
            return self.dataset, None, None
        with self._lock:
            snapshot = self._reconcile()
            return snapshot, self.maintainer.freshness, self.maintainer.tree

    def index_for(self) -> ClusterTree:
        """The table's current index: a static table's, built once; a
        live table's maintained tree, reconciled first."""
        with self._lock:
            if not self.live:
                if self._index is None:
                    self._index = self._build(self.dataset)
                return self._index
            self._reconcile()
            return self.maintainer.tree

    def memo_view(self, fingerprint: str, rows: Dataset) -> MemoView:
        """One UDF's read/write handle on the score memo, for a reader
        of ``rows`` (the dataset :meth:`pin` handed out).

        The view reads ids through the reader's own snapshot, so on a
        live table a reader pinned before a write keeps the scores of
        the rows it sees, and one pinned after misses on every row the
        write added (the row rule in :mod:`repro.memo.store`).
        """
        if not isinstance(rows, TableSnapshot):
            return self.memo.view(fingerprint)
        if not self.live:
            # A static table's rows never move; its memo follows them
            # from the first reader on.
            self.memo.follow(rows)
        return self.memo.view(fingerprint, rows)

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
