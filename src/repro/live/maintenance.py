"""Incremental cluster-tree maintenance for live tables.

The index builder (:mod:`repro.index.builder`) freezes a tree at
``register_table``; this module keeps that tree in step with a
:class:`~repro.live.table.LiveTable`'s write log without re-running
k-means + HAC per write:

* **appends** are routed root-to-leaf by nearest running-mean centroid
  (per-node ``(sum, count)`` aggregates maintained here — the builder's
  internal nodes carry no centroid of their own);
* **overflowing leaves split** into two children via a deterministic
  farthest-pair 2-means (``index_splits_total`` counts them);
* **updates** re-route the element (remove with the old feature row,
  insert with the new one);
* **deletes** shrink leaves and prune emptied subtrees.

Every ``advance`` publishes a *new* :class:`~repro.index.tree.ClusterTree`
(nodes cloned, untouched members and chunk tuples shared) so engines
that mirrored the previous tree keep a consistent structure — published
trees are never mutated in place.  The report names every touched node
so the session can dirty exactly the affected histogram priors (the
gain-cache invalidation hooks fire inside the engines automatically
when a fresh tree is mirrored).

The per-row work of an ``advance`` is proportional to the path it
routes down.  Each node's mean is cached as the quotient
``_sum / _count`` — the same division, so routing reads the same floats
— computed when routing first compares the node and dropped whenever a
bump, prune or rebuild changes the node's sum, so an insert divides
again only the means earlier writes moved.  A bump adds ``sign * row``
to each ancestor's sum in place; no two nodes share a sum buffer.

Leaf membership is kept in chunks: each leaf is a list of
insertion-ordered chunks of at most :data:`CHUNK_SIZE` members (dicts:
O(1) insert and removal), ``_leaf_of`` maps an element to its chunk, an
append goes to the leaf's last chunk and a delete to the chunk that
holds the element.  A touched leaf is published as a
:class:`~repro.index.tree.ChunkedMembers` that rebuilds only the tuples
of the chunks this batch wrote and shares every other chunk's tuple
with the previous tree, in the same member order a single dict per leaf
would give.  So an ``advance`` republishes the slots of the chunks it
wrote, not the leaves: on the ``live-append`` benchmark a write batch
(100 random deletes, 100 appends) touches nearly every leaf (a median
of 32 of the 33) but rebuilds a median of 119 of ~800 chunks, 13k slots
of 100k.  The published tree skips
:meth:`ClusterTree.validate <repro.index.tree.ClusterTree.validate>`'s
pass over every member: node ids are unique by construction of the node
map, no element sits in two leaves because ``_leaf_of`` says where each
one is, and the empty-leaf and members-only-at-leaves rules are checked
on the touched nodes.  Builds and rebuilds still validate in full.

When cumulative churn since the last build exceeds
``rebuild_threshold`` of the table, ``advance`` falls back to a full
rebuild (the quality backstop: incremental routing matches the
builder's *assignment* rule, not its global re-clustering).  Either
way the maintained tree is a valid index over exactly the live ids —
the differential tests in ``tests/test_live.py`` prove unbudgeted
query answers are identical to a fresh rebuild's.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from repro.data.dataset import TableSnapshot
from repro.errors import ConfigurationError
from repro.index.tree import ChunkedMembers, ClusterNode, ClusterTree
from repro.live.table import WriteDelta
from repro.obs.metrics import INDEX_SPLITS_TOTAL

#: Advance reports retained in :attr:`IndexMaintainer.touched_log`.
MAX_TOUCHED_LOG = 128

#: Most members one chunk of a maintained leaf holds: a write batch
#: republishes at most this many slots per chunk it wrote.
CHUNK_SIZE = 128


class _Chunk:
    """Consecutive members of one leaf, in member order.

    The members are the keys of a dict (O(1) insert and removal);
    ``frozen`` is their tuple as published, ``None`` once a write has
    changed them since.
    """

    __slots__ = ("leaf", "members", "frozen")

    def __init__(self, leaf: str, members: Tuple[str, ...] = ()) -> None:
        self.leaf = leaf
        self.members: Dict[str, None] = dict.fromkeys(members)
        self.frozen: Optional[Tuple[str, ...]] = members


@dataclass
class MaintenanceReport:
    """What one :meth:`IndexMaintainer.advance` call did."""

    version_from: int
    version_to: int
    routed: int = 0
    removed: int = 0
    splits: int = 0
    rebuilt: bool = False
    #: Node ids whose membership changed (all of them after a rebuild).
    touched_nodes: Tuple[str, ...] = ()


class IndexMaintainer:
    """Keeps one table's cluster tree in step with its write log.

    Parameters
    ----------
    tree:
        The freshly built tree covering ``snapshot``.
    snapshot:
        The table version the tree was built from.
    rebuild:
        Callback ``(TableSnapshot) -> ClusterTree`` used when churn
        crosses the threshold (the table binding supplies its index seed
        and sizing policy here).
    max_leaf_size:
        Split trigger; defaults to twice the initial mean leaf size.
    rebuild_threshold:
        Full-rebuild fallback once cumulative churn exceeds this
        fraction of the table size at the last build.
    """

    def __init__(self, tree: ClusterTree, snapshot: TableSnapshot,
                 rebuild: Callable[[TableSnapshot], ClusterTree],
                 *, max_leaf_size: Optional[int] = None,
                 rebuild_threshold: float = 0.5,
                 table: str = "live") -> None:
        self._tree = tree
        self._rebuild = rebuild
        self._rebuild_threshold = float(rebuild_threshold)
        self._table = str(table)
        self.version = int(snapshot.version)
        self.freshness = "built"
        self.n_splits = 0
        self.n_rebuilds = 0
        self._churn = 0
        self._size_at_build = max(1, tree.n_elements())
        if max_leaf_size is None:
            n_leaves = max(1, tree.n_leaves())
            max_leaf_size = max(8, 2 * ((tree.n_elements() + n_leaves - 1)
                                        // n_leaves))
        self.max_leaf_size = int(max_leaf_size)
        #: ``(version_to, touched node ids)`` per advance, newest last.
        #: The maintainer is shared across session forks but warm-start
        #: prior stores are fork-private, so each fork replays this log
        #: (:meth:`touched_since`) to dirty exactly its own stale node
        #: histograms.
        self.touched_log: List[Tuple[int, Tuple[str, ...]]] = []
        #: Lowest version the log still covers; a consumer synced below
        #: it has gaps and must drop all priors instead.
        self.log_floor = self.version
        self._sum: Dict[str, np.ndarray] = {}
        self._count: Dict[str, int] = {}
        #: node id -> ``_sum / _count``, filled by :meth:`_mean` and
        #: dropped whenever the node's sum changes (a split changes none:
        #: the leaf keeps its sum and the children's ids are new).
        self._means: Dict[str, np.ndarray] = {}
        #: element id -> the chunk that holds it (``chunk.leaf`` is its leaf).
        self._leaf_of: Dict[str, _Chunk] = {}
        #: leaf id -> its chunks, in member order, none of them empty.
        #: Appends go to the last one until it holds ``CHUNK_SIZE``; a
        #: written chunk's tuple is rebuilt once, when the tree is
        #: published, and every other chunk's tuple is shared.
        self._members_of: Dict[str, List[_Chunk]] = {}
        self._attach_aggregates(snapshot)

    @property
    def tree(self) -> ClusterTree:
        """The current (never-mutated-in-place) published tree."""
        return self._tree

    def stats(self) -> Dict[str, object]:
        return {"version": self.version, "freshness": self.freshness,
                "splits": self.n_splits, "rebuilds": self.n_rebuilds,
                "max_leaf_size": self.max_leaf_size,
                "leaves": self._tree.n_leaves(),
                "elements": self._tree.n_elements()}

    # -- the one mutation entry point ----------------------------------------

    def advance(self, deltas: Sequence[WriteDelta],
                snapshot: TableSnapshot) -> MaintenanceReport:
        """Fold committed deltas in; publish a new tree at ``snapshot``.

        ``snapshot`` must be the table state *after* the last delta —
        the rebuild fallback reads it, and so do split feature lookups
        for every member no later delta of this batch rewrites (see
        :meth:`_rows_as_indexed`).
        """
        report = MaintenanceReport(version_from=self.version,
                                   version_to=snapshot.version)
        if not deltas:
            self.version = snapshot.version
            return report

        self._churn += sum(len(delta.ids) for delta in deltas)
        if self._churn > self._rebuild_threshold * self._size_at_build:
            self._full_rebuild(snapshot)
            report.rebuilt = True
            report.touched_nodes = tuple(
                node.node_id for node in self._tree.nodes())
            report.version_to = self.version
            self._log_touched(report)
            return report

        nodes, parent, root = self._clone()
        touched: Set[str] = set()
        splits_before = self.n_splits
        # Rows this batch has yet to overwrite or remove, oldest first:
        # until its delta is applied, the tree still indexes the element
        # under that row, which the post-batch snapshot no longer holds.
        superseded: Dict[str, Deque[np.ndarray]] = defaultdict(deque)
        for delta in deltas:
            if delta.old_rows is not None:
                for element_id, old in zip(delta.ids, delta.old_rows):
                    superseded[element_id].append(old)

        def rows_of(members: List[str]) -> np.ndarray:
            return self._rows_as_indexed(members, snapshot, superseded)

        for delta in deltas:
            if delta.kind == "append":
                assert delta.rows is not None
                for element_id, row in zip(delta.ids, delta.rows):
                    self._insert(element_id, row, nodes, parent, root,
                                 touched, rows_of)
                    report.routed += 1
            elif delta.kind == "update":
                assert delta.rows is not None and delta.old_rows is not None
                for element_id, row, old in zip(delta.ids, delta.rows,
                                                delta.old_rows):
                    superseded[element_id].popleft()
                    self._remove(element_id, old, nodes, parent, touched)
                    self._insert(element_id, row, nodes, parent, root,
                                 touched, rows_of)
                    report.routed += 1
            elif delta.kind == "delete":
                assert delta.old_rows is not None
                for element_id, old in zip(delta.ids, delta.old_rows):
                    superseded[element_id].popleft()
                    self._remove(element_id, old, nodes, parent, touched)
                    report.removed += 1
            else:  # pragma: no cover - the table only emits these kinds
                raise ConfigurationError(f"unknown delta kind {delta.kind!r}")

        self._publish(touched, nodes, root)
        report.splits = self.n_splits - splits_before
        report.touched_nodes = tuple(sorted(touched))
        self.version = snapshot.version
        self.freshness = "incremental"
        self._log_touched(report)
        return report

    def _log_touched(self, report: MaintenanceReport) -> None:
        self.touched_log.append((report.version_to, report.touched_nodes))
        if len(self.touched_log) > MAX_TOUCHED_LOG:
            trimmed = len(self.touched_log) - MAX_TOUCHED_LOG
            self.log_floor = self.touched_log[trimmed - 1][0]
            del self.touched_log[:trimmed]

    def touched_since(self, version: int) -> Optional[Set[str]]:
        """Node ids whose membership changed after ``version``.

        ``None`` when the log no longer reaches back that far: the
        consumer has gaps and must treat every node as touched.
        """
        if version < self.log_floor:
            return None
        return {node for logged, nodes in self.touched_log
                if logged > version for node in nodes}

    # -- aggregates ----------------------------------------------------------

    def _attach_aggregates(self, snapshot: TableSnapshot) -> None:
        self._sum.clear()
        self._count.clear()
        self._means.clear()
        self._leaf_of.clear()
        self._members_of.clear()

        self._fill(self._tree.root, snapshot)

    def _fill(self, node: ClusterNode,
              snapshot: TableSnapshot) -> Tuple[np.ndarray, int]:
        """Aggregates and chunks of ``node``'s subtree; its sum and count."""
        if node.is_leaf:
            members = tuple(node.member_ids)
            if members:
                total = snapshot.features_of(members).sum(axis=0)
            else:
                total = np.zeros(snapshot.features().shape[1] or 1,
                                 dtype=float)
            self._enlist_all(node.node_id, members)
            self._sum[node.node_id] = total
            self._count[node.node_id] = len(members)
            return total, len(members)
        total, count = None, 0
        for child in node.children:
            child_sum, child_count = self._fill(child, snapshot)
            total = child_sum.copy() if total is None else total + child_sum
            count += child_count
        assert total is not None
        self._sum[node.node_id] = total
        self._count[node.node_id] = count
        return total, count

    def _mean(self, node_id: str) -> Optional[np.ndarray]:
        mean = self._means.get(node_id)
        if mean is None:
            count = self._count.get(node_id, 0)
            if not count:
                return None
            mean = self._means[node_id] = self._sum[node_id] / count
        return mean

    # -- COW clone -----------------------------------------------------------

    def _clone(self) -> Tuple[Dict[str, ClusterNode],
                              Dict[str, Optional[str]], ClusterNode]:
        """Shallow-clone every node (member tuples/centroids shared).

        The clone is freely mutable; the previously published tree —
        possibly mirrored by in-flight engines — is never touched.
        """
        nodes: Dict[str, ClusterNode] = {}
        parent: Dict[str, Optional[str]] = {}
        root = self._copy(self._tree.root, None, nodes, parent)
        return nodes, parent, root

    @classmethod
    def _copy(cls, node: ClusterNode, up: Optional[str],
              nodes: Dict[str, ClusterNode],
              parent: Dict[str, Optional[str]]) -> ClusterNode:
        # A method, not a closure over itself: a recursive closure is a
        # reference cycle that would keep the clone alive until the next
        # cyclic collection.
        clone = ClusterNode(node_id=node.node_id, member_ids=node.member_ids,
                            centroid=node.centroid)
        clone.children = [cls._copy(child, node.node_id, nodes, parent)
                          for child in node.children]
        nodes[node.node_id] = clone
        parent[node.node_id] = up
        return clone

    # -- leaf membership -----------------------------------------------------

    def _enlist_all(self, leaf_id: str, members: Tuple[str, ...]) -> None:
        """Make ``members``, in that order, the whole of a leaf."""
        chunks = [_Chunk(leaf_id, members[at:at + CHUNK_SIZE])
                  for at in range(0, len(members), CHUNK_SIZE)]
        for chunk in chunks:
            self._leaf_of.update(dict.fromkeys(chunk.members, chunk))
        self._members_of[leaf_id] = chunks

    def _enlist(self, leaf_id: str, element_id: str) -> None:
        """Add one member at the end of a leaf."""
        chunks = self._members_of[leaf_id]
        if not chunks or len(chunks[-1].members) >= CHUNK_SIZE:
            chunks.append(_Chunk(leaf_id))
        chunk = chunks[-1]
        chunk.members[element_id] = None
        chunk.frozen = None
        self._leaf_of[element_id] = chunk

    def _delist(self, element_id: str) -> str:
        """Take one member out of its leaf; returns the leaf id."""
        chunk = self._leaf_of.pop(element_id, None)
        if chunk is None:
            raise ConfigurationError(
                f"element {element_id!r} is not indexed")
        del chunk.members[element_id]
        chunk.frozen = None
        if not chunk.members:
            self._members_of[chunk.leaf].remove(chunk)
        return chunk.leaf

    def _published(self, leaf_id: str) -> ChunkedMembers:
        """A leaf's members as chunk tuples, rebuilt where written."""
        chunks = self._members_of[leaf_id]
        for chunk in chunks:
            if chunk.frozen is None:
                chunk.frozen = tuple(chunk.members)
        return ChunkedMembers(tuple([chunk.frozen for chunk in chunks]))

    # -- incremental ops -----------------------------------------------------

    @staticmethod
    def _rows_as_indexed(members: List[str], snapshot: TableSnapshot,
                         superseded: Dict[str, Deque[np.ndarray]],
                         ) -> np.ndarray:
        """Feature rows of ``members`` as the tree holds them mid-batch.

        The post-batch ``snapshot`` is right for every member except
        those a later delta of the same batch updates (different row) or
        deletes (no row at all); for those, the next superseded row is.
        """
        stale = [position for position, member in enumerate(members)
                 if superseded.get(member)]
        if not stale:
            return snapshot.features_of(members)
        settled = [position for position, member in enumerate(members)
                   if not superseded.get(member)]
        first = superseded[members[stale[0]]][0]
        rows = np.empty((len(members), len(first)), dtype=float)
        if settled:
            rows[settled] = snapshot.features_of(
                [members[position] for position in settled])
        for position in stale:
            rows[position] = superseded[members[position]][0]
        return rows

    def _publish(self, touched: Set[str], nodes: Dict[str, ClusterNode],
                 root: ClusterNode) -> None:
        """Give each touched leaf its new members and wrap the tree.

        Only the touched nodes are re-checked; the rest of what
        :meth:`ClusterTree.validate` checks holds without looking: node
        ids key ``nodes``, and an element is in one leaf because
        ``_leaf_of`` maps it to one.
        """
        alive = [nodes[node_id] for node_id in touched if node_id in nodes]
        for node in alive:
            if node.is_leaf:
                node.member_ids = self._published(node.node_id)
        self._tree = ClusterTree.prevalidated(root, alive)

    def _insert(self, element_id: str, row: np.ndarray,
                nodes: Dict[str, ClusterNode],
                parent: Dict[str, Optional[str]], root: ClusterNode,
                touched: Set[str],
                rows_of: Callable[[List[str]], np.ndarray]) -> None:
        if element_id in self._leaf_of:
            raise ConfigurationError(
                f"element {element_id!r} is already indexed")
        node = root
        while not node.is_leaf:
            best, best_dist = None, np.inf
            for child in node.children:
                mean = self._mean(child.node_id)
                if mean is None:
                    continue
                diff = row - mean
                dist = float(np.dot(diff, diff))
                if dist < best_dist:
                    best, best_dist = child, dist
            if best is None:
                best = node.children[0]
            node = best
        self._enlist(node.node_id, element_id)
        self._bump(node.node_id, parent, row, +1, touched)
        if self._count[node.node_id] > self.max_leaf_size:
            self._split(node, nodes, parent, touched, rows_of)

    def _remove(self, element_id: str, old_row: np.ndarray,
                nodes: Dict[str, ClusterNode],
                parent: Dict[str, Optional[str]],
                touched: Set[str]) -> None:
        leaf_id = self._delist(element_id)
        self._bump(leaf_id, parent, old_row, -1, touched)
        if not self._members_of[leaf_id]:
            self._prune(nodes[leaf_id], nodes, parent, touched)

    def _bump(self, node_id: str, parent: Dict[str, Optional[str]],
              row: np.ndarray, sign: int, touched: Set[str]) -> None:
        # In place: no two nodes share a sum buffer (each is a fresh
        # array from _attach_aggregates or _split).
        step = sign * row
        sums, counts, means = self._sum, self._count, self._means
        at: Optional[str] = node_id
        while at is not None:
            sums[at] += step
            counts[at] += sign
            means.pop(at, None)
            touched.add(at)
            at = parent.get(at)

    def _prune(self, node: ClusterNode, nodes: Dict[str, ClusterNode],
               parent: Dict[str, Optional[str]],
               touched: Set[str]) -> None:
        """Unlink an emptied leaf and any ancestors it leaves childless."""
        while True:
            up_id = parent.get(node.node_id)
            if up_id is None:  # the root may stay empty: a leaf again
                self._members_of.setdefault(node.node_id, [])
                return
            up = nodes[up_id]
            up.children = [child for child in up.children
                           if child.node_id != node.node_id]
            touched.add(up_id)
            self._sum.pop(node.node_id, None)
            self._count.pop(node.node_id, None)
            self._means.pop(node.node_id, None)
            self._members_of.pop(node.node_id, None)
            nodes.pop(node.node_id, None)
            parent.pop(node.node_id, None)
            if up.children:
                return
            node = up

    def _split(self, leaf: ClusterNode, nodes: Dict[str, ClusterNode],
               parent: Dict[str, Optional[str]], touched: Set[str],
               rows_of: Callable[[List[str]], np.ndarray]) -> None:
        """Promote an overflowing leaf to an internal node with two
        children, assigned by deterministic farthest-pair 2-means."""
        members = [member for chunk in self._members_of.pop(leaf.node_id)
                   for member in chunk.members]
        rows = rows_of(members)
        mean = rows.mean(axis=0)
        seed_a = int(np.argmax(((rows - mean) ** 2).sum(axis=1)))
        seed_b = int(np.argmax(((rows - rows[seed_a]) ** 2).sum(axis=1)))
        if seed_a == seed_b:  # all rows identical: balanced halving
            half = len(members) // 2
            mask = np.zeros(len(members), dtype=bool)
            mask[:half] = True
        else:
            dist_a = ((rows - rows[seed_a]) ** 2).sum(axis=1)
            dist_b = ((rows - rows[seed_b]) ** 2).sum(axis=1)
            mask = dist_a <= dist_b
            if mask.all() or not mask.any():
                half = len(members) // 2
                mask = np.zeros(len(members), dtype=bool)
                mask[:half] = True
        groups = ([m for m, keep in zip(members, mask) if keep],
                  [m for m, keep in zip(members, mask) if not keep])
        children = []
        for side, group in enumerate(groups):
            child_id = f"{leaf.node_id}.{side}"
            while child_id in nodes:  # re-split of a re-created id
                child_id += "x"
            group_rows = rows[mask] if side == 0 else rows[~mask]
            child = ClusterNode(node_id=child_id,
                                centroid=group_rows.mean(axis=0))
            nodes[child_id] = child
            parent[child_id] = leaf.node_id
            self._sum[child_id] = group_rows.sum(axis=0)
            self._count[child_id] = len(group)
            self._enlist_all(child_id, tuple(group))
            touched.add(child_id)
            children.append(child)
        leaf.member_ids = ()
        leaf.centroid = None
        leaf.children = children
        touched.add(leaf.node_id)
        self.n_splits += 1
        INDEX_SPLITS_TOTAL.inc(table=self._table)

    # -- rebuild fallback ----------------------------------------------------

    def _full_rebuild(self, snapshot: TableSnapshot) -> None:
        self._tree = self._rebuild(snapshot)
        self._attach_aggregates(snapshot)
        self.version = snapshot.version
        self.freshness = "rebuilt"
        self.n_rebuilds += 1
        self._churn = 0
        self._size_at_build = max(1, self._tree.n_elements())
