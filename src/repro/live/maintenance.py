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
  insert with the new one; both are rows of the delta's block);
* **deletes** shrink leaves and prune emptied subtrees.

Every ``advance`` publishes a *new* :class:`~repro.index.tree.ClusterTree`
(nodes cloned, untouched leaves' members shared) so engines that
mirrored the previous tree keep a consistent structure — published
trees are never mutated in place.  The report names every touched node
so the session can dirty exactly the affected histogram priors (the
gain-cache invalidation hooks fire inside the engines automatically
when a fresh tree is mirrored).

The per-row work of an ``advance`` is proportional to the path it
routes down.  Each node's mean is cached as a tuple of Python floats,
``total / count`` for each float of ``_sum`` — the IEEE divisions of the
numpy quotient ``_sum / _count``, so the same floats — filled when
routing first compares the node and dropped whenever a bump, prune or
rebuild changes the node's sum, so an insert divides again only the
means earlier writes moved.  An insert reads its row's features once as
a tuple and takes :func:`math.dist` to each child's mean: no numpy call
per child.  It keeps the nearest child only when the runner-up is
farther by more than :func:`_route_margin` of its distance, which proves
that the squared distances ``np.dot(diff, diff)`` have their strict
minimum at the same child; a level that is not so certified (near ties,
exact ties, distances beyond the margin's range) is measured again with
that formula and its first-of-equals rule
(:meth:`IndexMaintainer._nearest`), so every routing decision, and so
every tree, is the numpy formula's.  A bump adds ``sign * row`` to each
ancestor's sum in place; no two nodes share a sum buffer.

Leaf membership is kept in the table's block rows, the slots of a
:class:`~repro.index.tree.LeafMembers` over the table's row -> id list:
each leaf is an insertion-ordered ``array('i')`` of rows (``_rows``) and
one int array maps a row to the leaf that holds it (``_leaf_at``, -1 for
none); nothing is keyed per element.  An append adds its row at the end
of its leaf.  A delete marks its row in ``_leaf_at`` only: the row stays
in the leaf's array until the leaf is next read (published or split),
when one vectorised pass drops every row ``_leaf_at`` no longer places
there — the order a dict per leaf would give.  A split reads its
members' features as ``block[rows]`` straight from the delta's block
(rows are never rewritten, so mid-batch reads need no bookkeeping).  A
touched leaf is published as a copy of its array (a memcpy of 4 bytes a
member; one object to the cyclic GC), every untouched leaf's
members are shared with the previous tree, and the delta of a commit
that compacted the table renumbers every array through its old -> new
row map, in log order, and republishes every leaf.  The published tree
skips :meth:`ClusterTree.validate <repro.index.tree.ClusterTree.validate>`'s
pass over every member: node ids are unique by construction of the node
map, no element sits in two leaves because ``_leaf_at`` gives each row
one, and the empty-leaf and members-only-at-leaves rules are checked on
the touched nodes.  Builds and rebuilds still validate in full.

When cumulative churn since the last build exceeds
``rebuild_threshold`` of the table, ``advance`` falls back to a full
rebuild (the quality backstop: incremental routing matches the
builder's *assignment* rule, not its global re-clustering).  Either
way the maintained tree is a valid index over exactly the live ids —
the differential tests in ``tests/test_live.py`` prove unbudgeted
query answers are identical to a fresh rebuild's.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.data.dataset import TableSnapshot
from repro.errors import ConfigurationError
from repro.index.tree import ClusterNode, ClusterTree, LeafMembers, int_array
from repro.live.table import WriteDelta
from repro.obs.metrics import INDEX_SPLITS_TOTAL

#: Advance reports retained in :attr:`IndexMaintainer.touched_log`.
MAX_TOUCHED_LOG = 128

#: A level is certified only when the nearest child's distance is below
#: ``_CEIL`` (its square does not overflow) and the runner-up's above
#: ``_FLOOR`` (underflow, at most ``2**-1074`` a rounding, is far inside
#: the margin of :func:`_route_margin`).
_FLOOR = 2.0**-450
_CEIL = 2.0**500


def _route_margin(d: int) -> float:
    """The relative gap that certifies a routing decision in ``d`` dims.

    Both formulas read the same rounded differences ``diff = x - mean``
    (one IEEE subtraction per coordinate, numpy's or :func:`math.dist`'s),
    so both measure the same exact sum of squares ``S``.
    :func:`math.dist` returns ``sqrt(S)`` within 1 ulp, a relative
    ``2**-52`` (CPython scales, splits and compensates the squares and
    corrects the root).  ``np.dot(diff, diff)`` rounds ``d`` products and
    ``d - 1`` additions of non-negative terms, so it is within
    ``d * 2**-53`` relative of ``S`` (first order) in any BLAS order,
    with or without FMA, plus ``d * 2**-1074`` of underflow.  If
    :func:`math.dist` puts the nearest child at ``r1`` and every other
    at ``r2`` or more, the squared distances ``np.dot`` compares are at
    most ``r1**2 (1 + 2**-52)**2 (1 + d 2**-53)`` and at least
    ``r2**2 (1 - d 2**-53) / (1 + 2**-52)**2``: the nearest one is the
    strict minimum once ``r2 - r1 > (d + 4) * 2**-53 * r2``.  The margin
    is twice that plus ``8 * 2**-53``, which absorbs the second-order
    terms, a root up to 3 ulps off, the underflow (``r2 > _FLOOR``) and
    the roundings of the test ``r2 - r1 > margin * r2 + _FLOOR`` itself.
    """
    return (d + 8) * 2.0**-52


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
        crosses the threshold (the table binding's own build: seed 0 and
        its sizing policy).
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
        #: node id -> ``_sum / _count`` as a tuple of floats, filled by
        #: :meth:`_insert` and dropped whenever the node's sum changes (a
        #: split changes none: the leaf keeps its sum and the children's
        #: ids are new).
        self._means: Dict[str, Tuple[float, ...]] = {}
        #: A table's rows keep their width across every version.
        self._margin = _route_margin(snapshot.block.shape[1])
        #: leaf id -> its members' block rows, in insertion order; rows
        #: deleted since the leaf was last read linger until then.
        self._rows: Dict[str, array] = {}
        #: block row -> code of the leaf that holds it, -1 for none.
        self._leaf_at = np.full(0, -1, dtype=np.int32)
        #: leaf id -> its code, and code -> leaf id.
        self._codes: Dict[str, int] = {}
        self._leaf_ids: List[str] = []
        #: Leaves whose ``_rows`` may hold rows deleted since.
        self._stale: Set[str] = set()
        self._adopt_tree(snapshot)

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

        ``snapshot`` must be the table state *after* the last delta:
        the rebuild fallback reads it, and the published leaves name
        their rows through its row -> id list.
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
        renumbered = False
        for delta in deltas:
            if delta.written:
                self._reserve(delta.written[-1] + 1)
            block = delta.block
            if delta.kind == "append":
                for row in delta.written:
                    self._insert(row, nodes, parent, root, touched, block)
                    report.routed += 1
            elif delta.kind == "update":
                for old_row, row in zip(delta.retired, delta.written):
                    self._remove(old_row, nodes, parent, touched, block)
                    self._insert(row, nodes, parent, root, touched, block)
                    report.routed += 1
            elif delta.kind == "delete":
                for old_row in delta.retired:
                    self._remove(old_row, nodes, parent, touched, block)
                    report.removed += 1
            else:  # pragma: no cover - the table only emits these kinds
                raise ConfigurationError(f"unknown delta kind {delta.kind!r}")
            if delta.remap is not None:
                self._renumber(delta.remap)
                renumbered = True

        self._publish(touched, nodes, root, snapshot.row_ids, renumbered)
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

    def _adopt_tree(self, snapshot: TableSnapshot) -> None:
        """Take ``_tree`` (built over ``snapshot``) as the maintained tree.

        A tree whose leaves slot ``snapshot``'s row -> id list (the
        table binding's build) is kept as it is; any other (a
        registration-time index, its own ids) is republished with
        block-row slots over that list, in the same member order.
        """
        self._attach_aggregates(snapshot)
        names = snapshot.row_ids
        if any(leaf.member_ids.names is not names
               for leaf in self._tree.leaves() if leaf.member_ids):
            nodes, _, root = self._clone()
            self._publish(set(), nodes, root, names, every_leaf=True)

    def _attach_aggregates(self, snapshot: TableSnapshot) -> None:
        self._sum.clear()
        self._count.clear()
        self._means.clear()
        self._rows.clear()
        self._codes.clear()
        self._leaf_ids.clear()
        self._stale.clear()
        self._leaf_at = np.full(len(snapshot.block), -1, dtype=np.int32)
        self._fill(self._tree.root, snapshot)

    def _fill(self, node: ClusterNode,
              snapshot: TableSnapshot) -> Tuple[np.ndarray, int]:
        """Aggregates and rows of ``node``'s subtree; its sum and count."""
        if node.is_leaf:
            rows = np.asarray(snapshot.rows_of(list(node.member_ids)),
                              dtype=np.intp)
            if len(rows):
                total = snapshot.block[rows].sum(axis=0)
            else:
                total = np.zeros(snapshot.block.shape[1] or 1, dtype=float)
            self._adopt(node.node_id, rows)
            self._sum[node.node_id] = total
            self._count[node.node_id] = len(rows)
            return total, len(rows)
        total, count = None, 0
        for child in node.children:
            child_sum, child_count = self._fill(child, snapshot)
            total = child_sum.copy() if total is None else total + child_sum
            count += child_count
        assert total is not None
        self._sum[node.node_id] = total
        self._count[node.node_id] = count
        return total, count

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

    def _adopt(self, leaf_id: str, rows: np.ndarray) -> None:
        """Make ``rows`` (block rows, in member order) the whole of a
        leaf, under a new code."""
        code = len(self._leaf_ids)
        self._leaf_ids.append(leaf_id)
        self._codes[leaf_id] = code
        self._rows[leaf_id] = int_array(rows)
        self._leaf_at[rows] = code

    def _reserve(self, n_rows: int) -> None:
        """Room in ``_leaf_at`` for rows below ``n_rows`` (doubling)."""
        have = len(self._leaf_at)
        if n_rows > have:
            grown = np.full(max(n_rows, 2 * have), -1, dtype=np.int32)
            grown[:have] = self._leaf_at
            self._leaf_at = grown

    def _delist(self, row: int) -> str:
        """Take one row out of its leaf; returns the leaf id."""
        code = int(self._leaf_at[row]) if row < len(self._leaf_at) else -1
        if code < 0:
            raise ConfigurationError(f"block row {row} is not indexed")
        self._leaf_at[row] = -1
        leaf_id = self._leaf_ids[code]
        self._stale.add(leaf_id)
        return leaf_id

    def _live_rows(self, leaf_id: str) -> array:
        """A leaf's rows, with the ones deleted since dropped first."""
        rows = self._rows[leaf_id]
        if leaf_id in self._stale:
            self._stale.discard(leaf_id)
            held = np.frombuffer(rows, dtype=np.intc)
            rows = self._rows[leaf_id] = int_array(
                held[np.take(self._leaf_at, held) == self._codes[leaf_id]])
        return rows

    def _renumber(self, remap: np.ndarray) -> None:
        """Carry every leaf through a compaction's old -> new row map."""
        leaf_at = np.full(int(np.count_nonzero(remap >= 0)), -1,
                          dtype=np.int32)
        for leaf_id, rows in self._rows.items():
            # A deleted row still held is dead in the table: it maps to -1.
            moved = np.take(remap, np.frombuffer(rows, dtype=np.intc))
            moved = moved[moved >= 0]
            self._rows[leaf_id] = int_array(moved)
            leaf_at[moved] = self._codes[leaf_id]
        self._leaf_at = leaf_at
        self._stale.clear()

    def _publish(self, touched: Set[str], nodes: Dict[str, ClusterNode],
                 root: ClusterNode, names: Sequence[str],
                 every_leaf: bool) -> None:
        """Give each touched leaf (``every_leaf``: each leaf) a copy of
        its rows over ``names`` and wrap the tree.

        Only the touched nodes are re-checked; the rest of what
        :meth:`ClusterTree.validate` checks holds without looking: node
        ids key ``nodes``, and an element is in one leaf because
        ``_leaf_at`` gives its row one.
        """
        alive = [nodes[node_id] for node_id in touched if node_id in nodes]
        for node in (root.iter_leaves() if every_leaf else alive):
            if node.is_leaf:
                node.member_ids = LeafMembers(
                    self._live_rows(node.node_id)[:], names)
        self._tree = ClusterTree.prevalidated(root, alive)

    # -- incremental ops -----------------------------------------------------

    def _insert(self, row: int, nodes: Dict[str, ClusterNode],
                parent: Dict[str, Optional[str]], root: ClusterNode,
                touched: Set[str], block: np.ndarray) -> None:
        """Route block row ``row`` (features ``block[row]``) to a leaf."""
        if self._leaf_at[row] >= 0:
            raise ConfigurationError(f"block row {row} is already indexed")
        features = block[row]
        point = tuple(features.tolist())
        sums, counts, means = self._sum, self._count, self._means
        margin = self._margin
        node = root
        while not node.is_leaf:
            best, best_dist, second = None, math.inf, math.inf
            for child in node.children:
                child_id = child.node_id
                mean = means.get(child_id)
                if mean is None:
                    count = counts.get(child_id, 0)
                    if not count:
                        continue
                    mean = means[child_id] = tuple(
                        total / count for total in sums[child_id].tolist())
                dist = math.dist(point, mean)
                if dist < best_dist:
                    best, best_dist, second = child, dist, best_dist
                elif dist < second:
                    second = dist
            # ``second`` is infinite when no other child has a mean, or
            # every other is infinitely far for np.dot as well.
            if best is None:
                best = node.children[0]
            elif not (best_dist < _CEIL and (
                    second == math.inf
                    or second - best_dist > margin * second + _FLOOR)):
                best = self._nearest(features, node.children)
            node = best
        self._rows[node.node_id].append(row)
        self._leaf_at[row] = self._codes[node.node_id]
        self._bump(node.node_id, parent, features, +1, touched)
        if self._count[node.node_id] > self.max_leaf_size:
            self._split(node, nodes, parent, touched, block)

    def _nearest(self, features: np.ndarray,
                 children: Sequence[ClusterNode]) -> ClusterNode:
        """The child whose mean ``_sum / _count`` has the strictly least
        ``np.dot(diff, diff)``, the first of equals (``children[0]`` when
        none has a mean): the rule a level :meth:`_insert` cannot
        certify falls back to."""
        best, best_dist = None, np.inf
        for child in children:
            count = self._count.get(child.node_id, 0)
            if not count:
                continue
            diff = features - self._sum[child.node_id] / count
            dist = float(np.dot(diff, diff))
            if dist < best_dist:
                best, best_dist = child, dist
        return children[0] if best is None else best

    def _remove(self, row: int, nodes: Dict[str, ClusterNode],
                parent: Dict[str, Optional[str]], touched: Set[str],
                block: np.ndarray) -> None:
        """Take block row ``row`` (features ``block[row]``) out of its
        leaf."""
        leaf_id = self._delist(row)
        self._bump(leaf_id, parent, block[row], -1, touched)
        if not self._count[leaf_id]:
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
                if node.node_id not in self._rows:
                    self._adopt(node.node_id, np.empty(0, dtype=np.intp))
                return
            up = nodes[up_id]
            up.children = [child for child in up.children
                           if child.node_id != node.node_id]
            touched.add(up_id)
            self._sum.pop(node.node_id, None)
            self._count.pop(node.node_id, None)
            self._means.pop(node.node_id, None)
            self._rows.pop(node.node_id, None)
            self._codes.pop(node.node_id, None)
            self._stale.discard(node.node_id)
            nodes.pop(node.node_id, None)
            parent.pop(node.node_id, None)
            if up.children:
                return
            node = up

    def _split(self, leaf: ClusterNode, nodes: Dict[str, ClusterNode],
               parent: Dict[str, Optional[str]], touched: Set[str],
               block: np.ndarray) -> None:
        """Promote an overflowing leaf to an internal node with two
        children, assigned by deterministic farthest-pair 2-means."""
        members = np.frombuffer(self._live_rows(leaf.node_id),
                                dtype=np.intc).astype(np.intp)
        del self._rows[leaf.node_id], self._codes[leaf.node_id]
        rows = block[members]
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
        groups = (members[mask], members[~mask])
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
            self._adopt(child_id, group)
            touched.add(child_id)
            children.append(child)
        leaf.member_ids = LeafMembers.of(())
        leaf.centroid = None
        leaf.children = children
        touched.add(leaf.node_id)
        self.n_splits += 1
        INDEX_SPLITS_TOTAL.inc(table=self._table)

    # -- rebuild fallback ----------------------------------------------------

    def _full_rebuild(self, snapshot: TableSnapshot) -> None:
        self._tree = self._rebuild(snapshot)
        self._adopt_tree(snapshot)
        self.version = snapshot.version
        self.freshness = "rebuilt"
        self.n_rebuilds += 1
        self._churn = 0
        self._size_at_build = max(1, self._tree.n_elements())
