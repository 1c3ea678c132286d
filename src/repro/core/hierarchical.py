"""Hierarchical epsilon-greedy bandit over the cluster tree (Section 3.2.2).

"Similar to He et al., we run our bandit algorithm over clusters in each
layer of the index.  The histogram of each cluster approximates the scores
of the UDF for all points in its descendant clusters.  Upon selecting a
cluster, its children constitute the collection of arms that the agent can
pull in the next bandit loop."

:class:`HierarchicalBanditPolicy` mirrors a :class:`~repro.index.tree.ClusterTree`
into a flat node table (one histogram row per node, one sampling arm per
leaf), performs root-to-leaf epsilon-greedy descent, updates the full
root-to-leaf histogram path on every observation, and implements the
empty-child handling of Section 3.2.4: dropped leaves are subtracted from
every ancestor's histogram, and childless internal nodes are removed
recursively.

The one door
------------
This module is the only code that knows how bandit state is laid out.
Everyone else — the engine, snapshots, warm-start priors, the fallback and
convergence tests, the UCB / ExplorationOnly baselines — goes through:

* :meth:`~HierarchicalBanditPolicy.select` — descend, draw a batch from the
  chosen leaf, remember that leaf as pending;
* :meth:`~HierarchicalBanditPolicy.update` — fold the batch's scores into
  the pending leaf's root path and drop the leaf if the draw ran it dry;
* :meth:`~HierarchicalBanditPolicy.state` /
  :meth:`~HierarchicalBanditPolicy.load_state` — the nested
  ``{node_id, histogram, remaining | children}`` payload of the ``/1``
  engine snapshot (:meth:`~HierarchicalBanditPolicy.sketches` /
  :meth:`~HierarchicalBanditPolicy.set_sketches` are the flat by-id view
  the priors payload uses);
* :meth:`~HierarchicalBanditPolicy.live_leaves` /
  :meth:`~HierarchicalBanditPolicy.leaf_gains` — ``remaining`` with the
  sketch, or the gain estimate, of every sampleable leaf, for the
  convergence tail and the fallback slope test.

Layout (struct-of-arrays)
-------------------------
Nodes are rows in pre-order (the root is row 0).  Parent row, live child
rows, ``remaining``, leaf arm, sketch and each leaf's precomputed
leaf-to-root path are flat lists indexed by row; the default sketches are
the rows of one :class:`~repro.core.histogram.HistogramBank`, so a descent
walks row ints and Python floats.  :class:`BanditNode` is a read-only view
of one row for tests and EXPLAIN.

* **``remaining`` ownership.**  The policy alone writes the undrawn
  descendant counts: ``select`` — the only way to draw — decrements them
  along the drawn leaf's path, ``flatten`` re-derives the root's,
  ``load_state`` re-derives all from the member lists it installs, and a
  dropped leaf is already at zero.  So ``exhausted`` is an O(1) read.
* **Gain refresh.**  Each layer of a descent asks
  :meth:`~repro.core.histogram.HistogramBank.gains` for its live
  children's gains; the first layer that finds a stale row re-evaluates,
  in one kernel call, every row mutated since the last refresh, so in
  steady state the remaining layers are list reads.  A row whose sketch
  is not bank-backed (custom ``sketch_factory``, a prior with another
  ``n_bins``) answers ``expected_marginal_gain`` itself.

Both contracts are restated normatively (with their consequences for
snapshot restore and the parallel subsystem) in ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from repro.core.arms import ArmState
from repro.core.bandit import BanditConfig
from repro.core.histogram import AdaptiveHistogram, HistogramBank, gain_batch
from repro.core.sketches import ScoreSketch
from repro.errors import ConfigurationError, ExhaustedError, SerializationError
from repro.index.tree import ClusterNode, ClusterTree
from repro.utils.rng import RngFactory, SeedLike

#: A child-choice rule: ``(parent sketch, live children's sketches)`` ->
#: position of the child to descend into.
ChooseChild = Callable[[ScoreSketch, Sequence[ScoreSketch]], int]


class BanditNode:
    """Read-only view of one row of the policy's node table."""

    __slots__ = ("_policy", "_row")

    def __init__(self, policy: "HierarchicalBanditPolicy", row: int) -> None:
        self._policy = policy
        self._row = row

    node_id = property(lambda self: self._policy._ids[self._row])
    arm = property(lambda self: self._policy._arms[self._row])
    histogram = property(lambda self: self._policy._sketches[self._row])
    remaining = property(lambda self: self._policy._remaining[self._row])
    is_leaf = property(lambda self: self.arm is not None)

    @property
    def parent(self) -> Optional["BanditNode"]:
        row = self._policy._parent[self._row]
        return None if row < 0 else BanditNode(self._policy, row)

    @property
    def children(self) -> List["BanditNode"]:
        return [BanditNode(self._policy, row)
                for row in self._policy._children[self._row]]


class HierarchicalBanditPolicy:
    """Per-layer epsilon-greedy selection over the mirrored cluster tree.

    Over a flat :class:`~repro.index.tree.ClusterTree` (every leaf a child
    of the root) this *is* the flat bandit of Algorithm 1: one layer, one
    explore-or-exploit choice among the arms.

    Parameters
    ----------
    tree:
        The prebuilt cluster index.
    config:
        Histogram / exploration settings.
    rng:
        Seed or generator.  Each leaf arm gets its own generator from
        the ``arm:<leaf id>`` named stream — which, since only a name's
        first eight bytes count (:class:`~repro.utils.rng.RngFactory`),
        means arms whose ids share a prefix (``leaf-*``) are seeded alike:
        separate generators, not independent streams.
    enable_subtraction:
        If False, dropped children are *not* subtracted from ancestor
        histograms (the paper's "skip subtraction" ablation).
    """

    def __init__(self, tree: ClusterTree, config: BanditConfig | None = None,
                 rng: SeedLike = None, *, enable_subtraction: bool = True) -> None:
        self.config = config = config or BanditConfig()
        self.enable_subtraction = enable_subtraction
        factory = RngFactory(rng)
        self._rng = factory.named("policy")
        # The node table: one entry per row, rows in pre-order.
        self._ids: List[str] = []
        self._parent: List[int] = []
        self._children: List[List[int]] = []
        self._arms: List[Optional[ArmState]] = []
        self._remaining: List[int] = []
        self._mirror(tree.root, -1, factory)
        if self._arms[0] is not None and not len(self._arms[0]):
            raise ConfigurationError("index contains no elements")
        n_rows = len(self._ids)
        self._rows = {node_id: row for row, node_id in enumerate(self._ids)}
        self._bank = HistogramBank(n_rows, config.n_bins,
                                   config.initial_range, config.beta)
        # Rows whose sketch is not a row of the bank answer for themselves.
        self._foreign: Set[int] = set()
        if config.sketch_factory is None:
            self._sketches = [self._bank.row(row) for row in range(n_rows)]
        else:
            self._sketches = [config.sketch_factory() for _ in range(n_rows)]
            self._foreign.update(range(n_rows))
        self._paths: List[Tuple[int, ...]] = [()] * n_rows
        self._index_leaves()
        # The leaf row the last select() drew from, until update() folds it.
        self._pending: Optional[int] = None
        self.n_drops = 0
        self.flattened = False

    # -- construction ------------------------------------------------------------

    def _mirror(self, cluster: ClusterNode, parent: int,
                factory: RngFactory) -> int:
        row = len(self._ids)
        arm = None if not cluster.is_leaf else ArmState(
            cluster.node_id, cluster.member_ids,
            rng=factory.named(f"arm:{cluster.node_id}"))
        self._ids.append(cluster.node_id)
        self._parent.append(parent)
        self._arms.append(arm)
        self._remaining.append(0 if arm is None else arm.remaining)
        self._children.append([])
        for child in cluster.children:
            child_row = self._mirror(child, row, factory)
            self._children[row].append(child_row)
            self._remaining[row] += self._remaining[child_row]
        return row

    def _iter_rows(self, row: int = 0) -> Iterator[int]:
        """Pre-order walk of the live tree beneath (and including) ``row``."""
        yield row
        for child in self._children[row]:
            yield from self._iter_rows(child)

    def _index_leaves(self) -> None:
        """Rebuild the live-leaf registry and every leaf's leaf-to-root path."""
        self.leaves_by_id: Dict[str, int] = {}
        for row in self._iter_rows():
            if self._arms[row] is not None and self._remaining[row] > 0:
                self.leaves_by_id[self._ids[row]] = row
                path = [row]
                while self._parent[path[-1]] >= 0:
                    path.append(self._parent[path[-1]])
                self._paths[row] = tuple(path)

    def _install(self, row: int, sketch: ScoreSketch) -> None:
        """Make ``sketch`` the sketch of ``row``: adopted into the bank if
        it has the bank's shape, kept as a foreign object otherwise."""
        if (isinstance(sketch, AdaptiveHistogram)
                and self._bank.adopt(row, sketch)):
            self._sketches[row] = self._bank.row(row)
            self._foreign.discard(row)
        else:
            self._sketches[row] = sketch
            self._foreign.add(row)

    # -- state queries -------------------------------------------------------------

    def node(self, node_id: str) -> BanditNode:
        """Read-only view of a mirrored node, live or dropped."""
        return BanditNode(self, self._rows[node_id])

    def _active_leaves(self) -> List[int]:
        return [row for row in self.leaves_by_id.values()
                if self._remaining[row] > 0]

    @property
    def remaining(self) -> int:
        """Undrawn elements in the whole tree (O(1) counter read)."""
        return self._remaining[0]

    @property
    def exhausted(self) -> bool:
        """True once every leaf arm has run dry (O(1) counter check)."""
        return self._remaining[0] <= 0

    def remaining_ids(self) -> List[str]:
        """All undrawn element IDs (used when falling back to a scan)."""
        ids: List[str] = []
        for row in self._active_leaves():
            ids.extend(self._arms[row].peek_members())
        return ids

    def live_leaves(self) -> List[Tuple[int, ScoreSketch]]:
        """``(remaining, sketch)`` of every leaf that can still be drawn."""
        return [(self._remaining[row], self._sketches[row])
                for row in self._active_leaves()]

    def leaf_gains(self, threshold: float | None
                   ) -> Tuple[List[int], List[float]]:
        """``remaining`` and gain estimate of every leaf that can still be drawn."""
        rows = self._active_leaves()
        return ([self._remaining[row] for row in rows],
                self._gains(rows, threshold))

    @property
    def root_sketch(self) -> ScoreSketch:
        """The root's sketch: every observation minus the dropped leaves'."""
        return self._sketches[0]

    # -- selection --------------------------------------------------------------------

    def _gains(self, rows: List[int], threshold: float | None) -> List[float]:
        """Gain estimates of ``rows``; the bank's one refresh when it can be."""
        if not self._foreign:
            return self._bank.gains(
                rows, None if threshold is None else float(threshold))
        return gain_batch([self._sketches[row] for row in rows],
                          threshold).tolist()

    def _live_children(self, row: int) -> List[int]:
        remaining = self._remaining
        candidates = [c for c in self._children[row] if remaining[c] > 0]
        if not candidates:
            raise ExhaustedError(
                f"node {self._ids[row]!r} has no sampleable children")
        return candidates

    def _greedy(self, candidates: List[int], threshold: float | None,
                *, deterministic: bool) -> int:
        if not deterministic and self.config.visit_unvisited_first:
            # Optimistic initialization: sweep unseen subtrees before
            # trusting gain estimates (see BanditConfig docs).
            sketches = self._sketches
            unvisited = [c for c in candidates if sketches[c].is_empty]
            if unvisited:
                return unvisited[int(self._rng.integers(len(unvisited)))]
        gains = self._gains(candidates, threshold)
        best = max(gains)
        tied = [c for c, gain in zip(candidates, gains)
                if gain >= best - 1e-15]
        if deterministic or len(tied) == 1:
            return tied[0]
        return tied[int(self._rng.integers(len(tied)))]

    def select(self, size: int, threshold: float | None = None,
               epsilon: float = 0.0, *, per_layer: bool = False,
               choose: Optional[ChooseChild] = None) -> List[str]:
        """Descend from the root to a leaf and draw up to ``size`` members.

        With ``per_layer=False`` (default) a single coin flip decides whether
        the *whole descent* explores (uniform random child per layer — the
        behaviour of the ExplorationOnly baseline) or exploits greedily; with
        ``per_layer=True`` each layer flips its own coin.  ``choose`` swaps
        in a caller's child-choice rule for every layer (UCB) and flips no
        coin.  The chosen leaf stays pending until :meth:`update`.
        """
        arms, sketches = self._arms, self._sketches
        row = 0
        explore_all = (choose is None and not per_layer
                       and self._rng.random() < epsilon)
        while arms[row] is None:
            candidates = self._live_children(row)
            if choose is not None:
                row = candidates[choose(
                    sketches[row], [sketches[c] for c in candidates])]
            elif explore_all or (per_layer and self._rng.random() < epsilon):
                row = candidates[int(self._rng.integers(len(candidates)))]
            else:
                row = self._greedy(candidates, threshold,
                                   deterministic=False)
        self._pending = row
        ids = arms[row].draw_batch(size)
        remaining, drawn = self._remaining, len(ids)
        for node in self._paths[row]:
            remaining[node] -= drawn
        return ids

    def greedy_leaf(self, threshold: float | None) -> str:
        """Id of the leaf with the highest gain estimate (deterministic ties).

        This is "the greedy arm" of the tree-fallback test (Section 3.2.3).
        """
        leaves = self._active_leaves()
        if not leaves:
            raise ExhaustedError("all leaves are exhausted")
        gains = self._gains(leaves, threshold)
        return self._ids[leaves[gains.index(max(gains))]]

    def greedy_descent_leaf(self, threshold: float | None) -> str:
        """Id of the leaf reached by greedy-only descent (deterministic ties).

        This simulates "the hierarchical bandit navigating down the tree
        index, choosing the greedy child in each layer" for the fallback test.
        """
        row = 0
        while self._arms[row] is None:
            row = self._greedy(self._live_children(row), threshold,
                               deterministic=True)
        return self._ids[row]

    # -- updates -------------------------------------------------------------------------

    def update(self, scores: Sequence[float], threshold: float | None, *,
               enable_rebinning: bool = True) -> None:
        """Fold the pending batch's scores into its leaf's root-to-leaf path.

        One walk of the leaf's precomputed path per batch: each row applies
        at most one Fig. 3a re-bin check, then absorbs a single score through
        the sketch's scalar ``add`` and a larger batch through its vectorized
        ``add_batch``.  A leaf the draw ran dry is then dropped (Section
        3.2.4), whether or not any score was folded.  Without a pending
        :meth:`select` this is a no-op.
        """
        leaf, self._pending = self._pending, None
        if leaf is None:
            return
        if len(scores):
            single = len(scores) == 1
            # One conversion shared by every histogram on the path.
            batch = scores[0] if single else np.asarray(scores, dtype=float)
            for row in self._paths[leaf]:
                sketch = self._sketches[row]
                if enable_rebinning:
                    sketch.maybe_extend_lowest(threshold)
                if single:
                    sketch.add(batch)
                else:
                    sketch.add_batch(batch)
        if self._remaining[leaf] <= 0:
            self._drop(leaf)

    def _drop(self, leaf: int) -> None:
        """Drop an exhausted leaf (Section 3.2.4 empty-child handling).

        The leaf's histogram is subtracted from every ancestor (so a parent
        whose "good" child ran dry stops looking good), then the leaf is
        unlinked; ancestors left childless are removed recursively.  The
        ``remaining`` counters need no adjustment: an exhausted leaf already
        contributed zero along its path.
        """
        if self.leaves_by_id.pop(self._ids[leaf], None) is None:
            return  # already dropped
        if self.enable_subtraction:
            for ancestor in self._paths[leaf][1:]:
                self._sketches[ancestor].subtract(self._sketches[leaf])
        self.n_drops += 1
        row = leaf
        while self._parent[row] >= 0:
            parent = self._parent[row]
            self._children[parent].remove(row)
            if self._children[parent] or self._parent[parent] < 0:
                break
            row = parent

    # -- tree fallback ----------------------------------------------------------------------

    def flatten(self) -> None:
        """Turn the index into a flat partition, preserving the clustering.

        After the tree-fallback fires, the root's children become the active
        leaves directly; the root histogram (aggregate of everything) is
        retained, and each leaf keeps its own sketch and remaining members.
        The root's ``remaining`` counter is re-derived from the surviving
        leaves (the discarded internal layers kept their own counts).
        """
        leaves = self._active_leaves()
        for leaf in leaves:
            self._parent[leaf] = 0
            self._paths[leaf] = (leaf, 0)
        self._children[0] = leaves
        self._remaining[0] = sum(self._remaining[leaf] for leaf in leaves)
        self.flattened = True

    # -- state as data ------------------------------------------------------------------------

    def sketches(self) -> Dict[str, ScoreSketch]:
        """``{node id -> sketch}`` of every live node, root first (pre-order)."""
        return {self._ids[row]: self._sketches[row]
                for row in self._iter_rows()}

    def set_sketches(self, sketches: Mapping[str, ScoreSketch]) -> None:
        """Swap in sketches by node id; ids not in the live tree are ignored."""
        for row in self._iter_rows():
            if self._ids[row] in sketches:
                self._install(row, sketches[self._ids[row]])

    def state(self) -> dict:
        """The live tree as nested JSON-safe ``{node_id, histogram, ...}`` dicts.

        A leaf carries ``remaining`` (its undrawn member ids), an internal
        node ``children``.  Dropped nodes are absent and a flattened tree
        lists its leaves directly under the root; :meth:`load_state` reads
        both back.
        """
        def emit(row: int) -> dict:
            sketch, arm = self._sketches[row], self._arms[row]
            if not isinstance(sketch, AdaptiveHistogram):
                raise ConfigurationError(
                    "snapshotting requires the default histogram sketch; "
                    "custom sketch factories are not serializable"
                )
            payload: dict = {"node_id": self._ids[row],
                             "histogram": sketch.to_dict()}
            if arm is not None:
                payload["remaining"] = list(arm.peek_members())
            else:
                payload["children"] = [emit(child)
                                       for child in self._children[row]]
            return payload

        return emit(0)

    def load_state(self, payload: dict) -> None:
        """Take the shape, sketches and members of a :meth:`state` payload.

        The policy must mirror the same index (node ids are checked).  The
        payload decides the shape: a mirrored node it omits was dropped, and
        a leaf it lists under the root was re-parented by :meth:`flatten`.
        Every ``remaining`` counter is re-derived from the installed member
        lists; the arms keep their own random streams.
        """
        if payload.get("node_id") != self._ids[0]:
            raise SerializationError(
                f"snapshot tree mismatch: engine node {self._ids[0]!r} "
                f"vs snapshot {payload.get('node_id')!r}"
            )

        def load(entry: dict, parent: int) -> int:
            row = self._rows.get(entry.get("node_id"))
            if row is None:
                raise SerializationError(
                    f"snapshot tree mismatch: no node {entry.get('node_id')!r}"
                )
            arm = self._arms[row]
            key = "children" if arm is None else "remaining"
            if key not in entry:
                raise SerializationError(
                    f"snapshot node {self._ids[row]!r} lacks {key!r}"
                )
            self._parent[row] = parent
            self._install(row, AdaptiveHistogram.from_dict(entry["histogram"]))
            if arm is None:
                children = [load(child, row) for child in entry[key]]
                self._children[row] = children
                self._remaining[row] = sum(self._remaining[c]
                                           for c in children)
            else:
                arm._members = list(entry[key])
                self._remaining[row] = len(arm)
            return row

        load(payload, -1)
        self._index_leaves()
        self._pending = None
