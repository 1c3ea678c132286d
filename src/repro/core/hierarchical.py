"""Hierarchical epsilon-greedy bandit over the cluster tree (Section 3.2.2).

"Similar to He et al., we run our bandit algorithm over clusters in each
layer of the index.  The histogram of each cluster approximates the scores
of the UDF for all points in its descendant clusters.  Upon selecting a
cluster, its children constitute the collection of arms that the agent can
pull in the next bandit loop."

:class:`HierarchicalBanditPolicy` mirrors a :class:`~repro.index.tree.ClusterTree`
into bandit nodes (one adaptive histogram per node, one sampling arm per
leaf), performs root-to-leaf epsilon-greedy descent, updates the full
root-to-leaf histogram path on every observation, and implements the
empty-child handling of Section 3.2.4: dropped leaves are subtracted from
every ancestor's histogram, and childless internal nodes are removed
recursively.

The one door
------------
This module is the only code that knows how bandit state is laid out
(nodes, arms, parent links, the leaf registry).  Everyone else — the
engine, snapshots, warm-start priors, the fallback and convergence tests,
the UCB / ExplorationOnly baselines — goes through:

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
* :meth:`~HierarchicalBanditPolicy.live_leaves` — ``(remaining, sketch)``
  per sampleable leaf, for the fallback slope test and the convergence tail.

Incremental-statistics invariants (the vectorized hot path)
-----------------------------------------------------------
* **``remaining`` ownership.**  Every node stores its undrawn descendant
  count as a plain integer, and the policy alone writes it: every draw
  goes through :meth:`~HierarchicalBanditPolicy.select`, which decrements
  the counter along the root path by what it drew,
  ``flatten`` re-derives the root counter from the surviving leaves,
  ``load_state`` re-derives every counter from the member lists it
  installs, and a dropped leaf is already at zero.  Consequences:
  ``exhausted`` is an O(1) counter check and the per-layer candidate
  filter reads one int per child instead of recursing.
* **Gain-cache ownership.**  Each node's histogram memoizes its last
  ``(threshold, gain)`` pair (see :mod:`repro.core.histogram`).  The cache
  is dirtied by any histogram mutation — ``add_batch`` during
  :meth:`~HierarchicalBanditPolicy.update`, re-binning via
  ``maybe_extend_lowest``, range extension, and ancestor ``subtract`` on
  drops — and by threshold movement (a cache-key miss).  Selection
  evaluates all sibling candidates through
  :func:`repro.core.histogram.gain_batch`, which serves cached nodes for
  free and evaluates the dirty ones in one stacked vectorized pass; between
  two observations only the last touched root-to-leaf path is dirty, so a
  descent costs O(depth · B) numpy work.

Both contracts are restated normatively (with their consequences for
snapshot restore and the parallel subsystem) in ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.core.arms import ArmState
from repro.core.bandit import BanditConfig
from repro.core.histogram import AdaptiveHistogram, gain_batch
from repro.core.sketches import ScoreSketch
from repro.errors import ConfigurationError, ExhaustedError, SerializationError
from repro.index.tree import ClusterNode, ClusterTree
from repro.utils.rng import RngFactory, SeedLike

#: A child-choice rule: ``(parent sketch, live children's sketches)`` ->
#: position of the child to descend into.
ChooseChild = Callable[[ScoreSketch, Sequence[ScoreSketch]], int]


class BanditNode:
    """One node of the bandit's mirror of the cluster tree."""

    __slots__ = ("node_id", "parent", "children", "arm", "histogram",
                 "remaining")

    def __init__(self, node_id: str, histogram: ScoreSketch,
                 parent: Optional["BanditNode"] = None) -> None:
        self.node_id = node_id
        self.parent = parent
        self.children: List["BanditNode"] = []
        self.arm: Optional[ArmState] = None
        self.histogram = histogram
        # Undrawn elements beneath this node, maintained incrementally
        # (select() calls note_drawn on the leaf it drew from).
        self.remaining = 0

    @property
    def is_leaf(self) -> bool:
        """True iff this node carries a sampling arm."""
        return self.arm is not None

    def note_drawn(self, n: int) -> None:
        """Decrement ``remaining`` on this node and every ancestor."""
        node: Optional[BanditNode] = self
        while node is not None:
            node.remaining -= n
            node = node.parent

    def path_to_root(self) -> Iterator["BanditNode"]:
        """Yield this node, then each ancestor up to and including the root."""
        node: Optional[BanditNode] = self
        while node is not None:
            yield node
            node = node.parent

    def live_children(self) -> List["BanditNode"]:
        """Children that still have elements to draw (raises if none)."""
        candidates = [child for child in self.children if child.remaining > 0]
        if not candidates:
            raise ExhaustedError(
                f"node {self.node_id!r} has no sampleable children")
        return candidates

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal[{len(self.children)}]"
        return f"BanditNode({self.node_id!r}, {kind})"


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
        self.config = config or BanditConfig()
        self.enable_subtraction = enable_subtraction
        factory = RngFactory(rng)
        self._rng = factory.named("policy")
        self.root = self._mirror(tree.root, parent=None, factory=factory)
        if self.root.is_leaf and self.root.arm is not None and not len(self.root.arm):
            raise ConfigurationError("index contains no elements")
        self.leaves_by_id: Dict[str, BanditNode] = {
            node.node_id: node for node in self._iter_nodes(self.root)
            if node.is_leaf
        }
        # The leaf the last select() drew from, until update() folds its scores.
        self._pending: Optional[BanditNode] = None
        self.n_drops = 0
        self.flattened = False

    # -- construction ------------------------------------------------------------

    def _mirror(self, cluster: ClusterNode, parent: Optional[BanditNode],
                factory: RngFactory) -> BanditNode:
        node = BanditNode(cluster.node_id, self.config.new_sketch(), parent)
        if cluster.is_leaf:
            node.arm = ArmState(cluster.node_id, cluster.member_ids,
                                rng=factory.named(f"arm:{cluster.node_id}"))
            node.remaining = node.arm.remaining
        else:
            node.children = [
                self._mirror(child, node, factory) for child in cluster.children
            ]
            node.remaining = sum(child.remaining for child in node.children)
        return node

    @staticmethod
    def _iter_nodes(node: BanditNode) -> Iterator[BanditNode]:
        """Pre-order walk of the live tree beneath (and including) ``node``."""
        yield node
        for child in node.children:
            yield from HierarchicalBanditPolicy._iter_nodes(child)

    # -- state queries -------------------------------------------------------------

    def _active_leaves(self) -> List[BanditNode]:
        return [node for node in self.leaves_by_id.values()
                if node.remaining > 0]

    @property
    def remaining(self) -> int:
        """Undrawn elements in the whole tree (O(1) counter read)."""
        return self.root.remaining

    @property
    def exhausted(self) -> bool:
        """True once every leaf arm has run dry (O(1) counter check)."""
        return self.root.remaining <= 0

    def remaining_ids(self) -> List[str]:
        """All undrawn element IDs (used when falling back to a scan)."""
        ids: List[str] = []
        for leaf in self._active_leaves():
            ids.extend(leaf.arm.peek_members())
        return ids

    def live_leaves(self) -> List[Tuple[int, ScoreSketch]]:
        """``(remaining, sketch)`` of every leaf that can still be drawn."""
        return [(leaf.remaining, leaf.histogram)
                for leaf in self._active_leaves()]

    @property
    def root_sketch(self) -> ScoreSketch:
        """The root's sketch: every observation minus the dropped leaves'."""
        return self.root.histogram

    # -- selection --------------------------------------------------------------------

    def _greedy(self, candidates: List[BanditNode], threshold: float | None,
                *, deterministic: bool) -> BanditNode:
        if not deterministic and self.config.visit_unvisited_first:
            # Optimistic initialization: sweep unseen subtrees before
            # trusting gain estimates (see BanditConfig docs).
            unvisited = [child for child in candidates
                         if child.histogram.is_empty]
            if unvisited:
                return unvisited[int(self._rng.integers(len(unvisited)))]
        gains = gain_batch(
            [child.histogram for child in candidates], threshold
        )
        best = gains.max()
        tied = [child for child, gain in zip(candidates, gains)
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
        node = self.root
        explore_all = (choose is None and not per_layer
                       and self._rng.random() < epsilon)
        while node.arm is None:
            candidates = node.live_children()
            if choose is not None:
                node = candidates[choose(
                    node.histogram, [child.histogram for child in candidates])]
            elif explore_all or (per_layer and self._rng.random() < epsilon):
                node = candidates[int(self._rng.integers(len(candidates)))]
            else:
                node = self._greedy(candidates, threshold,
                                    deterministic=False)
        self._pending = node
        ids = node.arm.draw_batch(size)
        node.note_drawn(len(ids))
        return ids

    def greedy_leaf(self, threshold: float | None) -> str:
        """Id of the leaf with the highest gain estimate (deterministic ties).

        This is "the greedy arm" of the tree-fallback test (Section 3.2.3).
        """
        leaves = self._active_leaves()
        if not leaves:
            raise ExhaustedError("all leaves are exhausted")
        gains = gain_batch([leaf.histogram for leaf in leaves], threshold)
        return leaves[int(np.argmax(gains))].node_id

    def greedy_descent_leaf(self, threshold: float | None) -> str:
        """Id of the leaf reached by greedy-only descent (deterministic ties).

        This simulates "the hierarchical bandit navigating down the tree
        index, choosing the greedy child in each layer" for the fallback test.
        """
        node = self.root
        while node.arm is None:
            node = self._greedy(node.live_children(), threshold,
                                deterministic=True)
        return node.node_id

    # -- updates -------------------------------------------------------------------------

    def update(self, scores: Sequence[float], threshold: float | None, *,
               enable_rebinning: bool = True) -> None:
        """Fold the pending batch's scores into its leaf's root-to-leaf path.

        One path walk per batch: each node on the path applies at most one
        Fig. 3a re-bin check and then absorbs the whole batch through the
        sketch's vectorized ``add_batch``.  A leaf the draw ran dry is then
        dropped (Section 3.2.4), whether or not any score was folded.
        Without a pending :meth:`select` this is a no-op.
        """
        leaf, self._pending = self._pending, None
        if leaf is None:
            return
        if len(scores):
            if len(scores) > 1:
                # One conversion shared by every histogram on the path.
                scores = np.asarray(scores, dtype=float)
            for node in leaf.path_to_root():
                if enable_rebinning:
                    node.histogram.maybe_extend_lowest(threshold)
                node.histogram.add_batch(scores)
        if leaf.remaining <= 0:
            self._drop(leaf)

    def _drop(self, leaf: BanditNode) -> None:
        """Drop an exhausted leaf (Section 3.2.4 empty-child handling).

        The leaf's histogram is subtracted from every ancestor (so a parent
        whose "good" child ran dry stops looking good), then the leaf is
        unlinked; ancestors left childless are removed recursively.  The
        ``remaining`` counters need no adjustment: an exhausted leaf already
        contributed zero along its path.
        """
        if self.leaves_by_id.pop(leaf.node_id, None) is None:
            return  # already dropped
        if self.enable_subtraction:
            for ancestor in leaf.path_to_root():
                if ancestor is not leaf:
                    ancestor.histogram.subtract(leaf.histogram)
        self.n_drops += 1
        node = leaf
        while node.parent is not None:
            parent = node.parent
            parent.children = [c for c in parent.children if c is not node]
            if parent.children or parent.parent is None:
                break
            node = parent

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
            leaf.parent = self.root
        self.root.children = leaves
        self.root.remaining = sum(leaf.remaining for leaf in leaves)
        self.flattened = True

    # -- state as data ------------------------------------------------------------------------

    def sketches(self) -> Dict[str, ScoreSketch]:
        """``{node id -> sketch}`` of every live node, root first (pre-order)."""
        return {node.node_id: node.histogram
                for node in self._iter_nodes(self.root)}

    def set_sketches(self, sketches: Mapping[str, ScoreSketch]) -> None:
        """Swap in sketches by node id; ids not in the live tree are ignored."""
        for node in self._iter_nodes(self.root):
            if node.node_id in sketches:
                node.histogram = sketches[node.node_id]

    def state(self) -> dict:
        """The live tree as nested JSON-safe ``{node_id, histogram, ...}`` dicts.

        A leaf carries ``remaining`` (its undrawn member ids), an internal
        node ``children``.  Dropped nodes are absent and a flattened tree
        lists its leaves directly under the root; :meth:`load_state` reads
        both back.
        """
        def emit(node: BanditNode) -> dict:
            if not isinstance(node.histogram, AdaptiveHistogram):
                raise ConfigurationError(
                    "snapshotting requires the default histogram sketch; "
                    "custom sketch factories are not serializable"
                )
            payload: dict = {"node_id": node.node_id,
                             "histogram": node.histogram.to_dict()}
            if node.arm is not None:
                payload["remaining"] = list(node.arm.peek_members())
            else:
                payload["children"] = [emit(child) for child in node.children]
            return payload

        return emit(self.root)

    def load_state(self, payload: dict) -> None:
        """Take the shape, sketches and members of a :meth:`state` payload.

        The policy must mirror the same index (node ids are checked).  The
        payload decides the shape: a mirrored node it omits was dropped, and
        a leaf it lists under the root was re-parented by :meth:`flatten`.
        Every ``remaining`` counter is re-derived from the installed member
        lists; the arms keep their own random streams.
        """
        mirror = {node.node_id: node for node in self._iter_nodes(self.root)}
        if payload.get("node_id") != self.root.node_id:
            raise SerializationError(
                f"snapshot tree mismatch: engine node {self.root.node_id!r} "
                f"vs snapshot {payload.get('node_id')!r}"
            )

        def load(entry: dict, parent: Optional[BanditNode]) -> BanditNode:
            node = mirror.get(entry.get("node_id"))
            if node is None:
                raise SerializationError(
                    f"snapshot tree mismatch: no node {entry.get('node_id')!r}"
                )
            key = "children" if node.arm is None else "remaining"
            if key not in entry:
                raise SerializationError(
                    f"snapshot node {node.node_id!r} lacks {key!r}"
                )
            node.parent = parent
            node.histogram = AdaptiveHistogram.from_dict(entry["histogram"])
            if node.arm is None:
                node.children = [load(child, node) for child in entry[key]]
                node.remaining = sum(c.remaining for c in node.children)
            else:
                node.arm._members = list(entry[key])
                node.remaining = len(node.arm)
            return node

        load(payload, None)
        self.leaves_by_id = {
            node.node_id: node for node in self._iter_nodes(self.root)
            if node.is_leaf and node.remaining > 0
        }
        self._pending = None
