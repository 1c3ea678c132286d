"""Cluster tree (dendrogram) structure with JSON persistence.

The paper assumes the index fits into memory and persists it as "a simple
JSON file" (Section 3.2.6).  :class:`ClusterTree` is the in-memory form: an
arbitrary-fanout tree whose leaves own disjoint sets of element IDs and
whose internal nodes group similar leaves (built from the HAC dendrogram).
:meth:`ClusterTree.to_dict` is that file's content.

A leaf holds its members as :class:`LeafMembers`: an int array of slots
into a list of ids, and a tree's leaves share one list — a built tree's
id tuple, a table's row -> id list when the table built the tree, or one
tuple a flat, JSON or hand-built tree reads its leaves' own ids into.
Every tree has that one representation — built, flat, read from JSON,
restricted, a shard's, or maintained over a live table, where a slot is
the element's block row (:mod:`repro.live.maintenance`) — and the
bandit's arms draw slots (:mod:`repro.core.arms`), which the single
engine keeps as rows until an answer names them.  Readers past the
engine see ids only: iteration, indexing and the JSON document are the
ids, in member order.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import IndexError_
from repro.persist import NULL, read

TREE_FORMAT = "repro-cluster-tree/1"


def int_array(rows) -> array:
    """``rows`` (ints, a numpy array included) as an ``array('i')``."""
    return array("i", np.asarray(rows, dtype=np.intc).tobytes())


class LeafMembers(SequenceABC):
    """A leaf's members: int slots into a shared list of element ids.

    ``slots`` is an ``array('i')``, in member order; ``names`` maps a
    slot to its id and may be shared by many leaves (a built tree's id
    tuple, or a table's row -> id list, whose slots are block rows).
    Names are only ever appended to, so a published leaf keeps reading
    the ids it was built with.  It reads like the tuple of its
    ids (length, iteration, indexing, slicing, equality) while holding
    4 bytes per member that the cyclic GC never traverses.
    """

    __slots__ = ("slots", "names")

    def __init__(self, slots: array, names: Sequence[str]) -> None:
        self.slots = slots
        self.names = names

    @classmethod
    def of(cls, members: Iterable[str]) -> "LeafMembers":
        """``members`` itself if it is one, else over its own id tuple."""
        if type(members) is cls:
            return members
        names = tuple(members)
        return cls(int_array(np.arange(len(names))), names)

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self) -> Iterator[str]:
        return map(self.names.__getitem__, self.slots)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.names.__getitem__, self.slots[index]))
        return self.names[self.slots[index]]

    def __eq__(self, other) -> bool:
        if isinstance(other, (LeafMembers, tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LeafMembers({tuple(self)!r})"


@dataclass
class ClusterNode:
    """One node of the cluster tree.

    Leaves carry ``member_ids`` (the element IDs of one k-means cluster,
    as :class:`LeafMembers`; any other sequence of ids given is read into
    one) and the cluster ``centroid``; internal nodes carry only children.
    """

    node_id: str
    children: List["ClusterNode"] = field(default_factory=list)
    member_ids: LeafMembers = ()  # type: ignore[assignment]
    centroid: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.member_ids = LeafMembers.of(self.member_ids)

    @property
    def is_leaf(self) -> bool:
        """True iff this node has no children."""
        return not self.children

    def size(self) -> int:
        """Number of elements under this node."""
        if self.is_leaf:
            return len(self.member_ids)
        return sum(child.size() for child in self.children)

    def iter_nodes(self) -> Iterator["ClusterNode"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def iter_leaves(self) -> Iterator["ClusterNode"]:
        """Left-to-right leaf traversal of this subtree."""
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.iter_leaves()

    def depth(self) -> int:
        """Height of this subtree (a leaf has depth 1)."""
        if self.is_leaf:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def to_dict(self) -> dict:
        """JSON-safe representation of this subtree."""
        payload: dict = {"node_id": self.node_id}
        if self.is_leaf:
            payload["member_ids"] = list(self.member_ids)
            if self.centroid is not None:
                payload["centroid"] = [float(x) for x in np.asarray(self.centroid)]
        else:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ClusterNode":
        """Rebuild a subtree from :meth:`to_dict` output."""
        read(payload, TREE_FORMAT, "node", node_id=str,
             children=(list, NULL), member_ids=(list, NULL),
             centroid=(list, NULL))
        centroid = payload.get("centroid")
        return cls(
            node_id=payload["node_id"],
            children=[cls.from_dict(child)
                      for child in payload.get("children") or ()],
            member_ids=payload.get("member_ids") or (),
            centroid=None if centroid is None else np.asarray(centroid,
                                                              dtype=float),
        )


class ClusterTree:
    """A validated hierarchical (or flat) clustering of a dataset."""

    def __init__(self, root: ClusterNode) -> None:
        self.root = root
        self.validate()
        self._share_names()

    # -- constructors ------------------------------------------------------------

    @classmethod
    def prevalidated(cls, root: ClusterNode,
                     touched: Iterable[ClusterNode]) -> "ClusterTree":
        """Wrap ``root`` without the O(elements) :meth:`validate` pass.

        For a caller that edited a valid tree (incremental index
        maintenance): only the ``touched`` nodes are re-checked for
        shape, and the caller vouches that node ids and elements are
        still unique.  Everything else goes through the constructor.
        """
        tree = cls.__new__(cls)
        tree.root = root
        for node in touched:
            tree._check_shape(node)
        tree._share_names()
        return tree

    @classmethod
    def flat(cls, clusters: Dict[str, Sequence[str]],
             centroids: Optional[Dict[str, np.ndarray]] = None) -> "ClusterTree":
        """Build a one-level tree: a root whose children are the clusters."""
        children = [
            ClusterNode(
                node_id=cluster_id,
                member_ids=member_ids,
                centroid=None if centroids is None else centroids.get(cluster_id),
            )
            for cluster_id, member_ids in clusters.items()
        ]
        return cls(ClusterNode(node_id="root", children=children))

    # -- accessors ---------------------------------------------------------------

    def names(self) -> Sequence[str]:
        """The one list every leaf's slots index (``()`` for no member)."""
        for leaf in self.root.iter_leaves():
            if leaf.member_ids:
                return leaf.member_ids.names
        return ()

    def leaves(self) -> List[ClusterNode]:
        """All leaf nodes, left to right."""
        return list(self.root.iter_leaves())

    def nodes(self) -> List[ClusterNode]:
        """All nodes in pre-order."""
        return list(self.root.iter_nodes())

    def n_elements(self) -> int:
        """Total number of indexed elements."""
        return self.root.size()

    def n_leaves(self) -> int:
        """Number of leaf clusters."""
        return sum(1 for _ in self.root.iter_leaves())

    def depth(self) -> int:
        """Height of the tree."""
        return self.root.depth()

    def restricted(self, allowed: Sequence[str]) -> "ClusterTree":
        """Copy of the tree with leaves masked to ``allowed`` element IDs.

        The leaf-mask filtering behind the dialect's ``WHERE`` pushdown:
        each leaf keeps only its members inside ``allowed`` (preserving
        member order and centroids), emptied leaves are dropped, and
        internal nodes whose children all vanish are pruned recursively —
        so a bandit over the restricted tree can never draw (and a scorer
        can never be charged for) a filtered-out element.  Restricting to
        an empty set yields a valid empty tree (an engine over it is
        immediately exhausted).
        """
        allowed_set = frozenset(allowed)

        def prune(node: ClusterNode) -> Optional[ClusterNode]:
            if node.is_leaf:
                names = node.member_ids.names
                slots = array("i", [slot for slot in node.member_ids.slots
                                    if names[slot] in allowed_set])
                if not slots:
                    return None
                return ClusterNode(node_id=node.node_id,
                                   member_ids=LeafMembers(slots, names),
                                   centroid=node.centroid)
            children = [kept for kept in map(prune, node.children)
                        if kept is not None]
            if not children:
                return None
            return ClusterNode(node_id=node.node_id, children=children)

        root = prune(self.root)
        if root is None:
            root = ClusterNode(node_id=self.root.node_id)
        return ClusterTree(root)

    def flattened(self) -> "ClusterTree":
        """Return a flat copy: root directly over the current leaves.

        This is the structure produced by the *tree fallback* (Section
        3.2.3): "we turn the index into a flat partition, removing the tree
        while preserving the clustering."
        """
        children = [
            ClusterNode(
                node_id=leaf.node_id,
                member_ids=leaf.member_ids,
                centroid=leaf.centroid,
            )
            for leaf in self.root.iter_leaves()
        ]
        return ClusterTree(ClusterNode(node_id="root", children=children))

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`IndexError_` unless the tree is well-formed.

        Checks: unique node ids, no empty internal nodes, members only at
        leaves, and no element assigned to two leaves.

        The last check holds no set of every element (4 MB at 100 000,
        and a live table's churn rebuild makes it on top of the serving
        process): the elements' hashes are sorted, and only elements whose
        hash repeats are compared, in traversal order.
        """
        seen_nodes: set[str] = set()
        n_members = 0
        for node in self.root.iter_nodes():
            if node.node_id in seen_nodes:
                raise IndexError_(f"duplicate node id {node.node_id!r}")
            seen_nodes.add(node.node_id)
            self._check_shape(node)
            n_members += len(node.member_ids)
        hashes = np.fromiter(map(hash, self._all_members()), dtype=np.int64,
                             count=n_members)
        hashes.sort()
        clashing = set(hashes[1:][hashes[1:] == hashes[:-1]].tolist())
        if not clashing:
            return
        seen_members = set()
        for member in self._all_members():
            if hash(member) in clashing:
                if member in seen_members:
                    raise IndexError_(
                        f"element {member!r} appears in multiple leaves"
                    )
                seen_members.add(member)

    def _share_names(self) -> None:
        """Give leaves over id lists of their own (a JSON, flat or
        hand-built tree) one shared list, leaf after leaf, in member
        order, so a slot names one element across the tree."""
        leaves = [leaf for leaf in self.root.iter_leaves()
                  if leaf.member_ids]
        if len({id(leaf.member_ids.names) for leaf in leaves}) <= 1:
            return
        names = tuple(member for leaf in leaves
                      for member in leaf.member_ids)
        start = 0
        for leaf in leaves:
            end = start + len(leaf.member_ids)
            leaf.member_ids = LeafMembers(int_array(np.arange(start, end)),
                                          names)
            start = end

    def _all_members(self) -> Iterator[str]:
        """Every node's members, in traversal order."""
        for node in self.root.iter_nodes():
            yield from node.member_ids

    def _check_shape(self, node: ClusterNode) -> None:
        """The rules one node can break alone: no empty leaf (the root
        excepted), members only at leaves."""
        if node.is_leaf:
            if not node.member_ids and node is not self.root:
                raise IndexError_(f"empty leaf cluster {node.node_id!r}")
        elif node.member_ids:
            raise IndexError_(
                f"internal node {node.node_id!r} must not own members"
            )

    # -- persistence -----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe document of the whole tree (``json.dumps`` it to save)."""
        return {"format": TREE_FORMAT, "root": self.root.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "ClusterTree":
        """Rebuild a validated tree from :meth:`to_dict` output."""
        return cls(ClusterNode.from_dict(
            read(payload, TREE_FORMAT, root=dict)["root"]))

    def __repr__(self) -> str:
        return (
            f"ClusterTree(leaves={self.n_leaves()}, elements={self.n_elements()}, "
            f"depth={self.depth()})"
        )
