"""Cluster tree (dendrogram) structure with JSON persistence.

The paper assumes the index fits into memory and persists it as "a simple
JSON file" (Section 3.2.6).  :class:`ClusterTree` is the in-memory form: an
arbitrary-fanout tree whose leaves own disjoint sets of element IDs and
whose internal nodes group similar leaves (built from the HAC dendrogram).
:meth:`ClusterTree.to_dict` is that file's content.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.persist import NULL, read

TREE_FORMAT = "repro-cluster-tree/1"


class ChunkedMembers(SequenceABC):
    """A leaf's members as a tuple of chunk tuples, read as one sequence.

    Incremental maintenance (:mod:`repro.live.maintenance`) publishes a
    live leaf this way: a write batch rebuilds only the chunks it wrote
    and the new sequence shares every other chunk tuple with the old.
    Chunk ``c`` holds positions ``ends[c] - len(chunks[c])`` up to
    ``ends[c] - 1``; empty chunks are allowed.  It reads like the flat
    tuple (length, iteration, indexing), holds no per-member state of
    its own, and :meth:`gather` resolves many positions in one
    vectorised pass.  :meth:`flat` is the flat tuple, built on demand for
    a reader that reads the leaf often enough to make one copy worth it.
    """

    __slots__ = ("chunks", "ends", "_bounds", "_flat")

    def __init__(self, chunks: Tuple[Tuple[str, ...], ...]) -> None:
        self.chunks = chunks
        #: One past each chunk's last position.
        self.ends = tuple(accumulate(map(len, chunks)))
        #: ``ends`` and each chunk's first position as arrays, for
        #: :meth:`gather`; made by its first call.
        self._bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._flat: Optional[Tuple[str, ...]] = None

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(self.chunks)

    def __getitem__(self, index: int) -> str:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("member index out of range")
        chunk = bisect_right(self.ends, index)
        # Negative: the position counted back from the chunk's end.
        return self.chunks[chunk][index - self.ends[chunk]]

    def span(self, start: int, stop: int) -> List[str]:
        """Members ``start`` to ``stop - 1``, sliced chunk by chunk."""
        members: List[str] = []
        chunks, ends = self.chunks, self.ends
        chunk = bisect_right(ends, start)
        while start < stop:
            piece = chunks[chunk]
            offset = ends[chunk] - len(piece)
            piece = piece[start - offset:stop - offset]
            members.extend(piece)
            start += len(piece)
            chunk += 1
        return members

    def flat(self) -> Tuple[str, ...]:
        """The members as one tuple, built on the first call and kept."""
        if self._flat is None:
            self._flat = tuple(chain.from_iterable(self.chunks))
        return self._flat

    @property
    def flattened(self) -> Optional[Tuple[str, ...]]:
        """The tuple :meth:`flat` built, if a reader has asked for it."""
        return self._flat

    def gather(self, positions: np.ndarray) -> List[str]:
        """The members at ``positions`` (an int array), in that order:
        one vectorised search for their chunks, then one read each."""
        if self._bounds is None:
            ends = np.array(self.ends, dtype=np.int64)
            self._bounds = ends, ends - np.fromiter(
                map(len, self.chunks), dtype=np.int64, count=len(ends))
        ends, starts = self._bounds
        which = np.searchsorted(ends, positions, side="right")
        within = (positions - starts[which]).tolist()
        chunks = self.chunks
        return [chunks[chunk][at]
                for chunk, at in zip(which.tolist(), within)]


@dataclass
class ClusterNode:
    """One node of the cluster tree.

    Leaves carry ``member_ids`` (the element IDs of one k-means cluster,
    a tuple or, on a maintained live tree, a :class:`ChunkedMembers`)
    and the cluster ``centroid``; internal nodes carry only children.
    """

    node_id: str
    children: List["ClusterNode"] = field(default_factory=list)
    member_ids: tuple = ()
    centroid: Optional[np.ndarray] = None

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
            member_ids=tuple(payload.get("member_ids") or ()),
            centroid=None if centroid is None else np.asarray(centroid,
                                                              dtype=float),
        )


class ClusterTree:
    """A validated hierarchical (or flat) clustering of a dataset."""

    def __init__(self, root: ClusterNode) -> None:
        self.root = root
        self.validate()

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
        return tree

    @classmethod
    def flat(cls, clusters: Dict[str, Sequence[str]],
             centroids: Optional[Dict[str, np.ndarray]] = None) -> "ClusterTree":
        """Build a one-level tree: a root whose children are the clusters."""
        children = [
            ClusterNode(
                node_id=cluster_id,
                member_ids=tuple(member_ids),
                centroid=None if centroids is None else centroids.get(cluster_id),
            )
            for cluster_id, member_ids in clusters.items()
        ]
        return cls(ClusterNode(node_id="root", children=children))

    # -- accessors ---------------------------------------------------------------

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
                members = tuple(member for member in node.member_ids
                                if member in allowed_set)
                if not members:
                    return None
                return ClusterNode(node_id=node.node_id,
                                   member_ids=members,
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
