"""Cluster tree (dendrogram) structure with JSON persistence.

The paper assumes the index fits into memory and persists it as "a simple
JSON file" (Section 3.2.6).  :class:`ClusterTree` is the in-memory form: an
arbitrary-fanout tree whose leaves own disjoint sets of element IDs and
whose internal nodes group similar leaves (built from the HAC dendrogram).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import IndexError_, SerializationError


@dataclass
class ClusterNode:
    """One node of the cluster tree.

    Leaves carry ``member_ids`` (the element IDs of one k-means cluster) and
    the cluster ``centroid``; internal nodes carry only children.
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
        try:
            node_id = str(payload["node_id"])
        except (KeyError, TypeError) as exc:
            raise SerializationError(f"malformed cluster node: {exc}") from exc
        children_payload = payload.get("children", [])
        children = [cls.from_dict(child) for child in children_payload]
        centroid_payload = payload.get("centroid")
        centroid = (
            np.asarray(centroid_payload, dtype=float)
            if centroid_payload is not None
            else None
        )
        return cls(
            node_id=node_id,
            children=children,
            member_ids=tuple(payload.get("member_ids", ())),
            centroid=centroid,
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
        """
        seen_nodes: set[str] = set()
        seen_members: set[str] = set()
        for node in self.root.iter_nodes():
            if node.node_id in seen_nodes:
                raise IndexError_(f"duplicate node id {node.node_id!r}")
            seen_nodes.add(node.node_id)
            self._check_shape(node)
            for member in node.member_ids:
                if member in seen_members:
                    raise IndexError_(
                        f"element {member!r} appears in multiple leaves"
                    )
                seen_members.add(member)

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

    def to_json(self, path: str | Path | None = None, *, indent: int | None = None
                ) -> str:
        """Serialize to JSON; optionally also write to ``path``."""
        text = json.dumps({"format": "repro-cluster-tree/1", "root": self.root.to_dict()},
                          indent=indent)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "ClusterTree":
        """Load a tree from a JSON string or file path."""
        text: str
        candidate = Path(str(source))
        try:
            is_file = candidate.is_file()
        except OSError:
            is_file = False
        text = candidate.read_text(encoding="utf-8") if is_file else str(source)
        try:
            payload = json.loads(text)
            root_payload = payload["root"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise SerializationError(f"malformed cluster-tree JSON: {exc}") from exc
        return cls(ClusterNode.from_dict(root_payload))

    def __repr__(self) -> str:
        return (
            f"ClusterTree(leaves={self.n_leaves()}, elements={self.n_elements()}, "
            f"depth={self.depth()})"
        )
