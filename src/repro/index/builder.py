"""Index construction pipeline (Section 3.2.2).

``build_index`` runs the paper's three phases — vectorization is assumed to
have already produced a feature matrix — over a dataset: (1) optionally
subsample for clustering ("we take a subsample for clustering if the dataset
is large"), (2) k-means over the vectors, assigning *all* elements to their
closest centroid (one leaf per populated cluster, members in ascending row
order), and (3) HAC with average linkage over the populated centroids to
form a dendrogram whose leaves are the k-means clusters — skipped for a flat
index or a single populated cluster.  Non-finite features are refused.

The feature matrix may be given as a block and the row of each element in
it (``rows``): a live table's snapshot hands over its storage that way, and
its churn rebuild reads the live rows in place (:class:`~repro.index.kmeans.Rows`)
instead of gathering them into an aligned copy first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.index.hac import Linkage, agglomerate, merges_to_children
from repro.index.kmeans import KMeans, Rows, rows_by_label
from repro.index.tree import (ClusterNode, ClusterTree, LeafMembers,
                              int_array)
from repro.utils.rng import SeedLike, as_generator


@dataclass
class IndexConfig:
    """Knobs of the index builder.

    Attributes
    ----------
    n_clusters:
        Number of k-means leaf clusters ``L``.
    subsample:
        If set and smaller than ``n``, fit k-means on this many uniformly
        sampled rows and then assign everything (paper: 100k of 320k images).
    linkage:
        HAC linkage for the dendrogram (paper default: average).
    max_kmeans_iter:
        Lloyd sweep cap.
    flat:
        If True, skip the dendrogram and emit a one-level index.
    """

    n_clusters: int
    subsample: Optional[int] = None
    linkage: Linkage | str = Linkage.AVERAGE
    max_kmeans_iter: int = 50
    flat: bool = False


def index_config_for(n: int, config: Optional[IndexConfig] = None, *,
                     cap: int = 64) -> IndexConfig:
    """The index configuration for ``n`` rows: ``config``, sized to fit.

    The one statement of the default sizing policy — a leaf per ~50 rows,
    at least 2 and at most ``cap`` (64 for a table, 32 for one shard of
    it) — and of the clamp that keeps any configuration buildable when
    the rows are fewer than its clusters (a small shard, a live table
    that shrank).
    """
    if config is None:
        config = IndexConfig(n_clusters=max(2, min(cap, n // 50)))
    if config.n_clusters > n:
        config = replace(config, n_clusters=max(1, n))
    return config


def build_index(features: np.ndarray, ids: Sequence[str], config: IndexConfig,
                rng: SeedLike = None, *,
                rows: Optional[np.ndarray] = None) -> ClusterTree:
    """Build the hierarchical cluster index over ``features``.

    Parameters
    ----------
    features:
        ``(n, d)`` cheap vector representations (see
        :mod:`repro.index.vectorize`).
    ids:
        Element IDs aligned with ``features`` rows.
    config:
        Builder configuration.
    rng:
        Seed or generator (controls subsampling and k-means init).
    rows:
        Optional row numbers into ``features``: element ``ids[i]``'s
        vector is ``features[rows[i]]``.  The tree is the one built over
        ``features[rows]``, without that copy being made.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ConfigurationError(f"features must be (n, d), got {features.shape}")
    points = Rows(features, None if rows is None
                  else np.asarray(rows, dtype=np.intp))
    n = len(points)
    if n != len(ids):
        raise ConfigurationError(f"{len(ids)} ids for {n} feature rows")
    if config.n_clusters > n:
        raise ConfigurationError(
            f"n_clusters={config.n_clusters} exceeds n={n}"
        )
    points.check_finite(ids)
    generator = as_generator(rng)

    # Phase 1-2: k-means (optionally fit on a subsample, assign everything).
    kmeans = KMeans(config.n_clusters, max_iter=config.max_kmeans_iter,
                    rng=generator)
    if config.subsample is not None and config.subsample < n:
        sample_rows = generator.choice(n, size=config.subsample,
                                       replace=False)
        kmeans.fit(points[sample_rows])
        labels = kmeans.predict(points)
    else:
        labels = kmeans.fit_predict(points)
    centroids = kmeans.centroids_
    assert centroids is not None

    # Drop clusters that received no members during full assignment.
    # Every leaf's slots index one shared tuple of the ids.
    names = tuple(ids.astype(object) if isinstance(ids, np.ndarray) else ids)
    leaf_nodes: Dict[int, ClusterNode] = {
        label: ClusterNode(
            node_id=f"leaf-{label}",
            member_ids=LeafMembers(int_array(rows), names),
            centroid=centroids[label].copy(),
        )
        for label, rows in enumerate(rows_by_label(labels, config.n_clusters))
        if len(rows)
    }
    populated = list(leaf_nodes)

    if config.flat or len(populated) == 1:
        root = ClusterNode(node_id="root",
                           children=[leaf_nodes[label] for label in populated])
        return ClusterTree(root)

    # Phase 3: HAC dendrogram over the populated centroids.
    centroid_matrix = np.stack([centroids[label] for label in populated])
    merges = agglomerate(centroid_matrix, config.linkage)
    children_map = merges_to_children(len(populated), merges)

    # HAC ids: 0..L-1 are leaves (positions into ``populated``); internal ids
    # follow.  Build ClusterNodes bottom-up.
    built: Dict[int, ClusterNode] = {
        position: leaf_nodes[label] for position, label in enumerate(populated)
    }
    for internal_id in sorted(children_map):
        left, right = children_map[internal_id]
        built[internal_id] = ClusterNode(
            node_id=f"internal-{internal_id}",
            children=[built[left], built[right]],
        )
    # Collapse the redundant single-child root layer.
    top = built[max(built)]
    root = ClusterNode(node_id="root", children=list(top.children)) \
        if not top.is_leaf else ClusterNode(node_id="root", children=[top])
    return ClusterTree(root)
