"""Synthetic normal-mixture dataset — Section 5.1.2 (1) of the paper.

"We randomly generate L normal distributions with mu in [0, 20] and sigma in
(0, 5].  We then draw a fixed number of samples from each distribution,
which then serves as the leaf clusters of the index.  We build the
dendrogram over the means of each cluster.  There are 20 clusters and 2,500
samples per cluster."  The scoring function is ReLU, so elements are the raw
values themselves.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.data.dataset import InMemoryDataset
from repro.errors import ConfigurationError
from repro.index.hac import Linkage, agglomerate, merges_to_children
from repro.index.tree import ClusterNode, ClusterTree
from repro.utils.rng import SeedLike, as_generator


class SyntheticClustersDataset(InMemoryDataset):
    """Scalar elements drawn from L random normal distributions."""

    def __init__(self, ids: List[str], values: np.ndarray,
                 cluster_of: Dict[str, int], means: np.ndarray,
                 sigmas: np.ndarray) -> None:
        super().__init__(ids, list(values), values.reshape(-1, 1))
        self.cluster_of = cluster_of
        self.means = means
        self.sigmas = sigmas

    @classmethod
    def generate(cls, n_clusters: int = 20, per_cluster: int = 2500,
                 mu_range: Tuple[float, float] = (0.0, 20.0),
                 sigma_range: Tuple[float, float] = (0.0, 5.0),
                 rng: SeedLike = None) -> "SyntheticClustersDataset":
        """Draw the paper's synthetic workload (defaults match Section 5.2)."""
        if n_clusters <= 0 or per_cluster <= 0:
            raise ConfigurationError("n_clusters and per_cluster must be positive")
        generator = as_generator(rng)
        means = generator.uniform(mu_range[0], mu_range[1], size=n_clusters)
        # sigma in (0, high]: sample the open-low/closed-high interval.
        low, high = sigma_range
        sigmas = high - generator.uniform(0.0, high - low, size=n_clusters) * (
            1.0 - 1e-9
        )
        ids: List[str] = []
        values: List[float] = []
        cluster_of: Dict[str, int] = {}
        for cluster in range(n_clusters):
            draws = generator.normal(means[cluster], sigmas[cluster],
                                     size=per_cluster)
            for i, value in enumerate(draws):
                element_id = f"c{cluster:03d}-{i:05d}"
                ids.append(element_id)
                values.append(float(value))
                cluster_of[element_id] = cluster
        return cls(ids, np.asarray(values, dtype=float), cluster_of, means,
                   sigmas)

    @property
    def n_clusters(self) -> int:
        """Number of generating distributions L."""
        return len(self.means)

    def true_index(self, linkage: Linkage | str = Linkage.AVERAGE) -> ClusterTree:
        """The paper's index for this dataset: true clusters + mean dendrogram.

        The generating clusters serve directly as the leaf clusters, and the
        dendrogram is built by HAC over the cluster means.
        """
        members: Dict[int, List[str]] = {c: [] for c in range(self.n_clusters)}
        for element_id in self.ids():
            members[self.cluster_of[element_id]].append(element_id)
        leaves = {
            cluster: ClusterNode(
                node_id=f"leaf-{cluster}",
                member_ids=tuple(ids),
                centroid=np.asarray([self.means[cluster]]),
            )
            for cluster, ids in members.items()
        }
        if self.n_clusters == 1:
            return ClusterTree(
                ClusterNode(node_id="root", children=[leaves[0]])
            )
        merges = agglomerate(self.means.reshape(-1, 1), linkage)
        children_map = merges_to_children(self.n_clusters, merges)
        built: Dict[int, ClusterNode] = dict(leaves)
        for internal_id in sorted(children_map):
            left, right = children_map[internal_id]
            built[internal_id] = ClusterNode(
                node_id=f"internal-{internal_id}",
                children=[built[left], built[right]],
            )
        top = built[max(built)]
        root_children = list(top.children) if not top.is_leaf else [top]
        return ClusterTree(ClusterNode(node_id="root", children=root_children))
