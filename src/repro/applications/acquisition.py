"""High-priority data acquisition over a union of data sources.

Section 7.1: "Another potential application is high-priority data
acquisition over a union of heterogeneous data sources for model
improvement.  The scoring function could be proximity to decision boundary,
data difficulty, etc."

Here each *data source* (a vendor feed, a crawl, a warehouse partition) is
one arm of the top-k bandit; the opaque scorer values each candidate point
for model improvement; and the answer is the budget-bounded set of points
worth acquiring.  Sources differ in quality, so the bandit concentrates
acquisition on the sources whose score distributions have fat upper tails —
without scoring every candidate in every source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import EngineConfig, TopKEngine
from repro.data.dataset import Dataset
from repro.errors import ConfigurationError
from repro.index.tree import ClusterNode, ClusterTree
from repro.scoring.base import LatencyModel, Scorer, ZeroLatency


class DataSourceUnion(Dataset):
    """A union of named data sources, each holding (id, object, features).

    Element IDs are namespaced as ``{source}/{local_id}`` so provenance is
    recoverable from any query answer.
    """

    def __init__(self) -> None:
        self._sources: Dict[str, List[str]] = {}
        self._objects: Dict[str, Any] = {}
        self._features: Dict[str, np.ndarray] = {}

    def add_source(self, name: str, local_ids: Sequence[str],
                   objects: Sequence[Any],
                   features: Optional[np.ndarray] = None) -> None:
        """Register one source's candidates.

        Every source's feature rows must have the same shape (a source
        without features gets width-1 zero rows); a mismatch is refused
        here instead of at the first query.
        """
        if name in self._sources:
            raise ConfigurationError(f"source {name!r} already registered")
        if "/" in name:
            raise ConfigurationError("source names must not contain '/'")
        if len(local_ids) != len(objects):
            raise ConfigurationError(
                f"{len(local_ids)} ids for {len(objects)} objects"
            )
        if not local_ids:
            raise ConfigurationError(f"source {name!r} is empty")
        namespaced = [f"{name}/{local}" for local in local_ids]
        seen = set()
        for element_id in namespaced:
            if element_id in seen:
                raise ConfigurationError(f"duplicate id {element_id!r}")
            seen.add(element_id)
        if features is None:
            feature_rows = [np.zeros(1) for _ in namespaced]
        else:
            features = np.asarray(features, dtype=float)
            if len(features) != len(namespaced):
                raise ConfigurationError("features misaligned with ids")
            feature_rows = list(features)
        if self._sources:
            first = next(iter(self._sources.values()))[0]
            shape, expected = (np.shape(feature_rows[0]),
                               self._features[first].shape)
            if shape != expected:
                raise ConfigurationError(
                    f"source {name!r} has feature rows of shape {shape}, "
                    f"the union's are {expected}"
                )
        for element_id, obj, row in zip(namespaced, objects, feature_rows):
            self._objects[element_id] = obj
            self._features[element_id] = np.asarray(row, dtype=float)
        self._sources[name] = namespaced

    @property
    def source_names(self) -> List[str]:
        """Registered source names."""
        return list(self._sources)

    def ids(self) -> List[str]:
        return [eid for ids in self._sources.values() for eid in ids]

    def fetch(self, element_id: str) -> Any:
        try:
            return self._objects[element_id]
        except KeyError:
            raise ConfigurationError(f"unknown element id {element_id!r}") from None

    def features(self) -> np.ndarray:
        return np.stack([self._features[eid] for eid in self.ids()])

    def source_of(self, element_id: str) -> str:
        """Provenance: the source a (namespaced) element came from."""
        return element_id.split("/", 1)[0]

    def as_cluster_tree(self) -> ClusterTree:
        """One bandit arm per source (a flat index over the union)."""
        if not self._sources:
            raise ConfigurationError("no sources registered")
        children = [
            ClusterNode(f"source-{name}", member_ids=tuple(ids))
            for name, ids in self._sources.items()
        ]
        return ClusterTree(ClusterNode("root", children=children))


class UncertaintyScorer(Scorer):
    """Acquisition value = proximity to a binary model's decision boundary.

    ``score(x) = 1 - |2 P(y=1|x) - 1|`` — maximal (1.0) on the boundary,
    zero where the model is already certain.  Any model exposing
    ``predict_proba(matrix) -> (n,)`` or ``(n, 2)`` works (e.g.
    :class:`repro.scoring.linear.LogisticRegressionModel`).
    """

    def __init__(self, model: Any, latency: LatencyModel | None = None) -> None:
        self.model = model
        self.latency = latency or ZeroLatency()

    def _proba(self, matrix: np.ndarray) -> np.ndarray:
        probs = np.asarray(self.model.predict_proba(matrix), dtype=float)
        if probs.ndim == 2:
            probs = probs[:, -1]
        return probs

    def score(self, obj: Any) -> float:
        matrix = np.asarray(obj, dtype=float).reshape(1, -1)
        return float(1.0 - abs(2.0 * self._proba(matrix)[0] - 1.0))

    def score_batch(self, objects: Sequence[Any]) -> np.ndarray:
        matrix = np.stack([np.asarray(obj, dtype=float).ravel()
                           for obj in objects])
        return 1.0 - np.abs(2.0 * self._proba(matrix) - 1.0)


@dataclass
class AcquisitionReport:
    """Outcome of one acquisition round."""

    acquired_ids: List[str]
    scores: List[float]
    per_source_counts: Dict[str, int]
    n_scored: int

    def summary(self) -> str:
        sources = ", ".join(
            f"{name}: {count}"
            for name, count in sorted(self.per_source_counts.items())
        )
        return (
            f"acquired {len(self.acquired_ids)} points after scoring "
            f"{self.n_scored} candidates ({sources})"
        )


def acquire_topk(union: DataSourceUnion, scorer: Scorer, k: int,
                 budget: int, seed: Optional[int] = None,
                 config: Optional[EngineConfig] = None) -> AcquisitionReport:
    """Select the ``k`` most valuable points from the union within budget.

    Runs the top-k bandit with one arm per source; returns the acquired
    points with per-source provenance counts.
    """
    if config is None:
        config = EngineConfig(k=k, seed=seed)
    elif config.k != k:
        raise ConfigurationError("config.k must match k")
    engine = TopKEngine(union.as_cluster_tree(), config)
    result = engine.run(union, scorer, budget=budget)
    counts: Dict[str, int] = {name: 0 for name in union.source_names}
    for element_id in result.ids:
        counts[union.source_of(element_id)] += 1
    return AcquisitionReport(
        acquired_ids=result.ids,
        scores=result.scores,
        per_source_counts=counts,
        n_scored=result.n_scored,
    )
