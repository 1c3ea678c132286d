"""Exhaustive ground truth for evaluating approximate answers.

Extrinsic metrics (Precision@K) and the theoretical-limit baselines
(ScanBest, ScanWorst, SortedScan) need every element's true score.  The
harness computes them once per (dataset, scorer) pair — this corresponds to
the paper's exhaustive reference runs — and reuses them across algorithms
and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.core.stk import stk
from repro.errors import ConfigurationError
from repro.utils.validation import check_scores


@dataclass
class GroundTruth:
    """All true scores of a dataset under one scoring function."""

    ids: List[str]
    scores: np.ndarray

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.scores):
            raise ConfigurationError("ids and scores must align")
        self.score_of: Dict[str, float] = {
            element_id: float(score)
            for element_id, score in zip(self.ids, self.scores)
        }
        self._order = np.argsort(self.scores)[::-1]

    def kth_score(self, k: int) -> float:
        """The k-th largest true score (ties included)."""
        k = min(k, len(self.ids))
        return float(self.scores[self._order[k - 1]])

    def topk_ids(self, k: int) -> Set[str]:
        """IDs of the exact top-k answer (arbitrary tie resolution)."""
        return {self.ids[row] for row in self._order[: min(k, len(self.ids))]}

    def optimal_stk(self, k: int) -> float:
        """STK of the exact answer — the quality ceiling of every figure.

        The same exact sum as every engine's ``stk``, so a run that holds
        the true top-k reports exactly this float.
        """
        return stk(self.scores[self._order[:k]].tolist(), k)


def compute_ground_truth(dataset, scorer, batch_size: int = 1024) -> GroundTruth:
    """Score every element of ``dataset`` once (no latency accounting)."""
    ids = dataset.ids()
    scores = np.empty(len(ids), dtype=float)
    for start in range(0, len(ids), batch_size):
        chunk = ids[start : start + batch_size]
        objects = dataset.fetch_batch(chunk)
        scores[start : start + len(chunk)] = scorer.score_batch(objects)
    check_scores(scores.tolist())
    return GroundTruth(list(ids), scores)
