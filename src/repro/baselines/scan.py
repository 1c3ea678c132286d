"""Scan baselines (Section 5.1.1 (5) and (6)).

* :class:`ScanBest` / :class:`ScanWorst` — "scan over the domain where the
  elements are sorted in the best-case or worst-case order.  This is meant
  to demonstrate theoretical limits."  They require ground-truth scores and
  exist purely as bounds.
* :class:`SortedScan` — "scan over an in-memory sorted index built on a new
  column that contains pre-computed UDF function values.  SortedScan skips
  scoring function evaluation and priority queue maintenance."  Its UDF cost
  is paid entirely at index-construction time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.baselines.base import _OrderedScan
from repro.errors import ConfigurationError


def _order_by_score(ids: Sequence[str], scores_by_id: Dict[str, float],
                    descending: bool) -> List[str]:
    missing = [element_id for element_id in ids if element_id not in scores_by_id]
    if missing:
        raise ConfigurationError(
            f"scores missing for {len(missing)} ids (e.g. {missing[0]!r})"
        )
    return sorted(ids, key=lambda element_id: scores_by_id[element_id],
                  reverse=descending)


class ScanBest(_OrderedScan):
    """Theoretical best-case scan: elements visited in descending true score."""

    name = "ScanBest"

    def __init__(self, ids: Sequence[str], scores_by_id: Dict[str, float],
                 batch_size: int = 1) -> None:
        super().__init__(_order_by_score(ids, scores_by_id, descending=True),
                         batch_size)


class ScanWorst(_OrderedScan):
    """Theoretical worst-case scan: elements visited in ascending true score."""

    name = "ScanWorst"

    def __init__(self, ids: Sequence[str], scores_by_id: Dict[str, float],
                 batch_size: int = 1) -> None:
        super().__init__(_order_by_score(ids, scores_by_id, descending=False),
                         batch_size)


class SortedScan(_OrderedScan):
    """Scan of a pre-computed sorted score index.

    All UDF evaluations happen at *index construction* (``precompute_cost``
    seconds, charged by the harness to the build phase); query-time batches
    are free, so ``charges_scoring`` is False.
    """

    name = "SortedScan"
    charges_scoring = False

    def __init__(self, ids: Sequence[str], scores_by_id: Dict[str, float],
                 batch_size: int = 1, precompute_cost: float = 0.0) -> None:
        super().__init__(_order_by_score(ids, scores_by_id, descending=True),
                         batch_size)
        self.precompute_cost = float(precompute_cost)
