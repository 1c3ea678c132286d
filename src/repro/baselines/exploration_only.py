"""ExplorationOnly baseline (Section 5.1.1 (3)).

"A bandit which chooses a uniformly random non-empty child in each layer of
the index."  Note this is *not* uniform over elements: shallow leaves and
low-fanout subtrees are over-sampled, which is exactly why it sometimes
shines on the UsedCars workload (Section 5.3's analysis).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.baselines.base import SamplingAlgorithm
from repro.core.bandit import BanditConfig
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.errors import ExhaustedError
from repro.index.tree import ClusterTree
from repro.utils.rng import SeedLike


class ExplorationOnly(SamplingAlgorithm):
    """Uniform-random root-to-leaf descent over the tree index."""

    name = "ExplorationOnly"

    def __init__(self, index: ClusterTree, batch_size: int = 1,
                 rng: SeedLike = None) -> None:
        # The hierarchical policy at a permanent epsilon of 1.0.
        self._policy = HierarchicalBanditPolicy(
            index, BanditConfig(), rng=rng, enable_subtraction=False
        )
        self.batch_size = max(1, int(batch_size))

    def next_batch(self) -> List[str]:
        if self._policy.exhausted:
            raise ExhaustedError("ExplorationOnly exhausted")
        return self._policy.select(self.batch_size, epsilon=1.0)

    def observe(self, ids: Sequence[str], scores: Sequence[float]) -> None:
        # The histograms are never consulted, so fold no scores; the call
        # still drops the leaf if the draw ran it dry.
        self._policy.update((), None)

    @property
    def exhausted(self) -> bool:
        return self._policy.exhausted
