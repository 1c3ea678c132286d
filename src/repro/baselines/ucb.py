"""UCB baseline (Section 5.1.1 (2)).

"A standard upper confidence bound (UCB) bandit algorithm combined with the
index of Section 3.2.2.  We set the exploration parameter as 1.0 and
initialize the mean using query-specific prior knowledge."

UCB1 runs over each layer of the same tree index, but its statistic is the
*mean* observed score — exactly the mismatch the paper analyzes: maximizing
expected per-sample reward favours high-mean/low-variance arms, which stops
improving the running top-k once the threshold passes those means.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Iterable, List, Sequence

from repro.baselines.base import SamplingAlgorithm
from repro.core.bandit import BanditConfig
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.errors import ExhaustedError
from repro.index.tree import ClusterTree
from repro.utils.rng import RngFactory, SeedLike


class _MeanStat:
    """UCB's per-node statistic: running mean and visit count.

    Stands where the hierarchical policy keeps a node's histogram
    (``BanditConfig.sketch_factory``); the policy only ever feeds it
    through ``add`` (one score) and ``add_batch`` (several).
    """

    __slots__ = ("visits", "mean")

    def __init__(self, prior_mean: float) -> None:
        self.visits = 0
        self.mean = prior_mean

    def add(self, score: float) -> None:
        self.visits += 1
        self.mean += (float(score) - self.mean) / self.visits

    def add_batch(self, scores: Iterable[float]) -> None:
        for score in scores:
            self.add(score)


class UCBBandit(SamplingAlgorithm):
    """UCB1 per tree layer with prior-initialized means.

    Descent, draws, the path update and the empty-leaf drop are the
    hierarchical policy's
    (:class:`~repro.core.hierarchical.HierarchicalBanditPolicy`, exactly
    as :class:`~repro.baselines.exploration_only.ExplorationOnly` reuses
    them); only the child-choice rule below is UCB's own.

    Parameters
    ----------
    index:
        The same cluster tree the engine uses.
    exploration:
        UCB exploration constant ``c`` (paper: 1.0).
    prior_mean:
        Query-specific prior used as each node's mean before any visit.
    """

    name = "UCB"

    def __init__(self, index: ClusterTree, batch_size: int = 1,
                 exploration: float = 1.0, prior_mean: float = 0.0,
                 rng: SeedLike = None) -> None:
        factory = RngFactory(rng)
        self._rng = factory.named("ucb")
        self.exploration = float(exploration)
        self.prior_mean = float(prior_mean)
        self.batch_size = max(1, int(batch_size))
        # Same root entropy => the policy's leaf arms draw from the same
        # ``arm:<id>`` streams this class always used.
        self._policy = HierarchicalBanditPolicy(
            index,
            BanditConfig(
                sketch_factory=partial(_MeanStat, self.prior_mean)),
            rng=factory.root_entropy, enable_subtraction=False,
        )
        self.t = 0

    def _ucb_value(self, stat: _MeanStat, parent_visits: int) -> float:
        if stat.visits == 0:
            return math.inf
        bonus = self.exploration * math.sqrt(
            2.0 * math.log(max(parent_visits, 2)) / stat.visits
        )
        return stat.mean + bonus

    def _choose_child(self, parent: _MeanStat,
                      children: Sequence[_MeanStat]) -> int:
        parent_visits = max(parent.visits, 1)
        values = [self._ucb_value(stat, parent_visits) for stat in children]
        best = max(values)
        tied = [position for position, value in enumerate(values)
                if value >= best - 1e-15]
        if len(tied) == 1:
            return tied[0]
        return tied[int(self._rng.integers(len(tied)))]

    def next_batch(self) -> List[str]:
        if self.exhausted:
            raise ExhaustedError("UCB exhausted")
        self.t += 1
        return self._policy.select(self.batch_size, choose=self._choose_child)

    def observe(self, ids: Sequence[str], scores: Sequence[float]) -> None:
        self._policy.update(scores, None, enable_rebinning=False)

    @property
    def exhausted(self) -> bool:
        return self._policy.exhausted
