"""Theoretical variant of the bandit — Section 3.1 of the paper.

The analysis-friendly setting: the scoring domain is a finite set of
non-negative integers, each arm is a probability mass function over that
domain, and the agent draws scores directly.  The bandit keeps exact
per-outcome counters ``N_{l,x}`` and exploits via Equation 3:

``argmax_l  sum_x (N_{l,x} / N_l) * max(x - (S_{t-1})_(k), 0)``

This variant backs the regret-bound sanity benchmarks (Theorem 4.4): on
discrete domains its expected STK approaches ``(1 - e^{-1-1/2T}) OPT``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.core.policies import ExplorationSchedule, PolynomialDecay
from repro.core.stk import TopKBuffer
from repro.errors import ConfigurationError, ExhaustedError
from repro.utils.rng import SeedLike, as_generator


class DiscreteArm:
    """A known-support, unknown-probability arm over non-negative integers.

    Parameters
    ----------
    arm_id:
        Stable identifier.
    support:
        The outcome values (non-negative integers).
    probabilities:
        Outcome probabilities (same length as ``support``; must sum to 1).
    """

    def __init__(self, arm_id: str, support: Sequence[int],
                 probabilities: Sequence[float]) -> None:
        if len(support) != len(probabilities) or not support:
            raise ConfigurationError("support/probabilities must align and be non-empty")
        support_arr = np.asarray(support, dtype=int)
        probs = np.asarray(probabilities, dtype=float)
        if (support_arr < 0).any():
            raise ConfigurationError("discrete domain must be non-negative integers")
        if (probs < 0).any() or not np.isclose(probs.sum(), 1.0, atol=1e-8):
            raise ConfigurationError("probabilities must be non-negative and sum to 1")
        self.arm_id = arm_id
        self.support = support_arr
        self.probabilities = probs / probs.sum()

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one outcome i.i.d. from the arm's distribution."""
        return int(rng.choice(self.support, p=self.probabilities))

    def exact_marginal_gain(self, threshold: float | None) -> float:
        """Ground-truth ``E[Delta]`` for a known distribution (Eq. 2)."""
        if threshold is None:
            return float(np.dot(self.probabilities, self.support))
        excess = np.maximum(self.support - threshold, 0.0)
        return float(np.dot(self.probabilities, excess))

    def mean(self) -> float:
        """Expected outcome value."""
        return float(np.dot(self.probabilities, self.support))


class DiscreteTopKBandit:
    """Exact-counter epsilon-greedy bandit of Section 3.1.

    Maintains visit counts ``N_l`` and outcome counts ``N_{l,x}`` per arm and
    exploits using the empirical version of Equation 3.  Arms are sampled
    i.i.d. (with replacement), matching Definition 2.2.
    """

    def __init__(self, arms: Iterable[DiscreteArm], k: int,
                 exploration: ExplorationSchedule | None = None,
                 rng: SeedLike = None) -> None:
        self.arms: Dict[str, DiscreteArm] = {}
        for arm in arms:
            if arm.arm_id in self.arms:
                raise ConfigurationError(f"duplicate arm id {arm.arm_id!r}")
            self.arms[arm.arm_id] = arm
        if not self.arms:
            raise ConfigurationError("bandit requires at least one arm")
        self.exploration = exploration or PolynomialDecay()
        self._rng = as_generator(rng)
        self.buffer: TopKBuffer[str] = TopKBuffer(k)
        self.visits: Dict[str, int] = {arm_id: 0 for arm_id in self.arms}
        self.outcome_counts: Dict[str, Counter] = {
            arm_id: Counter() for arm_id in self.arms
        }
        self.t = 0
        self.n_explore = 0

    @property
    def stk(self) -> float:
        """Sum-of-Top-k of the scores held so far (the buffer's exact sum)."""
        return self.buffer.stk

    def empirical_gain(self, arm_id: str, threshold: float | None) -> float:
        """Empirical ``E[Delta_{t,l}]`` from the exact counters (Eq. 3)."""
        visits = self.visits[arm_id]
        if visits == 0:
            return 0.0
        counts = self.outcome_counts[arm_id]
        if threshold is None:
            return sum(count * outcome for outcome, count in counts.items()) / visits
        total = 0.0
        for outcome, count in counts.items():
            if outcome > threshold:
                total += count * (outcome - threshold)
        return total / visits

    def greedy_arm(self) -> str:
        """Empirically best arm under Equation 3, ties broken at random."""
        threshold = self.buffer.threshold
        gains = {
            arm_id: self.empirical_gain(arm_id, threshold) for arm_id in self.arms
        }
        best = max(gains.values())
        tied = [arm_id for arm_id, gain in gains.items() if gain >= best - 1e-15]
        return tied[int(self._rng.integers(len(tied)))]

    def step(self) -> float:
        """Run one iteration; return the realized marginal gain."""
        self.t += 1
        arm_ids = list(self.arms)
        if self._rng.random() < self.exploration.rate(self.t):
            self.n_explore += 1
            arm_id = arm_ids[int(self._rng.integers(len(arm_ids)))]
        else:
            arm_id = self.greedy_arm()
        outcome = self.arms[arm_id].sample(self._rng)
        self.visits[arm_id] += 1
        self.outcome_counts[arm_id][outcome] += 1
        return self.buffer.offer(float(outcome), arm_id)

    def run(self, budget: int) -> TopKBuffer[str]:
        """Run ``budget`` iterations and return the solution buffer."""
        for _ in range(budget):
            self.step()
        return self.buffer
