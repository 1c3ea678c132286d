"""Known-distribution oracles — the algorithm classes of Figure 2.

The paper situates its bandit among three classes (Section 1.2, Section 4):

* **Offline optimal** — the best-case scan when the insertion order is
  ideal (:func:`offline_optimal_curve`).
* **Adaptive** — changes behaviour based on sample realizations; with known
  distributions, adaptive greedy picks ``argmax_l E[Delta_{t,l}]`` each
  iteration and achieves ``(1 - 1/e)``-approximation (Corollary 4.3,
  :func:`adaptive_greedy_known`).
* **Non-adaptive** — commits to a budget allocation up front; the greedy
  allocation maximizes the ``BS`` objective of Section 4.1 via Monte-Carlo
  marginal-value estimates (:func:`nonadaptive_greedy_allocation`).

These oracles operate directly on :class:`~repro.core.discrete.DiscreteArm`
distributions — no dataset needed — and back both Figure 2 and the
Theorem 4.4 regret-sanity benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.discrete import DiscreteArm
from repro.core.stk import TopKBuffer, stk
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator


def offline_optimal_curve(arms: Sequence[DiscreteArm], k: int, budget: int,
                          rng: SeedLike = None) -> np.ndarray:
    """Upper-bound STK-vs-iteration curve of the ideal-insertion-order scan.

    Realizes a full i.i.d. tape of ``budget`` draws *per arm* (the most any
    algorithm with total budget T could ever read from one arm), pools all
    tapes, and inserts the pooled values in descending order.  Any online or
    adaptive algorithm reading prefixes of the same tapes is dominated by
    this curve pointwise, so it plays the role of ScanBest in Figure 2.
    """
    generator = as_generator(rng)
    per_arm = max(1, budget)
    realized: List[float] = []
    for arm in arms:
        realized.extend(
            float(value)
            for value in generator.choice(arm.support, size=per_arm,
                                          p=arm.probabilities)
        )
    realized.sort(reverse=True)
    realized = realized[:budget]
    curve = np.empty(len(realized), dtype=float)
    buffer: TopKBuffer[None] = TopKBuffer(k)
    for i, value in enumerate(realized):
        buffer.offer(value)
        curve[i] = buffer.stk
    return curve


def adaptive_greedy_known(arms: Sequence[DiscreteArm], k: int, budget: int,
                          rng: SeedLike = None) -> np.ndarray:
    """STK trajectory of adaptive greedy with fully known distributions.

    Each iteration evaluates the *exact* expected marginal gain of every arm
    against the current threshold and samples the argmax — the
    ``(1 - 1/e)``-approximate algorithm of Corollary 4.3.
    """
    if not arms:
        raise ConfigurationError("need at least one arm")
    generator = as_generator(rng)
    buffer: TopKBuffer[str] = TopKBuffer(k)
    curve = np.empty(budget, dtype=float)
    for t in range(budget):
        threshold = buffer.threshold
        gains = [arm.exact_marginal_gain(threshold) for arm in arms]
        best = int(np.argmax(gains))
        value = arms[best].sample(generator)
        buffer.offer(float(value), arms[best].arm_id)
        curve[t] = buffer.stk
    return curve


def simulate_allocation(arms: Sequence[DiscreteArm], allocation: Sequence[int],
                        k: int, rng: SeedLike = None) -> float:
    """One Monte-Carlo realization of ``STK(S_r)`` for a budget allocation.

    Implements Procedure 4.1: sample arm ``l`` exactly ``allocation[l]``
    times, pool all scores, return the STK of the pool.
    """
    if len(allocation) != len(arms):
        raise ConfigurationError("allocation length must match arm count")
    generator = as_generator(rng)
    pool: List[float] = []
    for arm, count in zip(arms, allocation):
        if count < 0:
            raise ConfigurationError("allocation entries must be non-negative")
        if count:
            pool.extend(
                float(v)
                for v in generator.choice(arm.support, size=count,
                                          p=arm.probabilities)
            )
    return stk(pool, k)


def estimate_bs(arms: Sequence[DiscreteArm], allocation: Sequence[int], k: int,
                n_simulations: int = 64, rng: SeedLike = None) -> float:
    """Monte-Carlo estimate of ``BS(X) = E[STK(S_r)]`` (Equation 11)."""
    generator = as_generator(rng)
    values = [
        simulate_allocation(arms, allocation, k, generator)
        for _ in range(n_simulations)
    ]
    return float(np.mean(values))


def nonadaptive_greedy_allocation(arms: Sequence[DiscreteArm], k: int,
                                  budget: int, n_simulations: int = 64,
                                  rng: SeedLike = None) -> List[int]:
    """Greedy non-adaptive budget allocation maximizing estimated ``BS``.

    Because ``BS`` is monotone DR-submodular (Theorem 4.2), greedily adding
    one unit of budget to the arm with the largest estimated marginal value
    is a principled non-adaptive strategy.  Marginal values are estimated by
    Monte-Carlo (the paper notes a first-principles computation "incurs too
    much overhead" — this is the practical estimator).
    """
    generator = as_generator(rng)
    allocation = [0] * len(arms)
    current_value = 0.0
    for _unit in range(budget):
        best_arm = -1
        best_value = -np.inf
        for index in range(len(arms)):
            allocation[index] += 1
            value = estimate_bs(arms, allocation, k, n_simulations, generator)
            allocation[index] -= 1
            if value > best_value:
                best_value = value
                best_arm = index
        allocation[best_arm] += 1
        current_value = best_value
    return allocation
