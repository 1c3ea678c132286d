"""Fallback strategies — Section 3.2.3 of the paper.

Two failure modes of the index are monitored after a warmup period (30% of
the dataset, so the histogram sketches are reasonably accurate) and then
every ``F * n`` processed elements:

* **Tree fallback** — the tree is ineffective when the globally greedy leaf
  is *not* the leaf a greedy-only descent reaches (a good arm hides in the
  same subtree as bad arms).  Remedy: flatten the index, preserving the
  clustering.
* **Clustering fallback** — the clustering is ineffective when greedy
  exploitation yields a lower STK-versus-time slope than uniform sampling:

  ``slope_bandit  = max_l E[Delta_{t,l}] / (scoring latency + bandit latency)``
  ``slope_sample  = sum_l |D_l| E[Delta_{t,l}] / (sum_l |D_l| * scoring latency)``

  Remedy: shuffle all remaining elements and scan (uniform sampling, which
  suits the anytime query model better than a linear scan).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.utils.validation import check_fraction


class FallbackDecision(str, enum.Enum):
    """Outcome of one periodic fallback check."""

    NONE = "none"
    FLATTEN_TREE = "flatten_tree"
    UNIFORM_SCAN = "uniform_scan"


@dataclass
class FallbackConfig:
    """Fallback policy knobs (paper defaults).

    Attributes
    ----------
    enabled:
        Master switch (the paper's "no fallback" ablation sets this False).
    warmup_fraction:
        Fraction of the dataset processed before the first check (0.3).
    check_frequency:
        ``F``: re-check after every ``F * n`` further elements (0.01).
    enable_tree_fallback / enable_clustering_fallback:
        Fine-grained switches for the two conditions.
    """

    enabled: bool = True
    warmup_fraction: float = 0.3
    check_frequency: float = 0.01
    enable_tree_fallback: bool = True
    enable_clustering_fallback: bool = True

    def __post_init__(self) -> None:
        check_fraction(self.warmup_fraction, "warmup_fraction")
        check_fraction(self.check_frequency, "check_frequency",
                       inclusive_low=False)


class FallbackController:
    """Schedules and evaluates the two fallback conditions."""

    def __init__(self, config: FallbackConfig, n_total: int) -> None:
        self.config = config
        self.n_total = int(n_total)
        self._warmup = int(math.ceil(config.warmup_fraction * n_total))
        self._interval = max(1, int(round(config.check_frequency * n_total)))
        self._next_check = max(self._warmup, 1)
        self.n_checks = 0

    @property
    def next_check_at(self) -> int:
        """Element count at which the next check fires."""
        return self._next_check

    def should_check(self, n_processed: int) -> bool:
        """True iff a fallback check is due at ``n_processed`` elements."""
        if not self.config.enabled:
            return False
        if n_processed < self._next_check:
            return False
        self._next_check = n_processed + self._interval
        self.n_checks += 1
        return True

    def evaluate(self, policy: HierarchicalBanditPolicy,
                 threshold: float | None,
                 scoring_latency: float,
                 bandit_latency: float) -> FallbackDecision:
        """Evaluate both conditions; the tree condition is tested first.

        Latencies are per-element seconds, "measured dynamically" by the
        engine (ours: virtual scoring latency from the scorer's model, real
        measured bandit overhead).
        """
        if policy.exhausted:
            return FallbackDecision.NONE
        if (
            self.config.enable_tree_fallback
            and not policy.flattened
            and self.tree_condition(policy, threshold)
        ):
            return FallbackDecision.FLATTEN_TREE
        if self.config.enable_clustering_fallback and self.clustering_condition(
            policy, threshold, scoring_latency, bandit_latency
        ):
            return FallbackDecision.UNIFORM_SCAN
        return FallbackDecision.NONE

    @staticmethod
    def tree_condition(policy: HierarchicalBanditPolicy,
                       threshold: float | None) -> bool:
        """True iff greedy descent misses the globally greedy leaf."""
        return (policy.greedy_leaf(threshold)
                != policy.greedy_descent_leaf(threshold))

    @staticmethod
    def clustering_condition(policy: HierarchicalBanditPolicy,
                             threshold: float | None,
                             scoring_latency: float,
                             bandit_latency: float) -> bool:
        """True iff uniform sampling's estimated slope beats the bandit's."""
        # Through the policy: the bank's refresh is the one refresh path.
        sizes, gains = policy.leaf_gains(threshold)
        total_size = sum(sizes)
        if total_size == 0:
            return False
        scoring_latency = max(scoring_latency, 1e-12)
        slope_bandit = max(gains) / (scoring_latency + max(bandit_latency, 0.0))
        weighted_gain = sum(size * gain for size, gain in zip(sizes, gains))
        slope_sample = weighted_gain / (total_size * scoring_latency)
        return slope_sample > slope_bandit
