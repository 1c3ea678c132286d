"""Statistical configuration of the epsilon-greedy top-k bandit (Algorithm 1).

Each arm keeps an :class:`~repro.core.histogram.AdaptiveHistogram`; each
iteration either explores a uniformly random arm (probability
``t^(-1/3)``) or exploits the arm maximizing the closed-form
``E[Delta_{t,l}]`` estimate, breaking ties at random.  The rule itself lives
in :mod:`repro.core.hierarchical`, applied per tree layer; over a flat
:class:`~repro.index.tree.ClusterTree` that is Algorithm 1 without the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.sketches import ScoreSketch
from repro.core.policies import ExplorationSchedule, PolynomialDecay
from repro.errors import ConfigurationError
from repro.utils.validation import check_positive, check_positive_int


@dataclass
class BanditConfig:
    """Statistical knobs of Algorithm 1 (paper defaults).

    Attributes
    ----------
    n_bins:
        Histogram bucket count ``B`` (default 8).
    initial_range:
        Initial histogram maximum ``alpha`` (default 0.1).
    beta:
        Range-extension overestimation factor (default 1.1).
    enable_rebinning:
        If False, the Fig. 3a lowest-bin extension is skipped (the paper's
        "no re-binning" ablation).
    exploration:
        Schedule for ``epsilon_t`` (default: the paper's ``t^(-1/3)``).
    visit_unvisited_first:
        During exploitation, an arm whose histogram is still empty is
        preferred over any estimated arm (classic optimistic initialization,
        like UCB's pull-each-arm-once).  The paper's analysis relies on
        uniform exploration visiting every arm; with large batch sizes and
        small budgets the decayed schedule alone can leave arms unseen, so
        this is on by default (set False for the strictly-literal variant).
    """

    n_bins: int = 8
    initial_range: float = 0.1
    beta: float = 1.1
    enable_rebinning: bool = True
    exploration: ExplorationSchedule = field(default_factory=PolynomialDecay)
    visit_unvisited_first: bool = True
    sketch_factory: Optional[Callable[[], ScoreSketch]] = None

    def __post_init__(self) -> None:
        check_positive_int(self.n_bins, "n_bins")
        check_positive(self.initial_range, "initial_range")
        if not 1.0 <= self.beta <= 2.0:
            raise ConfigurationError(f"beta must lie in [1, 2], got {self.beta!r}")
