"""Core contribution: the STK objective, histogram sketches, and the
histogram-based epsilon-greedy top-k bandit (Algorithm 1 of the paper),
including the hierarchical variant, fallback strategies, and the end-to-end
query engine.
"""

from repro.core.stk import (
    stk,
    kth_largest,
    marginal_gain,
    TopKBuffer,
)
from repro.core.histogram import AdaptiveHistogram
from repro.core.convergence import (
    ConvergenceBound,
    TailSummary,
    tail_summary_from_engine,
)
from repro.core.sketches import (
    EquiDepthSketch,
    ExactEmpiricalSketch,
    ReservoirSketch,
    ScoreSketch,
)
from repro.core.arms import ArmState
from repro.core.policies import (
    ConstantEpsilon,
    ExplorationSchedule,
    FrontLoadedExploration,
    PolynomialDecay,
)
from repro.core.bandit import BanditConfig
from repro.core.discrete import DiscreteArm, DiscreteTopKBandit
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.core.fallback import FallbackConfig, FallbackController, FallbackDecision
from repro.core.engine import EngineConfig, ScoringStep, TopKEngine
from repro.core.result import Checkpoint, QueryResult
from repro.core.budgeted import budgeted_config, run_budgeted

__all__ = [
    "stk",
    "kth_largest",
    "marginal_gain",
    "TopKBuffer",
    "AdaptiveHistogram",
    "ConvergenceBound",
    "TailSummary",
    "tail_summary_from_engine",
    "ScoreSketch",
    "ReservoirSketch",
    "EquiDepthSketch",
    "ExactEmpiricalSketch",
    "ArmState",
    "ExplorationSchedule",
    "PolynomialDecay",
    "ConstantEpsilon",
    "FrontLoadedExploration",
    "BanditConfig",
    "DiscreteArm",
    "DiscreteTopKBandit",
    "HierarchicalBanditPolicy",
    "FallbackConfig",
    "FallbackController",
    "FallbackDecision",
    "EngineConfig",
    "ScoringStep",
    "TopKEngine",
    "Checkpoint",
    "QueryResult",
    "budgeted_config",
    "run_budgeted",
]
