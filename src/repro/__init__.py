"""repro — approximating opaque top-k queries.

A standalone library reproducing Chang & Nargesian, *Approximating Opaque
Top-k Queries* (SIGMOD 2025): answer ``SELECT * ... ORDER BY udf(x) LIMIT k``
approximately when the scoring function is an expensive black box, using a
hierarchical cluster index plus a histogram-based epsilon-greedy
DR-submodular bandit.

Quickstart
----------
>>> import numpy as np
>>> from repro import (EngineConfig, TopKEngine, build_index, IndexConfig,
...                    InMemoryDataset, FunctionScorer)
>>> values = np.random.default_rng(0).normal(size=1000)
>>> ds = InMemoryDataset([f"e{i}" for i in range(1000)], list(values),
...                      values.reshape(-1, 1))
>>> index = build_index(ds.features(), ds.ids(), IndexConfig(n_clusters=8),
...                     rng=0)
>>> scorer = FunctionScorer(lambda v: max(0.0, float(v)))
>>> engine = TopKEngine(index, EngineConfig(k=10, seed=0))
>>> result = engine.run(ds, scorer, budget=400)
>>> len(result.ids)
10
"""

from repro.core import (
    AdaptiveHistogram,
    BanditConfig,
    Checkpoint,
    ConvergenceBound,
    TailSummary,
    DiscreteArm,
    DiscreteTopKBandit,
    EngineConfig,
    FallbackConfig,
    QueryResult,
    TopKBuffer,
    TopKEngine,
    kth_largest,
    marginal_gain,
    stk,
)
from repro.index import (
    ClusterNode,
    ClusterTree,
    ImageVectorizer,
    IndexConfig,
    KMeans,
    TabularVectorizer,
    build_index,
)
from repro.data import (
    Dataset,
    InMemoryDataset,
    SyntheticClustersDataset,
    SyntheticImageDataset,
    UsedCarsDataset,
)
from repro.scoring import (
    AmortizedBatchLatency,
    CountingScorer,
    FixedPerCallLatency,
    FunctionScorer,
    GBDTValuationScorer,
    GradientBoostedRegressor,
    MLPClassifier,
    ReluScorer,
    Scorer,
    SoftmaxConfidenceScorer,
)
from repro.baselines import (
    EngineAlgorithm,
    ExplorationOnly,
    SamplingAlgorithm,
    ScanBest,
    ScanWorst,
    SortedScan,
    UCBBandit,
    UniformSample,
)
from repro.errors import (
    ConfigurationError,
    ExhaustedError,
    NotFittedError,
    ReproError,
)
from repro.core.budgeted import budgeted_config, run_budgeted
from repro.core.snapshot import restore_memo, snapshot_memo
from repro.memo import (
    MemoStore,
    MemoView,
    PriorStore,
    udf_fingerprint,
)
from repro.live import (
    ContinuousQuery,
    IndexMaintainer,
    LiveTable,
    TableSnapshot,
    WriteDelta,
)
from repro.index.btree import BPlusTree
from repro.applications import (
    AcquisitionReport,
    DataSourceUnion,
    UncertaintyScorer,
    acquire_topk,
)
from repro.core.result import ResultBase
from repro.query import (
    ExecutionPlan,
    QueryPlan,
    parse,
)
from repro.session import OpaqueQuerySession
from repro.parallel import (
    DistributedResult,
    ShardIndexCache,
    ShardedTopKEngine,
    available_backends,
)
from repro.streaming import (
    ProgressiveResult,
    StreamingResult,
    StreamingTopKEngine,
)
from repro.replay import (
    ArrivalTrace,
    ReplayStreamBackend,
    replay_engine,
    replay_run,
)
from repro.core.sketches import (
    EquiDepthSketch,
    ExactEmpiricalSketch,
    ReservoirSketch,
    ScoreSketch,
)
from repro.obs import (
    ExplainAnalyzeReport,
    MetricsRegistry,
    REGISTRY,
    TraceContext,
)

__version__ = "1.0.0"

__all__ = [
    # core
    "stk",
    "kth_largest",
    "marginal_gain",
    "TopKBuffer",
    "AdaptiveHistogram",
    "BanditConfig",
    "DiscreteArm",
    "DiscreteTopKBandit",
    "EngineConfig",
    "TopKEngine",
    "FallbackConfig",
    "QueryResult",
    "Checkpoint",
    # index
    "KMeans",
    "ClusterNode",
    "ClusterTree",
    "IndexConfig",
    "build_index",
    "ImageVectorizer",
    "TabularVectorizer",
    # data
    "Dataset",
    "InMemoryDataset",
    "SyntheticClustersDataset",
    "UsedCarsDataset",
    "SyntheticImageDataset",
    # scoring
    "Scorer",
    "FunctionScorer",
    "CountingScorer",
    "ReluScorer",
    "GradientBoostedRegressor",
    "GBDTValuationScorer",
    "MLPClassifier",
    "SoftmaxConfidenceScorer",
    "FixedPerCallLatency",
    "AmortizedBatchLatency",
    # baselines
    "SamplingAlgorithm",
    "EngineAlgorithm",
    "UniformSample",
    "ExplorationOnly",
    "UCBBandit",
    "ScanBest",
    "ScanWorst",
    "SortedScan",
    # errors
    "ReproError",
    "ConfigurationError",
    "ExhaustedError",
    "NotFittedError",
    # extensions (paper Section 7)
    "budgeted_config",
    "run_budgeted",
    "BPlusTree",
    "DataSourceUnion",
    "UncertaintyScorer",
    "acquire_topk",
    "AcquisitionReport",
    "OpaqueQuerySession",
    "parse",
    "QueryPlan",
    "ExecutionPlan",
    "ResultBase",
    "DistributedResult",
    "ShardedTopKEngine",
    "ShardIndexCache",
    "StreamingTopKEngine",
    "StreamingResult",
    "ProgressiveResult",
    "ConvergenceBound",
    "TailSummary",
    "ArrivalTrace",
    "ReplayStreamBackend",
    "replay_engine",
    "replay_run",
    "available_backends",
    "snapshot_memo",
    "restore_memo",
    "MemoStore",
    "MemoView",
    "PriorStore",
    "udf_fingerprint",
    "LiveTable",
    "TableSnapshot",
    "WriteDelta",
    "IndexMaintainer",
    "ContinuousQuery",
    "ScoreSketch",
    "ReservoirSketch",
    "EquiDepthSketch",
    "ExactEmpiricalSketch",
    "TraceContext",
    "ExplainAnalyzeReport",
    "MetricsRegistry",
    "REGISTRY",
]
