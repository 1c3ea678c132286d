"""Edge-case and interaction tests for the engine and histogram,
including a hypothesis stateful test of the histogram's maintenance ops."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.engine import EngineConfig, TopKEngine
from repro.core.fallback import FallbackConfig
from repro.core.histogram import AdaptiveHistogram
from repro.core.policies import ConstantEpsilon
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError, ExhaustedError
from repro.index.tree import ClusterNode, ClusterTree
from repro.scoring.relu import ReluScorer


class TestEngineEdgeCases:
    def test_k_larger_than_dataset(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=2,
                                                    per_cluster=5, rng=0)
        engine = TopKEngine(dataset.true_index(), EngineConfig(k=50, seed=0))
        result = engine.run(dataset, ReluScorer())
        assert len(result.items) == 10  # everything, not k

    def test_batch_larger_than_cluster(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=4,
                                                    per_cluster=10, rng=0)
        engine = TopKEngine(dataset.true_index(),
                            EngineConfig(k=3, batch_size=25, seed=0))
        result = engine.run(dataset, ReluScorer())
        assert result.n_scored == 40  # all elements, short batches OK

    def test_single_leaf_tree(self):
        tree = ClusterTree(ClusterNode("root", children=[
            ClusterNode("only", member_ids=tuple(f"e{i}" for i in range(20)))
        ]))
        dataset = SyntheticClustersDataset.generate(n_clusters=1,
                                                    per_cluster=20, rng=0)
        # Rebuild the single-leaf tree with the dataset's actual ids.
        tree = ClusterTree(ClusterNode("root", children=[
            ClusterNode("only", member_ids=tuple(dataset.ids()))
        ]))
        engine = TopKEngine(tree, EngineConfig(k=5, seed=0))
        result = engine.run(dataset, ReluScorer())
        assert result.n_scored == 20

    def test_per_layer_exploration_path(self, small_synthetic):
        engine = TopKEngine(
            small_synthetic.true_index(),
            EngineConfig(k=5, seed=0, per_layer_exploration=True,
                         exploration=ConstantEpsilon(0.5)),
        )
        result = engine.run(small_synthetic, ReluScorer(), budget=120)
        assert result.n_scored == 120

    def test_threshold_floor_blocks_gain_chasing(self, small_synthetic):
        engine = TopKEngine(small_synthetic.true_index(),
                            EngineConfig(k=5, seed=0))
        engine.threshold_floor = 1e9  # nothing can beat this
        ids = engine.next_batch()
        engine.observe(ids, [1.0] * len(ids))
        # Buffer still accepts locally (merge correctness).
        assert engine.stk > 0
        assert engine.effective_threshold == 1e9

    def test_zero_scores_everywhere(self):
        dataset = SyntheticClustersDataset.generate(
            n_clusters=3, per_cluster=30, mu_range=(-10.0, -10.0),
            sigma_range=(0.0, 0.01), rng=0,
        )
        engine = TopKEngine(dataset.true_index(), EngineConfig(k=5, seed=0))
        result = engine.run(dataset, ReluScorer())  # ReLU clamps all to 0
        assert result.stk == 0.0
        assert len(result.items) == 5

    def test_run_twice_continues_not_restarts(self, small_synthetic):
        """run() on a used engine continues from its current state."""
        dataset = small_synthetic
        engine = TopKEngine(dataset.true_index(), EngineConfig(k=5, seed=0))
        first = engine.run(dataset, ReluScorer(), budget=50)
        second = engine.run(dataset, ReluScorer(), budget=100)
        assert second.n_scored == 100  # cumulative counter
        assert second.stk >= first.stk

    def test_warmup_larger_than_budget_never_checks(self, small_synthetic):
        config = EngineConfig(
            k=5, seed=0,
            fallback=FallbackConfig(warmup_fraction=0.9,
                                    check_frequency=0.01),
        )
        engine = TopKEngine(small_synthetic.true_index(), config)
        engine.run(small_synthetic, ReluScorer(), budget=50)
        assert engine.fallback.n_checks == 0


class HistogramMachine(RuleBasedStateMachine):
    """Random interleavings of add / extend / rebin / subtract-self.

    Invariants: counts stay non-negative, edges stay strictly sorted with
    exactly B bins, and mass never exceeds the number of added samples.
    """

    def __init__(self) -> None:
        super().__init__()
        self.hist = AdaptiveHistogram(n_bins=6, initial_range=1.0)
        self.n_added = 0

    @rule(value=st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
    def add(self, value):
        self.hist.add(value)
        self.n_added += 1

    @rule(threshold=st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
    def rebin(self, threshold):
        self.hist.maybe_extend_lowest(threshold)

    @rule(new_max=st.floats(min_value=0.1, max_value=1e6, allow_nan=False))
    def extend(self, new_max):
        self.hist.extend_range(new_max)

    @rule()
    def subtract_own_copy_half(self):
        # Subtract a half-weighted copy of itself: mass halves, stays >= 0.
        clone = self.hist.copy()
        clone.counts[:] = clone.counts * 0.5
        self.hist.subtract(clone)
        self.n_added = self.n_added  # mass bound still n_added

    @invariant()
    def counts_non_negative(self):
        assert (self.hist.counts >= -1e-9).all()

    @invariant()
    def structure_intact(self):
        assert len(self.hist.counts) == self.hist.n_bins
        assert len(self.hist.edges) == self.hist.n_bins + 1
        assert (np.diff(self.hist.edges) > 0).all()

    @invariant()
    def mass_bounded_by_samples(self):
        assert self.hist.total_mass <= self.n_added + 1e-6

    @invariant()
    def gain_estimates_finite_and_monotone(self):
        low = self.hist.expected_marginal_gain(0.0)
        high = self.hist.expected_marginal_gain(self.hist.max_range + 1.0)
        assert np.isfinite(low) and np.isfinite(high)
        assert low >= high - 1e-9


TestHistogramStateMachine = HistogramMachine.TestCase
TestHistogramStateMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


def poisoned_session(bad: float, *, enable_cache: bool = True):
    """400 rows scoring ``value % 50``, except that 8 of them score ``bad``."""
    from repro.data.dataset import InMemoryDataset
    from repro.scoring.base import FunctionScorer
    from tests.conftest import make_session

    features = np.random.default_rng(0).normal(size=(400, 3))
    dataset = InMemoryDataset([f"e{i:03d}" for i in range(400)],
                              [float(i) for i in range(400)], features)
    scorer = FunctionScorer(lambda v: bad if v % 50 == 0 else float(v % 50))
    session, _ = make_session(dataset, enable_cache=enable_cache,
                              scorer=scorer)
    return session


class TestNonFiniteScores:
    """A score that is not a finite non-negative float is refused.

    ``observe`` used to reject negatives with ``min() < 0``, which NaN
    passes: a NaN that enters the top-k buffer before it fills is never
    evicted (an "exact" answer came back with ``stk = nan`` and rows out of
    order), and ``+inf`` made ``extend_range`` build NaN edges.
    """

    SQL = "SELECT TOP 100 FROM t ORDER BY f BUDGET 100% SEED 3"

    @pytest.mark.parametrize("enable_cache", [False, True])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_exhaustive_query_refuses_the_score(self, bad, enable_cache):
        session = poisoned_session(bad, enable_cache=enable_cache)
        with pytest.raises(ConfigurationError, match="finite"):
            session.execute(self.SQL)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_sharded_query_refuses_the_score(self, bad):
        session = poisoned_session(bad)
        with pytest.raises(ConfigurationError, match="finite"):
            session.execute(self.SQL + " WORKERS 2")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_memo_never_stores_a_refused_score(self, bad):
        """The step validates fresh scores *before* writing them back."""
        from repro.core.engine import ScoringStep
        from repro.data.dataset import InMemoryDataset
        from repro.memo import MemoStore
        from repro.scoring.base import FunctionScorer

        dataset = InMemoryDataset(["a", "b", "c"], [1.0, 2.0, 3.0],
                                  np.zeros((3, 1)))
        scorer = FunctionScorer(lambda v: bad if v == 3.0 else v)
        view = MemoStore().view("fp", 0)
        step = ScoringStep(dataset, scorer, memo=view)
        assert list(step.score(["a", "b"])) == [1.0, 2.0]
        with pytest.raises(ConfigurationError, match="finite"):
            step.score(["b", "c"])
        assert view.snapshot() == {"a": 1.0, "b": 2.0}
        assert step.fresh == [("a", 1.0), ("b", 2.0)]

    def test_nan_never_enters_the_buffer(self):
        """``1, nan, 5, 2, 3, 0.5, 4`` into k=3 used to end as 4, nan, 5."""
        offered = [1.0, float("nan"), 5.0, 2.0, 3.0, 0.5, 4.0]
        tree = ClusterTree(ClusterNode("root", children=[ClusterNode(
            "only", member_ids=tuple(f"e{i}" for i in range(len(offered))))]))
        engine = TopKEngine(tree, EngineConfig(k=3, seed=0))
        engine.observe(engine.next_batch(), [offered[0]])
        ids = engine.next_batch()
        with pytest.raises(ConfigurationError, match="finite"):
            engine.observe(ids, [offered[1]])
        assert [score for _id, score in engine.topk_items()] == [1.0]
        # The refused batch is still pending: a finite score resumes the run.
        engine.observe(ids, [offered[2]])
        for score in offered[3:]:
            engine.observe(engine.next_batch(), [score])
        assert [score for _id, score in engine.topk_items()] == [5.0, 4.0, 3.0]
