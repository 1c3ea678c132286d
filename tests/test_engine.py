"""Tests for the end-to-end TopKEngine (Algorithm 1 over the index)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig, TopKEngine
from repro.core.fallback import FallbackConfig
from repro.core.policies import ConstantEpsilon
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError, ExhaustedError
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer


@pytest.fixture(params=["tree", "flat"])
def setup(request, small_synthetic):
    """Every case runs over the dendrogram and over its flat partition.

    The flat input is Algorithm 1 without the tree: one layer of arms.
    """
    tree = small_synthetic.true_index()
    if request.param == "flat":
        tree = tree.flattened()
    scorer = ReluScorer(FixedPerCallLatency(1e-3))
    return small_synthetic, tree, scorer


class TestEngineConfig:
    def test_paper_defaults(self):
        config = EngineConfig()
        assert config.n_bins == 8
        assert config.initial_range == 0.1
        assert config.beta == 1.1
        assert config.batch_size == 1
        assert config.fallback.check_frequency == 0.01

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(k=0)

    def test_invalid_batch(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(batch_size=0)


class TestPullProtocol:
    def test_next_batch_then_observe(self, setup):
        dataset, tree, scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=5, seed=0))
        ids = engine.next_batch()
        assert len(ids) == 1
        scores = scorer.score_batch(dataset.fetch_batch(ids))
        engine.observe(ids, scores)
        assert engine.n_scored == 1

    def test_double_next_batch_rejected(self, setup):
        _dataset, tree, _scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=5, seed=0))
        engine.next_batch()
        with pytest.raises(ConfigurationError):
            engine.next_batch()

    def test_observe_length_mismatch(self, setup):
        _dataset, tree, _scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=5, seed=0))
        ids = engine.next_batch()
        with pytest.raises(ConfigurationError):
            engine.observe(ids, [1.0, 2.0])

    def test_observe_wrong_ids(self, setup):
        _dataset, tree, _scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=5, seed=0))
        engine.next_batch()
        with pytest.raises(ConfigurationError):
            engine.observe(["not-an-id"], [1.0])

    def test_negative_score_rejected(self, setup):
        _dataset, tree, _scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=5, seed=0))
        ids = engine.next_batch()
        with pytest.raises(ConfigurationError):
            engine.observe(ids, [-1.0])

    def test_batched_selection(self, setup):
        dataset, tree, scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=5, batch_size=8, seed=0))
        ids = engine.next_batch()
        assert len(ids) == 8
        engine.observe(ids, scorer.score_batch(dataset.fetch_batch(ids)))
        assert engine.t_batches == 1
        assert engine.n_scored == 8


class TestRun:
    def test_budget_respected(self, setup):
        dataset, tree, scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=5, seed=0))
        result = engine.run(dataset, scorer, budget=50)
        assert result.n_scored == 50
        assert len(result.items) == 5

    def test_exhaustive_run_finds_exact_topk(self, setup):
        dataset, tree, scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=10, seed=0))
        result = engine.run(dataset, scorer)
        truth = sorted(
            (scorer.score(dataset.fetch(i)) for i in dataset.ids()),
            reverse=True,
        )[:10]
        assert result.scores == pytest.approx(truth)
        assert result.n_scored == len(dataset)

    def test_checkpoints_nondecreasing_stk(self, setup):
        dataset, tree, scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=5, seed=1))
        result = engine.run(dataset, scorer, budget=200, checkpoint_every=20)
        stks = [cp.stk for cp in result.checkpoints]
        assert all(a <= b + 1e-9 for a, b in zip(stks, stks[1:]))
        assert len(result.checkpoints) >= 9

    def test_virtual_time_charged(self, setup):
        dataset, tree, scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=5, seed=0))
        result = engine.run(dataset, scorer, budget=100)
        assert result.virtual_time == pytest.approx(0.1)  # 100 * 1 ms

    def test_deterministic_under_seed(self, setup):
        dataset, tree_builder, scorer = setup

        def one_run():
            tree = dataset.true_index()
            engine = TopKEngine(tree, EngineConfig(k=5, seed=42))
            return engine.run(dataset, scorer, budget=150).stk

        assert one_run() == one_run()

    def test_result_counters_consistent(self, setup):
        dataset, tree, scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=5, seed=0))
        result = engine.run(dataset, scorer, budget=120)
        assert result.n_batches == result.n_explore + result.n_exploit
        assert result.n_scored == 120

    def test_stk_matches_scored_topk(self, setup):
        """The PQ must hold the exact top-k of everything scored so far."""
        dataset, tree, scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=7, seed=9))
        scored = []
        for _ in range(250):
            if engine.exhausted:
                break
            ids = engine.next_batch()
            scores = scorer.score_batch(dataset.fetch_batch(ids))
            scored.extend(scores.tolist())
            engine.observe(ids, scores)
        expected = sum(sorted(scored, reverse=True)[:7])
        assert engine.stk == pytest.approx(expected)


class _PoolGate:
    """A grant-shaped budget gate over a refillable pool of UDF calls."""

    def __init__(self, pool: int) -> None:
        self.pool = pool

    def acquire(self, n: int) -> int:
        granted = min(n, self.pool)
        self.pool -= granted
        return granted

    def refund(self, n: int) -> None:
        self.pool += n


class TestGateRefusal:
    def test_refused_batch_is_scored_first_on_resume(self, setup):
        """A refusal parks the drawn batch; the next run() pays for it.

        Pool 20 at batch 8 funds two batches and refuses the third, which
        is already drawn from its arm.  Stopping "exactly like exhausting
        the budget" means the engine stays resumable: refilled, a second
        run() scores that batch first and finishes exact.
        """
        dataset, tree, scorer = setup
        engine = TopKEngine(tree, EngineConfig(k=10, batch_size=8, seed=0))
        gate = _PoolGate(20)
        first = engine.run(dataset, scorer, gate=gate)
        assert first.n_scored == 16 and not first.exhausted
        assert gate.pool == 4                  # the partial grant came back

        gate.pool = len(dataset)
        second = engine.run(dataset, scorer, gate=gate)
        assert second.exhausted
        assert second.n_scored == len(dataset)
        truth = sorted(
            (scorer.score(dataset.fetch(i)) for i in dataset.ids()),
            reverse=True,
        )[:10]
        assert second.scores == pytest.approx(truth)


class TestFallbackIntegration:
    def test_uniform_scan_fallback_on_homogeneous_data(self):
        """Identical clusters + expensive bandit -> clustering fallback."""
        dataset = SyntheticClustersDataset.generate(
            n_clusters=4, per_cluster=100, mu_range=(5.0, 5.0),
            sigma_range=(0.0, 0.01), rng=0,
        )
        tree = dataset.true_index()
        config = EngineConfig(
            k=5, seed=0,
            fallback=FallbackConfig(warmup_fraction=0.1, check_frequency=0.05),
        )
        engine = TopKEngine(tree, config, scoring_latency_hint=1e-9)
        # Force a large apparent bandit overhead so slope_sample wins.
        engine.overhead.elapsed = 10.0
        scorer = ReluScorer()
        result = engine.run(dataset, scorer)
        kinds = {kind for _t, kind in result.fallback_events}
        assert "uniform_scan" in kinds
        assert engine.mode == "scan"
        # The scan still completes the dataset and finds the exact answer.
        assert result.n_scored == len(dataset)

    def test_fallback_disabled_never_fires(self, setup):
        dataset, tree, scorer = setup
        config = EngineConfig(k=5, seed=0,
                              fallback=FallbackConfig(enabled=False))
        engine = TopKEngine(tree, config)
        result = engine.run(dataset, scorer)
        assert result.fallback_events == []

    def test_scan_mode_exhausts_cleanly(self):
        dataset = SyntheticClustersDataset.generate(
            n_clusters=3, per_cluster=50, mu_range=(1.0, 1.0),
            sigma_range=(0.0, 0.01), rng=1,
        )
        tree = dataset.true_index()
        engine = TopKEngine(
            tree,
            EngineConfig(k=3, seed=0,
                         fallback=FallbackConfig(warmup_fraction=0.05,
                                                 check_frequency=0.05)),
            scoring_latency_hint=1e-12,
        )
        engine.overhead.elapsed = 5.0
        result = engine.run(dataset, ReluScorer())
        assert result.n_scored == len(dataset)
        assert engine.exhausted


class TestExplorationAccounting:
    def test_constant_schedule_explores_everything(self, setup):
        dataset, tree, scorer = setup
        config = EngineConfig(k=5, seed=0,
                              exploration=ConstantEpsilon(1.0),
                              fallback=FallbackConfig(enabled=False))
        engine = TopKEngine(tree, config)
        engine.run(dataset, scorer, budget=60)
        assert engine.n_explore == 60
        assert engine.n_exploit == 0

    def test_zero_exploration_all_greedy(self, setup):
        dataset, tree, scorer = setup
        config = EngineConfig(k=5, seed=0,
                              exploration=ConstantEpsilon(0.0),
                              fallback=FallbackConfig(enabled=False))
        engine = TopKEngine(tree, config)
        engine.run(dataset, scorer, budget=60)
        assert engine.n_exploit == 60
