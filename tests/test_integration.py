"""End-to-end integration tests across the three evaluation domains.

These mirror the paper's headline claims at miniature scale: the bandit
(Ours) reaches near-optimal STK far earlier than uniform sampling on data
with exploitable cluster structure, the anytime protocol is consistent, and
the whole pipeline (data -> vectorize -> index -> scorer -> engine) holds
together for tabular and image workloads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import EngineAlgorithm
from repro.baselines.uniform import UniformSample
from repro.core.engine import EngineConfig, TopKEngine
from repro.core.fallback import FallbackConfig
from repro.core.stk import stk
from repro.data.images import SyntheticImageDataset
from repro.data.synthetic import SyntheticClustersDataset
from repro.data.usedcars import UsedCarsDataset
from repro.experiments.ground_truth import compute_ground_truth
from repro.experiments.metrics import precision_at_k
from repro.experiments.runner import (
    ScoreOracle,
    checkpoint_grid,
    run_algorithm,
)
from repro.index.builder import IndexConfig, build_index
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.gbdt_scorer import GBDTValuationScorer
from repro.scoring.mlp import MLPClassifier
from repro.scoring.relu import ReluScorer
from repro.scoring.softmax import SoftmaxConfidenceScorer


def stk_at_fraction(curve, fraction):
    """STK at the checkpoint closest to ``fraction`` of the budget."""
    target = fraction * curve.iterations[-1]
    index = int(np.argmin(np.abs(curve.iterations - target)))
    return curve.stks[index]


class TestSyntheticDomain:
    @pytest.fixture(scope="class")
    def world(self):
        dataset = SyntheticClustersDataset.generate(
            n_clusters=10, per_cluster=200, rng=0
        )
        scorer = ReluScorer(FixedPerCallLatency(1e-3))
        truth = compute_ground_truth(dataset, scorer)
        return dataset, scorer, truth

    def test_ours_beats_uniform_at_early_budget(self, world):
        dataset, scorer, truth = world
        k, budget = 20, len(dataset) // 4
        grid = checkpoint_grid(budget, 20)
        oracle = ScoreOracle(truth, scorer.latency)

        ours_final, uniform_final = [], []
        for seed in range(5):
            engine = TopKEngine(dataset.true_index(),
                                EngineConfig(k=k, seed=seed))
            ours = run_algorithm(EngineAlgorithm(engine, scoring_latency=1e-3),
                                 oracle, k, budget, grid, truth)
            uniform = run_algorithm(
                UniformSample(dataset.ids(), rng=seed), oracle, k, budget,
                grid, truth,
            )
            ours_final.append(ours.final_stk)
            uniform_final.append(uniform.final_stk)
        assert np.mean(ours_final) > np.mean(uniform_final)

    def test_ours_near_optimal_with_quarter_budget(self, world):
        dataset, scorer, truth = world
        k = 20
        engine = TopKEngine(dataset.true_index(), EngineConfig(k=k, seed=3))
        result = engine.run(dataset, scorer, budget=len(dataset) // 4)
        assert result.stk >= 0.9 * truth.optimal_stk(k)

    def test_precision_tracks_stk(self, world):
        dataset, scorer, truth = world
        k = 20
        engine = TopKEngine(dataset.true_index(), EngineConfig(k=k, seed=1))
        result = engine.run(dataset, scorer, budget=len(dataset) // 2)
        precision = precision_at_k(result.ids, truth, k)
        assert precision >= 0.5


class TestTabularDomain:
    @pytest.fixture(scope="class")
    def world(self):
        train_rows, dataset = UsedCarsDataset.generate_split(
            n_train=3000, n_query=2000, rng=0
        )
        scorer = GBDTValuationScorer.train(train_rows, n_estimators=25, rng=0)
        truth = compute_ground_truth(dataset, scorer, batch_size=512)
        index = build_index(dataset.features(), dataset.ids(),
                            IndexConfig(n_clusters=20), rng=0)
        return dataset, scorer, truth, index

    def test_index_partitions_dataset(self, world):
        dataset, _scorer, _truth, index = world
        members = sorted(m for leaf in index.leaves() for m in leaf.member_ids)
        assert members == sorted(dataset.ids())

    def test_high_value_listings_concentrate_in_clusters(self, world):
        """The statistical property the index exploits must hold."""
        dataset, _scorer, truth, index = world
        k = 50
        top_ids = truth.topk_ids(k)
        leaf_hits = {
            leaf.node_id: len(top_ids.intersection(leaf.member_ids))
            for leaf in index.leaves()
        }
        # The three best leaves should hold a clear majority of the top-k.
        best3 = sum(sorted(leaf_hits.values(), reverse=True)[:3])
        assert best3 >= 0.5 * k

    def test_engine_beats_uniform_on_time_to_90pct(self, world):
        dataset, scorer, truth, index = world
        k, budget = 50, len(dataset) // 2
        grid = checkpoint_grid(budget, 30)
        oracle = ScoreOracle(truth, scorer.latency)
        ours_stk, uni_stk = [], []
        for seed in range(3):
            engine = TopKEngine(index, EngineConfig(k=k, seed=seed))
            ours = run_algorithm(EngineAlgorithm(engine, scoring_latency=2e-3),
                                 oracle, k, budget, grid, truth)
            uniform = run_algorithm(UniformSample(dataset.ids(), rng=seed),
                                    oracle, k, budget, grid, truth)
            ours_stk.append(stk_at_fraction(ours, 0.4))
            uni_stk.append(stk_at_fraction(uniform, 0.4))
        assert np.mean(ours_stk) > np.mean(uni_stk)

    def test_exhaustive_equals_ground_truth(self, world):
        dataset, scorer, truth, index = world
        k = 25
        engine = TopKEngine(index, EngineConfig(k=k, seed=0))
        result = engine.run(dataset, scorer)
        assert result.stk == truth.optimal_stk(k)


class TestImageDomain:
    @pytest.fixture(scope="class")
    def world(self):
        train = SyntheticImageDataset.generate(n=600, n_classes=5, side=8,
                                               noise=0.2, rng=0)
        query = SyntheticImageDataset.generate(n=1500, n_classes=5, side=8,
                                               noise=0.2, rng=1,
                                               templates=train.templates)
        model = MLPClassifier(hidden=32, epochs=25, rng=0).fit(
            *train.train_arrays()
        )
        scorer = SoftmaxConfidenceScorer(model, label=2)
        truth = compute_ground_truth(query, scorer, batch_size=512)
        index = build_index(query.features(), query.ids(),
                            IndexConfig(n_clusters=10, subsample=800), rng=0)
        return query, scorer, truth, index

    def test_confidences_are_skewed(self, world):
        _query, _scorer, truth, _index = world
        # Most images score near zero for a fixed label.
        assert np.median(truth.scores) < 0.5 * truth.scores.max()

    def test_batched_engine_runs_and_finds_quality(self, world):
        query, scorer, truth, index = world
        k = 30
        engine = TopKEngine(index, EngineConfig(k=k, seed=0, batch_size=25))
        result = engine.run(query, scorer, budget=len(query) // 2)
        assert result.stk >= 0.7 * truth.optimal_stk(k)
        assert result.n_batches >= result.n_scored // 25

    def test_batch_latency_amortized_in_virtual_time(self, world):
        query, scorer, truth, index = world
        engine_small = TopKEngine(index, EngineConfig(k=10, seed=0,
                                                      batch_size=1))
        engine_large = TopKEngine(
            build_index(query.features(), query.ids(),
                        IndexConfig(n_clusters=10, subsample=800), rng=0),
            EngineConfig(k=10, seed=0, batch_size=50),
        )
        r_small = engine_small.run(query, scorer, budget=200)
        r_large = engine_large.run(query, scorer, budget=200)
        assert r_large.virtual_time < r_small.virtual_time


class TestAnytimeConsistency:
    def test_running_solution_is_topk_of_scored_prefix(self, small_synthetic):
        scorer = ReluScorer()
        engine = TopKEngine(small_synthetic.true_index(),
                            EngineConfig(k=8, seed=5))
        seen = []
        for _ in range(120):
            if engine.exhausted:
                break
            ids = engine.next_batch()
            scores = scorer.score_batch(small_synthetic.fetch_batch(ids))
            seen.extend(scores.tolist())
            engine.observe(ids, scores)
            assert engine.stk == stk(seen, 8)

    def test_same_seed_same_result_full_pipeline(self):
        def run_once():
            dataset = SyntheticClustersDataset.generate(
                n_clusters=6, per_cluster=50, rng=2
            )
            index = build_index(dataset.features(), dataset.ids(),
                                IndexConfig(n_clusters=6), rng=3)
            engine = TopKEngine(index, EngineConfig(k=5, seed=4))
            return engine.run(dataset, ReluScorer(), budget=150).stk

        assert run_once() == run_once()
