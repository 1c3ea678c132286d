"""Tests for engine snapshot/resume and the additional ranking metrics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.engine import EngineConfig, TopKEngine
from repro.core.fallback import FallbackConfig
from repro.core.sketches import ReservoirSketch
from repro.core.snapshot import restore_engine, snapshot_engine
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError, SerializationError
from repro.experiments.ground_truth import GroundTruth, compute_ground_truth
from repro.experiments.metrics import ndcg_at_k, rank_biased_overlap
from repro.scoring.relu import ReluScorer


@pytest.fixture
def world():
    dataset = SyntheticClustersDataset.generate(n_clusters=6,
                                                per_cluster=100, rng=0)
    return dataset, dataset.true_index(), ReluScorer()


class TestSnapshot:
    def test_roundtrip_is_json_safe(self, world):
        dataset, index, scorer = world
        engine = TopKEngine(index, EngineConfig(k=8, seed=0))
        engine.run(dataset, scorer, budget=150)
        snap = snapshot_engine(engine)
        json.dumps(snap)  # fully serializable
        assert snap["counters"]["n_scored"] == 150

    def test_resume_preserves_solution_and_progress(self, world):
        dataset, index, scorer = world
        engine = TopKEngine(index, EngineConfig(k=8, seed=0))
        engine.run(dataset, scorer, budget=200)
        snap = json.loads(json.dumps(snapshot_engine(engine)))

        resumed = restore_engine(dataset.true_index(), snap, resume_seed=1)
        assert resumed.stk == pytest.approx(engine.stk)
        assert resumed.n_scored == 200
        assert sorted(resumed.topk_items()) == sorted(engine.topk_items())

    def test_resumed_run_never_rescores(self, world):
        dataset, index, scorer = world
        engine = TopKEngine(index, EngineConfig(k=8, seed=0))
        seen = set()
        for _ in range(100):
            ids = engine.next_batch()
            seen.update(ids)
            engine.observe(ids, scorer.score_batch(dataset.fetch_batch(ids)))
        snap = snapshot_engine(engine)
        resumed = restore_engine(dataset.true_index(), snap, resume_seed=2)
        while not resumed.exhausted:
            ids = resumed.next_batch()
            for element_id in ids:
                assert element_id not in seen
                seen.add(element_id)
            resumed.observe(ids,
                            scorer.score_batch(dataset.fetch_batch(ids)))
        assert len(seen) == len(dataset)

    def test_resume_finishes_to_exact_answer(self, world):
        dataset, index, scorer = world
        truth = compute_ground_truth(dataset, scorer)
        engine = TopKEngine(index, EngineConfig(k=10, seed=0))
        engine.run(dataset, scorer, budget=250)
        snap = snapshot_engine(engine)
        resumed = restore_engine(dataset.true_index(), snap, resume_seed=3)
        result = resumed.run(dataset, scorer)
        assert result.stk == pytest.approx(truth.optimal_stk(10))

    def test_flattened_snapshot_keeps_every_unscored_element(self):
        """Tree fallback, then pause: the flat shape must survive restore.

        Seed 42 on the golden 300-element index flattens at 90 scored
        (frozen in ``golden_trace_engine.json``).  The restore used to match
        the flattened payload against the hierarchical mirror, keep no leaf
        and report an "exact" answer with 200 elements unscored.
        """
        from tests.test_engine_equivalence import (
            N_ELEMENTS, build_three_layer_index, element_scores)

        scores = element_scores()

        def step(engine, seen):
            ids = engine.next_batch()
            assert seen.isdisjoint(ids)
            seen.update(ids)
            engine.observe(ids, scores[[int(i[1:]) for i in ids]])

        engine = TopKEngine(build_three_layer_index(),
                            EngineConfig(k=10, seed=42))
        seen = set()
        while engine.n_scored < 100:
            step(engine, seen)
        assert engine.fallback_events == [(90, "flatten_tree")]
        snap = json.loads(json.dumps(snapshot_engine(engine)))

        resumed = restore_engine(build_three_layer_index(), snap,
                                 resume_seed=5)
        assert resumed.policy.flattened
        assert resumed.policy.remaining == N_ELEMENTS - 100
        assert sorted(resumed.policy.remaining_ids()) == \
            sorted(engine.policy.remaining_ids())
        assert snapshot_engine(resumed)["tree"] == snap["tree"]
        while resumed.n_scored < N_ELEMENTS:
            assert not resumed.exhausted
            step(resumed, seen)
        assert resumed.exhausted
        assert len(seen) == N_ELEMENTS
        assert [score for _id, score in resumed.topk_items()] == \
            sorted(scores, reverse=True)[:10]

    def test_snapshot_mid_batch_rejected(self, world):
        dataset, index, _scorer = world
        engine = TopKEngine(index, EngineConfig(k=5, seed=0))
        engine.next_batch()
        with pytest.raises(ConfigurationError):
            snapshot_engine(engine)

    def test_custom_sketch_rejected(self, world):
        dataset, index, scorer = world
        engine = TopKEngine(
            index,
            EngineConfig(k=5, seed=0,
                         sketch_factory=lambda: ReservoirSketch(16, rng=0)),
        )
        engine.run(dataset, scorer, budget=20)
        with pytest.raises(ConfigurationError):
            snapshot_engine(engine)

    def test_wrong_format_rejected(self, world):
        dataset, index, _scorer = world
        with pytest.raises(SerializationError):
            restore_engine(index, {"format": "nope"})

    def test_k_mismatch_rejected(self, world):
        dataset, index, scorer = world
        engine = TopKEngine(index, EngineConfig(k=5, seed=0))
        engine.run(dataset, scorer, budget=30)
        snap = snapshot_engine(engine)
        with pytest.raises(ConfigurationError):
            restore_engine(dataset.true_index(), snap,
                           config=EngineConfig(k=9))

    def test_scan_mode_snapshot_roundtrip(self):
        dataset = SyntheticClustersDataset.generate(
            n_clusters=3, per_cluster=60, mu_range=(1.0, 1.0),
            sigma_range=(0.0, 0.01), rng=1,
        )
        engine = TopKEngine(
            dataset.true_index(),
            EngineConfig(k=3, seed=0,
                         fallback=FallbackConfig(warmup_fraction=0.05,
                                                 check_frequency=0.05)),
            scoring_latency_hint=1e-12,
        )
        engine.overhead.elapsed = 10.0
        scorer = ReluScorer()
        while engine.mode != "scan" and not engine.exhausted:
            ids = engine.next_batch()
            engine.observe(ids, scorer.score_batch(dataset.fetch_batch(ids)))
        assert engine.mode == "scan"
        snap = snapshot_engine(engine)
        resumed = restore_engine(dataset.true_index(), snap, resume_seed=4)
        assert resumed.mode == "scan"
        result = resumed.run(dataset, scorer)
        assert resumed.exhausted
        assert result.n_scored == len(dataset)


class TestNdcg:
    @pytest.fixture
    def truth(self):
        ids = [f"e{i}" for i in range(10)]
        return GroundTruth(ids, np.arange(10, dtype=float))

    def test_ideal_ranking_scores_one(self, truth):
        ideal = [f"e{i}" for i in range(9, 9 - 3, -1)]
        assert ndcg_at_k(ideal, truth, 3) == pytest.approx(1.0)

    def test_reversed_order_lower(self, truth):
        good = [f"e{i}" for i in (9, 8, 7)]
        shuffled = [f"e{i}" for i in (7, 8, 9)]
        assert ndcg_at_k(shuffled, truth, 3) < ndcg_at_k(good, truth, 3)

    def test_wrong_items_lower_still(self, truth):
        wrong = ["e0", "e1", "e2"]
        assert ndcg_at_k(wrong, truth, 3) < 0.5

    def test_short_answer_padded(self, truth):
        assert 0.0 < ndcg_at_k(["e9"], truth, 3) < 1.0

    def test_invalid_k(self, truth):
        with pytest.raises(ValueError):
            ndcg_at_k([], truth, 0)

    def test_all_zero_scores(self):
        truth = GroundTruth(["a", "b"], np.zeros(2))
        assert ndcg_at_k(["a", "b"], truth, 2) == 1.0


class TestRankBiasedOverlap:
    def test_identical(self):
        assert rank_biased_overlap(list("abcd"), list("abcd")) == \
            pytest.approx(1.0)

    def test_disjoint(self):
        assert rank_biased_overlap(list("abcd"), list("wxyz")) == 0.0

    def test_top_weighted(self):
        # Agreeing at the top matters more than agreeing at the bottom.
        top_agree = rank_biased_overlap(list("abXY"), list("abZW"))
        bottom_agree = rank_biased_overlap(list("XYcd"), list("ZWcd"))
        assert top_agree > bottom_agree

    def test_symmetry(self):
        a, b = list("abcde"), list("acbed")
        assert rank_biased_overlap(a, b) == pytest.approx(
            rank_biased_overlap(b, a)
        )

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            rank_biased_overlap(["a"], ["a"], p=1.0)

    def test_empty_lists(self):
        assert rank_biased_overlap([], []) == 1.0
