"""Tests for engine snapshot/resume."""

from __future__ import annotations

import json

import pytest

from repro.core.engine import EngineConfig, TopKEngine
from repro.core.fallback import FallbackConfig
from repro.core.sketches import ReservoirSketch
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError, SerializationError
from repro.experiments.ground_truth import compute_ground_truth
from repro.scoring.relu import ReluScorer
from tests.conftest import named


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
        snap = engine.snapshot()
        json.dumps(snap)  # fully serializable
        assert snap["counters"]["n_scored"] == 150

    def test_resume_preserves_solution_and_progress(self, world):
        dataset, index, scorer = world
        engine = TopKEngine(index, EngineConfig(k=8, seed=0))
        engine.run(dataset, scorer, budget=200)
        snap = json.loads(json.dumps(engine.snapshot()))

        resumed = TopKEngine.restore(dataset.true_index(), snap, resume_seed=1)
        assert resumed.stk == engine.stk
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
        snap = engine.snapshot()
        resumed = TopKEngine.restore(dataset.true_index(), snap, resume_seed=2)
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
        snap = engine.snapshot()
        resumed = TopKEngine.restore(dataset.true_index(), snap, resume_seed=3)
        result = resumed.run(dataset, scorer)
        assert result.stk == truth.optimal_stk(10)

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
        snap = json.loads(json.dumps(engine.snapshot()))

        resumed = TopKEngine.restore(build_three_layer_index(), snap,
                                 resume_seed=5)
        assert resumed.policy.flattened
        assert resumed.policy.remaining == N_ELEMENTS - 100
        assert sorted(named(resumed.policy,
                            resumed.policy.remaining_rows())) == \
            sorted(named(engine.policy, engine.policy.remaining_rows()))
        assert resumed.snapshot()["tree"] == snap["tree"]
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
            engine.snapshot()

    def test_custom_sketch_rejected(self, world):
        dataset, index, scorer = world
        engine = TopKEngine(
            index,
            EngineConfig(k=5, seed=0,
                         sketch_factory=lambda: ReservoirSketch(16, rng=0)),
        )
        engine.run(dataset, scorer, budget=20)
        with pytest.raises(ConfigurationError):
            engine.snapshot()

    def test_wrong_format_rejected(self, world):
        dataset, index, _scorer = world
        with pytest.raises(SerializationError):
            TopKEngine.restore(index, {"format": "nope"})

    def test_k_mismatch_rejected(self, world):
        dataset, index, scorer = world
        engine = TopKEngine(index, EngineConfig(k=5, seed=0))
        engine.run(dataset, scorer, budget=30)
        snap = engine.snapshot()
        with pytest.raises(ConfigurationError):
            TopKEngine.restore(dataset.true_index(), snap,
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
        snap = engine.snapshot()
        resumed = TopKEngine.restore(dataset.true_index(), snap, resume_seed=4)
        assert resumed.mode == "scan"
        result = resumed.run(dataset, scorer)
        assert resumed.exhausted
        assert result.n_scored == len(dataset)
