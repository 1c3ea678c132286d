"""``TopKEngine.run``'s loop and the pull interface are one engine.

``advance`` — the loop behind ``run`` and every shard worker — drives the
engine's select and fold directly, without the checks ``next_batch`` /
``observe`` make of ids a caller hands back.  Over several seeds, batch
widths ``1 / 8 / 64``, a dendrogram, its flat partition and runs that
fall back (to a flat tree or to the uniform scan), a ``run`` and a
hand-driven ``next_batch`` -> fetch -> score -> ``observe`` loop draw the
same ids in the same order and return the same answer, STK, checkpoints
and explore / exploit counts.  Only the measured overhead differs, and
both measure some.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.engine import EngineConfig, TopKEngine
from repro.core.fallback import FallbackConfig
from repro.data.synthetic import SyntheticClustersDataset
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer

DATASET = SyntheticClustersDataset.generate(n_clusters=5, per_cluster=80,
                                            rng=7)
#: The clustering fallback compares measured overhead against the scoring
#: latency, so it is off where the two loops must agree on their own; the
#: ``fallback`` case makes both look expensive enough to fall back at once.
NO_SCAN = FallbackConfig(enable_clustering_fallback=False)


class Recording:
    """The dataset, remembering every batch of ids it was asked for."""

    def __init__(self, dataset) -> None:
        self.dataset = dataset
        self.drawn: List[List[str]] = []

    def fetch_batch(self, ids):
        self.drawn.append(list(ids))
        return self.dataset.fetch_batch(ids)


def engine_for(shape: str, seed: int, batch: int) -> TopKEngine:
    tree = DATASET.true_index()
    if shape == "flat":
        tree = tree.flattened()
    fallback = FallbackConfig() if shape == "fallback" else NO_SCAN
    engine = TopKEngine(tree, EngineConfig(k=10, seed=seed, batch_size=batch,
                                           fallback=fallback))
    if shape == "fallback":
        engine.overhead.elapsed = 10.0  # the bandit looks expensive
    return engine


def pulled(engine: TopKEngine, scorer, budget: int):
    """The pull interface by hand, checkpointing as ``run`` does."""
    size = engine.config.batch_size
    engine.scoring_latency_hint = scorer.batch_cost(size) / size
    dataset = Recording(DATASET)
    cadence = max(1, min(budget, len(DATASET)) // 200)
    checkpoints, cost, next_checkpoint = [], 0.0, cadence
    while engine.n_scored < budget and not engine.exhausted:
        ids = engine.next_batch()
        scores = scorer.score_batch(dataset.fetch_batch(ids))
        cost += scorer.batch_cost(len(ids))
        engine.observe(ids, scores)
        if engine.n_scored >= next_checkpoint:
            checkpoints.append((engine.n_scored, cost, engine.stk,
                                engine.threshold))
            next_checkpoint += cadence
    return dataset.drawn, checkpoints


@pytest.mark.parametrize("budget", [300, len(DATASET)])
@pytest.mark.parametrize("shape", ["tree", "flat", "fallback"])
@pytest.mark.parametrize("batch", [1, 8, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_and_the_pull_interface_agree(seed, batch, shape, budget):
    scorer = ReluScorer(FixedPerCallLatency(1e-3))
    looped = engine_for(shape, seed, batch)
    dataset = Recording(DATASET)
    result = looped.run(dataset, scorer, budget=budget)
    hand = engine_for(shape, seed, batch)
    drawn, checkpoints = pulled(hand, scorer, budget)

    assert dataset.drawn == drawn
    assert result.items == hand.topk_items()
    assert result.stk == hand.stk
    assert [(point.iteration, point.virtual_time, point.stk, point.threshold)
            for point in result.checkpoints] == checkpoints
    assert (result.n_explore, result.n_exploit, result.n_batches) == (
        hand.n_explore, hand.n_exploit, hand.t_batches)
    assert result.fallback_events == hand.fallback_events
    assert result.fallback_events or shape != "fallback"
    assert looped.mode == hand.mode
    assert looped.policy.remaining == hand.policy.remaining
    assert result.overhead_time > 0.0 and hand.overhead.elapsed > 0.0
