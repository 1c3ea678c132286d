"""Adversarial hidden-tail ablation: how the ``CONFIDENCE`` early stop fails.

Carried ROADMAP item.  The table below is built to be a worst case for
the early stop: a large "cold" cluster whose every *observed* score is
~0.001 hides two needles scoring 10.0.  The cheap features that
drive clustering cannot see the needles (they sit dead-center in the
cold cluster), so the bandit's evidence about that region is uniformly
discouraging — exactly the mass its sketches never saw.

Pinned failure modes (fixed seeds, serial streaming backend — fully
deterministic):

* The displacement bound (``CONFIDENCE``) fails: the cold shard's
  sketch shows *zero* survival above the threshold, so the union bound
  collapses and certifies an answer the hidden tail falsifies.
  The certificate is model-based (sketches of observed scores), not
  distribution-free — this test pins the documented unsafe direction.
* Honesty invariant: a reported bound of exactly ``0.0`` is reserved for
  genuine certainty.  While any unscored element could still be drawn,
  both bounds stay positive (``_MIN_RESIDUAL``) — CONFIDENCE may be
  *wrong* under an adversarial model violation, but it never claims
  probability-zero risk it cannot have.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.convergence import _MIN_RESIDUAL, ConvergenceBound, TailSummary
from repro.data.dataset import InMemoryDataset
from repro.index.builder import IndexConfig
from repro.scoring.base import FunctionScorer
from repro.streaming.engine import StreamingTopKEngine

N_COLD = 300
N_HOT = 300
NEEDLES = ("h0123", "h0200")
NEEDLE_SCORE = 10.0


@pytest.fixture(scope="module")
def hidden_tail_table():
    """300 cold elements (~0.001) hiding two 10.0 needles + 300 hot ones.

    The needles' *features* are indistinguishable from the cold cluster's
    (only their payloads differ), so no index built from features can
    isolate them — the adversarial premise of the ablation.
    """
    rng = np.random.default_rng(42)
    ids = ([f"h{i:04d}" for i in range(N_COLD)]
           + [f"w{i:04d}" for i in range(N_HOT)])
    features = np.zeros((N_COLD + N_HOT, 2))
    features[:N_COLD] = rng.normal(0.0, 0.05, size=(N_COLD, 2))
    centers = np.array([[3, 0], [0, 3], [3, 3], [-3, 0], [0, -3], [-3, -3]],
                       dtype=float)
    for j in range(N_HOT):
        features[N_COLD + j] = centers[j % 6] + rng.normal(0.0, 0.05, 2)
    payloads = np.concatenate([
        np.full(N_COLD, 0.001) + rng.uniform(0, 0.0005, N_COLD),
        rng.uniform(0.5, 0.9, N_HOT),
    ])
    for needle in NEEDLES:
        payloads[ids.index(needle)] = NEEDLE_SCORE
    return InMemoryDataset(ids, payloads.tolist(), features)


def _engine(table, **kwargs):
    return StreamingTopKEngine(
        table, FunctionScorer(lambda value: float(value)),
        k=5, n_workers=2, seed=8, slice_budget=10,
        index_config=IndexConfig(n_clusters=7), **kwargs,
    )


class TestDisplacementBoundFailure:
    def test_sketches_cannot_see_unobserved_mass(self, hidden_tail_table):
        engine = _engine(hidden_tail_table, confidence=0.95)
        result = engine.run(N_COLD + N_HOT)
        engine.close()
        # CONFIDENCE 0.95 certified the answer early ...
        assert result.converged
        assert result.total_scored < N_COLD + N_HOT
        assert result.displacement_bound <= 1.0 - 0.95
        # ... and the certificate is falsified by the hidden tail: the
        # cold shard's sketch, built only from ~0.001 observations,
        # reported zero survival above the threshold, so the union bound
        # collapsed while two 10.0 needles sat unscored.
        answer = {element_id for element_id, _score in result.items}
        assert answer.isdisjoint(NEEDLES)
        # How it fails: the bound is exactly as good as the sketch
        # model.  An adversary who decouples scores from features (and
        # hides mass where the bandit stopped looking) defeats it — the
        # documented, normative limitation of a model-based certificate.

    def test_confidence_never_claims_certainty_it_lacks(
            self, hidden_tail_table):
        engine = _engine(hidden_tail_table, confidence=0.95)
        early = engine.run(N_COLD + N_HOT)
        assert early.total_scored < N_COLD + N_HOT
        # Wrong it may be — but never *certain*: with unscored elements
        # remaining, both bounds stay strictly positive.  Probability
        # exactly zero is reserved for genuine certainty.
        assert 0.0 < early.displacement_bound <= _MIN_RESIDUAL + 1e-15
        assert 0.0 < early.exhaustive_bound <= _MIN_RESIDUAL + 1e-15
        # Draining the table earns real certainty: the needles surface
        # and the exhaustive bound legitimately reaches zero.  (The stop
        # rule would keep firing on every drive, so switch it off for
        # the exhaustive reference run.)
        engine.confidence = None
        final = engine.run(None)
        engine.close()
        assert final.total_scored == N_COLD + N_HOT
        answer = {element_id for element_id, _score in final.items}
        assert set(NEEDLES) <= answer
        assert final.exhaustive_bound == 0.0


class TestResidualFloorUnit:
    """The honesty floor at the :class:`ConvergenceBound` level."""

    @staticmethod
    def _tail(n_remaining: int, rate: float) -> TailSummary:
        return TailSummary(n_remaining=n_remaining, support=(0.0, 1.0),
                           survival=(rate, rate), mass=100.0, kind="step")

    def test_drawable_zero_rate_floors_not_zeroes(self):
        bound = ConvergenceBound(1)
        bound.update(0, self._tail(50, 0.0))
        assert bound.refresh(1.0, True, 10) == _MIN_RESIDUAL
        assert bound.exhaustive_bound == _MIN_RESIDUAL

    def test_zero_budget_drive_is_genuine_certainty(self):
        # With no draws left in the drive, nothing can change the
        # answer within it: 0.0 is earned, and only the drive-scoped
        # bound claims it (the exhaustive one still sees unscored mass).
        bound = ConvergenceBound(1)
        bound.update(0, self._tail(50, 0.0))
        assert bound.refresh(1.0, True, 0) == 0.0
        assert bound.exhaustive_bound == _MIN_RESIDUAL

    def test_exhausted_shards_reach_exact_zero(self):
        bound = ConvergenceBound(2)
        bound.update(0, self._tail(0, 1.0))
        bound.update(1, self._tail(0, 1.0))
        assert bound.refresh(1.0, True, 100) == 0.0
        assert bound.exhaustive_bound == 0.0

    def test_floor_never_flips_a_stop_decision(self):
        # The floor sits far below any usable confidence level, so a
        # stop that would have fired at bound 0.0 still fires.
        assert _MIN_RESIDUAL < 1.0 - 0.999999
