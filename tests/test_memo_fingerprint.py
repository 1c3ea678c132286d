"""Property/fuzz tests for UDF fingerprinting — the memo's cache key.

Four properties, each over a few hundred seeded-random cases (in the
style of ``test_query_fuzz.py``):

* **No collisions** — structurally distinct scorers (different
  parameters, constants, closure values, array contents, or classes)
  never share a fingerprint.
* **Always hits** — re-building a structurally identical scorer (same
  source, same parameters) always reproduces the digest, so repeat
  traffic hits the memo.
* **Mutation invalidates** — mutating any reachable parameter between
  queries changes the digest; the session re-scores instead of serving
  stale answers (fingerprints are recomputed at plan time).
* **Subset composition** — the memo is keyed by fingerprint only, so
  scores transfer across WHERE subsets of the same UDF, while prior
  *scopes* embed the subset fingerprint and stay distinct.

Plus the two degradation contracts: ``__fingerprint_state__`` delegation
(mutable counters never invalidate the function they count) and
unfingerprintable scorers disabling caching instead of silently missing.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.memo import udf_fingerprint
from repro.scoring.base import CountingScorer, FunctionScorer, Scorer
from tests.conftest import make_session, make_table

N_CASES = 300


class ThresholdScorer(Scorer):
    """A parameterized class-based scorer: everything lives in attrs."""

    def __init__(self, threshold: float, weights, label: str = "t"):
        self.threshold = threshold
        self.weights = np.asarray(weights, dtype=float)
        self.label = label

    def score(self, obj) -> float:
        value = float(obj) * float(self.weights.sum())
        return max(0.0, value - self.threshold)


def scorer_from_params(params: tuple):
    """Deterministically build a scorer from a parameter tuple.

    The tuple fully determines the scorer's structure, so equal tuples
    must yield equal fingerprints and distinct tuples distinct ones.
    """
    kind, threshold, weights, label = params
    if kind == "class":
        return ThresholdScorer(threshold, weights, label)
    if kind == "lambda":
        # threshold/weights captured in closure cells, label as default.
        scale = float(np.sum(weights))
        return FunctionScorer(
            lambda v, _tag=label: max(0.0, float(v) * scale - threshold)
        )
    return CountingScorer(ThresholdScorer(threshold, weights, label))


def random_params(rng: random.Random) -> tuple:
    kind = rng.choice(["class", "lambda", "counting"])
    threshold = rng.choice([0.0, 0.5, 1.0, 2.25, -1.5, 1e-7, 37.0])
    weights = tuple(round(rng.uniform(-2, 2), 3)
                    for _ in range(rng.randint(1, 4)))
    label = rng.choice(["t", "u", "v", "relevance", ""])
    return (kind, threshold, weights, label)


def test_distinct_scorers_never_collide():
    rng = random.Random(1234)
    fingerprints = {}
    cases = 0
    while cases < N_CASES:
        params = random_params(rng)
        fingerprint = udf_fingerprint(scorer_from_params(params))
        assert fingerprint is not None, params
        previous = fingerprints.get(fingerprint)
        if previous is not None:
            # A CountingScorer delegates to its inner scorer by design,
            # so ("counting", ...) and ("class", ...) with the same tail
            # SHOULD collide; anything else is a real key collision.
            a = previous if previous[0] != "counting" else ("class",) + previous[1:]
            b = params if params[0] != "counting" else ("class",) + params[1:]
            assert a == b, (previous, params)
        fingerprints[fingerprint] = params
        cases += 1


def test_identical_rebuilds_always_hit():
    rng = random.Random(99)
    for _ in range(N_CASES):
        params = random_params(rng)
        first = udf_fingerprint(scorer_from_params(params))
        second = udf_fingerprint(scorer_from_params(params))
        assert first == second is not None, params


def test_parameter_mutation_invalidates():
    rng = random.Random(4321)
    for _ in range(N_CASES):
        scorer = ThresholdScorer(
            rng.uniform(0, 3),
            [rng.uniform(-1, 1) for _ in range(rng.randint(1, 3))],
        )
        before = udf_fingerprint(scorer)
        field = rng.choice(["threshold", "weights", "label"])
        if field == "threshold":
            scorer.threshold += rng.choice([0.25, 1.0, -0.5])
        elif field == "weights":
            scorer.weights = scorer.weights + 1.0
        else:
            scorer.label = scorer.label + "x"
        assert udf_fingerprint(scorer) != before, field


def test_counting_scorer_delegates_and_survives_runs(session_builder):
    session, scorer = session_builder()
    inner_fingerprint = udf_fingerprint(scorer.inner)
    assert udf_fingerprint(scorer) == inner_fingerprint
    session.execute("SELECT TOP 3 FROM t ORDER BY f BUDGET 30 SEED 1")
    # The run mutated the wrapper's call counters; the fingerprint — and
    # with it the memo shard — must not move.
    assert scorer.n_elements == 30
    assert udf_fingerprint(scorer) == inner_fingerprint
    session.execute("SELECT TOP 3 FROM t ORDER BY f BUDGET 30 SEED 1")
    assert scorer.n_elements == 30  # all hits: same shard served


def test_mutation_invalidates_end_to_end(memo_table):
    scorer = ThresholdScorer(0.5, [1.0, 0.5])
    counting = CountingScorer(scorer)
    session, _ = make_session(memo_table, scorer=counting)
    query = "SELECT TOP 3 FROM t ORDER BY f BUDGET 30 SEED 1"
    session.execute(query)
    assert counting.n_elements == 30
    # Mutating a parameter re-keys the memo at the next plan(): the old
    # shard's scores are stale for the new function and must not serve.
    scorer.threshold = 2.0
    session.execute(query)
    assert counting.n_elements == 60
    # ... and the mutated shape is itself memoized under its new key.
    session.execute(query)
    assert counting.n_elements == 60


def test_rng_seeded_scorers_fingerprint_by_content():
    """Arrays fold by bytes: equal contents hit, different seeds miss."""
    rng = random.Random(7)
    for _ in range(50):
        seed = rng.randrange(1_000_000)
        make = lambda s: ThresholdScorer(
            1.0, np.random.default_rng(s).normal(size=8))
        assert udf_fingerprint(make(seed)) == udf_fingerprint(make(seed))
        assert (udf_fingerprint(make(seed))
                != udf_fingerprint(make(seed + 1)))


def test_memo_shared_across_where_subsets_priors_are_not(memo_table):
    """Composition: memo keys ignore WHERE, prior scopes embed it."""
    from repro.parallel.cache import subset_fingerprint
    from repro.memo.priors import shard_scope, single_scope

    session, scorer = make_session(memo_table)
    narrow = ("SELECT TOP 3 FROM t ORDER BY f WHERE feature[1] < 0.3 "
              "BUDGET 30 SEED 2")
    wide = ("SELECT TOP 3 FROM t ORDER BY f WHERE feature[1] < 0.6 "
            "BUDGET 40 SEED 2")
    session.execute(narrow, warm_start=True)
    calls = scorer.n_elements
    assert calls == 30
    session.execute(wide, warm_start=True)
    # The wide subset strictly contains the narrow one: every element the
    # narrow run scored is served from the memo when drawn again.
    stats = session.cache_stats("t")
    assert stats["hits"] > 0
    assert scorer.n_elements == calls + 40 - stats["hits"]

    # Prior scopes for the two subsets are distinct keys...
    narrow_ids = sorted(i for i in memo_table.ids()
                        if memo_table.features()[int(i[1:])][1] < 0.3)
    wide_ids = sorted(i for i in memo_table.ids()
                      if memo_table.features()[int(i[1:])][1] < 0.6)
    assert (single_scope(subset_fingerprint(narrow_ids))
            != single_scope(subset_fingerprint(wide_ids)))
    assert (shard_scope(0, 2, 123, subset_fingerprint(narrow_ids))
            != shard_scope(0, 2, 123, subset_fingerprint(wide_ids)))
    # ... and both harvested under the session's prior store.
    store = session._prior_stores["t"]
    assert len(store) == 2


def test_unfingerprintable_attribute_disables_caching(memo_table):
    rng = random.Random(31)
    for _ in range(20):
        scorer = ThresholdScorer(rng.uniform(0, 2), [1.0])
        poison_depth = rng.choice([0, 1])
        if poison_depth == 0:
            scorer.handle = object()
        else:
            scorer.config = {"inner": object()}
        assert udf_fingerprint(scorer) is None
    # End-to-end: the session degrades to cache-off, queries still run.
    scorer = ThresholdScorer(0.0, [1.0])
    scorer.handle = object()
    session, _ = make_session(memo_table, scorer=scorer)
    plan = session.plan("SELECT TOP 3 FROM t ORDER BY f BUDGET 20 SEED 0")
    assert plan.cache_enabled is False
    result = session.execute("SELECT TOP 3 FROM t ORDER BY f "
                             "BUDGET 20 SEED 0")
    assert len(result.items) == 3


def test_fingerprint_cycle_and_depth_safety():
    """Self-referential and deep attribute graphs terminate, not recurse."""
    scorer = ThresholdScorer(1.0, [1.0])
    scorer.loop = scorer  # cycle
    assert udf_fingerprint(scorer) is not None
    deep = ThresholdScorer(1.0, [1.0])
    nest = []
    for _ in range(40):
        nest = [nest]
    deep.nest = nest
    assert udf_fingerprint(deep) is None  # too deep -> disabled, not crash
