"""WHERE pushdown and EXPLAIN: filtering exactness, savings, plan output."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import QueryResult
from repro.data.dataset import InMemoryDataset
from repro.errors import ConfigurationError
from repro.index.builder import IndexConfig, build_index
from repro.index.tree import ClusterTree
from repro.query import ExecutionPlan, parse
from repro.scoring.base import CountingScorer, FunctionScorer
from repro.session import OpaqueQuerySession

N_ROWS = 100
PREDICATE = "feature[1] < 0.3"  # keeps rows with i % 10 in {0, 1, 2}


def build_table() -> InMemoryDataset:
    """Deterministic table: feature[0] = score value, feature[1] = i%10/10."""
    values = np.random.default_rng(0).normal(loc=5.0, size=N_ROWS)
    values = np.maximum(values, 0.0)
    ids = [f"r{i:03d}" for i in range(N_ROWS)]
    features = np.column_stack([values, (np.arange(N_ROWS) % 10) / 10.0])
    return InMemoryDataset(ids, values.tolist(), features)


def brute_force_filtered_topk(dataset: InMemoryDataset, k: int):
    """Ground truth: filter by the predicate, then exact top-k by score."""
    mask = parse(f"SELECT TOP 1 FROM t ORDER BY f WHERE {PREDICATE}") \
        .where.mask(dataset.features())
    rows = [(element_id, float(dataset.fetch(element_id)))
            for element_id, keep in zip(dataset.ids(), mask) if keep]
    rows.sort(key=lambda row: row[1], reverse=True)
    return rows[:k], len(rows)


@pytest.fixture()
def setup():
    dataset = build_table()
    scorer = CountingScorer(FunctionScorer(lambda v: max(0.0, float(v))))
    session = OpaqueQuerySession()
    session.register_table("t", dataset,
                           index_config=IndexConfig(n_clusters=5))
    session.register_udf("f", scorer)
    return session, dataset, scorer


class TestRestrictedTree:
    def build_tree(self) -> ClusterTree:
        dataset = build_table()
        return build_index(dataset.features(), dataset.ids(),
                           IndexConfig(n_clusters=5), rng=0)

    def test_masked_members_and_pruned_leaves(self):
        tree = self.build_tree()
        allowed = set(tree.leaves()[0].member_ids)
        restricted = tree.restricted(allowed)
        assert restricted.n_elements() == len(allowed)
        assert set().union(*(leaf.member_ids
                             for leaf in restricted.leaves())) == allowed
        restricted.validate()

    def test_member_order_and_centroids_preserved(self):
        tree = self.build_tree()
        keep = set(tree.leaves()[1].member_ids[::2])
        restricted = tree.restricted(keep)
        for original, masked in zip(
                (leaf for leaf in tree.leaves()
                 if set(leaf.member_ids) & keep),
                restricted.leaves()):
            expected = tuple(m for m in original.member_ids if m in keep)
            assert masked.member_ids == expected
            assert masked.node_id == original.node_id
            if original.centroid is not None:
                assert np.array_equal(masked.centroid, original.centroid)

    def test_empty_restriction_yields_valid_empty_tree(self):
        restricted = self.build_tree().restricted([])
        assert restricted.n_elements() == 0
        restricted.validate()

    def test_original_tree_untouched(self):
        tree = self.build_tree()
        before = tree.n_elements()
        tree.restricted(tree.leaves()[0].member_ids[:1])
        assert tree.n_elements() == before


class TestWherePushdownExactness:
    def test_exact_answer_with_strictly_fewer_scores(self, setup):
        """The acceptance pin: an unbudgeted WHERE query returns exactly
        the post-filtered answer while scoring only the candidates."""
        session, dataset, scorer = setup
        expected, n_candidates = brute_force_filtered_topk(dataset, k=5)
        result = session.execute(
            f"SELECT TOP 5 FROM t ORDER BY f WHERE {PREDICATE} SEED 0"
        )
        assert isinstance(result, QueryResult)
        assert result.items == pytest.approx(expected) or \
            result.ids == [element_id for element_id, _ in expected]
        assert result.scores == pytest.approx(
            [score for _, score in expected]
        )
        # Pushdown scored every candidate — and nothing else.
        assert n_candidates == 30
        assert scorer.n_elements == n_candidates
        assert result.budget_spent == n_candidates
        assert scorer.n_elements < len(dataset)  # strictly fewer than a scan
        # Scoring every candidate makes the filtered answer exact.
        assert result.displacement_bound == 0.0

    def test_budgeted_where_stays_inside_candidates(self, setup):
        session, dataset, _scorer = setup
        mask = parse(f"SELECT TOP 1 FROM t ORDER BY f WHERE {PREDICATE}") \
            .where.mask(dataset.features())
        allowed = {element_id for element_id, keep
                   in zip(dataset.ids(), mask) if keep}
        result = session.execute(
            f"SELECT TOP 3 FROM t ORDER BY f WHERE {PREDICATE} "
            f"BUDGET 10 SEED 0"
        )
        assert result.budget_spent == 10
        assert set(result.ids) <= allowed

    def test_budget_fraction_resolves_against_candidates(self, setup):
        session, _dataset, scorer = setup
        result = session.execute(
            f"SELECT TOP 3 FROM t ORDER BY f WHERE {PREDICATE} "
            f"BUDGET 50% SEED 0"
        )
        assert result.budget_spent == 15  # 50% of 30 candidates, not of 100
        assert scorer.n_elements == 15

    @pytest.mark.parametrize("suffix", ["WORKERS 2", "WORKERS 2 STREAM"])
    def test_sharded_and_streaming_where_are_exact(self, setup, suffix):
        session, dataset, scorer = setup
        expected, n_candidates = brute_force_filtered_topk(dataset, k=5)
        result = session.execute(
            f"SELECT TOP 5 FROM t ORDER BY f WHERE {PREDICATE} "
            f"SEED 0 {suffix}"
        )
        assert result.ids == [element_id for element_id, _ in expected]
        assert result.budget_spent == n_candidates
        assert scorer.n_elements == n_candidates

    def test_empty_filter_returns_empty_answer(self, setup):
        session, _dataset, scorer = setup
        result = session.execute(
            "SELECT TOP 5 FROM t ORDER BY f WHERE feature[1] > 99 SEED 0"
        )
        assert result.items == []
        assert scorer.n_elements == 0

    def test_empty_filter_streams_one_converged_empty_snapshot(self, setup):
        session, _dataset, scorer = setup
        snapshots = list(session.stream(
            "SELECT TOP 5 FROM t ORDER BY f WHERE feature[1] > 99 SEED 0 "
            "WORKERS 2"
        ))
        assert len(snapshots) == 1
        assert snapshots[0].converged
        assert snapshots[0].top_k == []
        assert snapshots[0].displacement_bound == 0.0
        assert scorer.n_elements == 0

    def test_where_clamps_workers_to_candidates(self, setup):
        """A filter leaving fewer candidates than shards clamps the
        worker count instead of failing with a worker-count error."""
        session, dataset, _scorer = setup
        features = dataset.features()
        threshold = float(np.sort(features[:, 0])[-2])  # keeps ~2 rows
        plan = session.plan(
            f"SELECT TOP 1 FROM t ORDER BY f WHERE feature[0] >= "
            f"{threshold} SEED 0 WORKERS 8"
        )
        assert 1 <= plan.workers == plan.n_candidates <= 8
        result = session.execute(
            f"SELECT TOP 1 FROM t ORDER BY f WHERE feature[0] >= "
            f"{threshold} SEED 0 WORKERS 8"
        )
        assert len(result.items) == 1

    def test_sharded_where_survives_snapshot_restore(self, setup):
        """A filtered sharded run restores over the same candidate
        subset, not the full table."""
        from repro.parallel.engine import ShardedTopKEngine

        _session, dataset, _scorer = setup
        scorer = FunctionScorer(lambda v: max(0.0, float(v)))
        mask = parse(f"SELECT TOP 1 FROM t ORDER BY f WHERE {PREDICATE}") \
            .where.mask(dataset.features())
        allowed = [element_id for element_id, keep
                   in zip(dataset.ids(), mask) if keep]
        expected, n_candidates = brute_force_filtered_topk(dataset, k=5)
        with ShardedTopKEngine(dataset, scorer, k=5, n_workers=2,
                               seed=0, ids=allowed) as engine:
            engine.run(10)
            snap = engine.snapshot()
        with ShardedTopKEngine.restore(dataset, scorer, snap) as resumed:
            resumed.start()
            assert all(member in set(allowed)
                       for shard in resumed.backend.inline_workers()
                       for member in shard.member_ids)
            result = resumed.run(None)  # exhaust the candidates
        assert result.total_scored == n_candidates
        assert result.ids == [element_id for element_id, _ in expected]

    def test_streaming_where_survives_snapshot_restore(self, setup):
        from repro.streaming.engine import StreamingTopKEngine

        _session, dataset, _scorer = setup
        scorer = FunctionScorer(lambda v: max(0.0, float(v)))
        mask = parse(f"SELECT TOP 1 FROM t ORDER BY f WHERE {PREDICATE}") \
            .where.mask(dataset.features())
        allowed = [element_id for element_id, keep
                   in zip(dataset.ids(), mask) if keep]
        expected, n_candidates = brute_force_filtered_topk(dataset, k=5)
        with StreamingTopKEngine(dataset, scorer, k=5, n_workers=2,
                                 slice_budget=5, seed=0,
                                 ids=allowed) as engine:
            engine.run(10)
            snap = engine.snapshot()
        with StreamingTopKEngine.restore(dataset, scorer, snap) as resumed:
            result = resumed.run(None)
        assert result.total_scored == n_candidates
        assert result.ids == [element_id for element_id, _ in expected]

    def test_every_kwarg_implies_streaming(self, setup):
        from repro.streaming.engine import StreamingResult

        session, _dataset, _scorer = setup
        result = session.execute(parse(
            "SELECT TOP 3 FROM t ORDER BY f BUDGET 40 SEED 0"
        ).with_defaults(every=10))
        assert isinstance(result, StreamingResult)

    def test_where_subset_keys_the_shard_cache(self, setup):
        session, _dataset, _scorer = setup
        query = (f"SELECT TOP 5 FROM t ORDER BY f WHERE {PREDICATE} "
                 f"SEED 0 WORKERS 2")
        session.execute(query)
        cache = session._binding("t").shard_cache
        assert len(cache) == 1 and cache.hits == 0
        session.execute(query)  # same predicate -> warm hit
        assert cache.hits == 1
        session.execute(query.replace("< 0.3", "< 0.5"))
        assert len(cache) == 2  # different candidates -> different key


    def test_subset_is_fingerprinted_once_per_dispatch(self, setup,
                                                       monkeypatch):
        """The SHA-256 pass over every candidate id happens at plan time
        and rides the plan to the prior scopes and the shard-cache key."""
        import sys

        import repro.parallel.cache as cache_module

        real, calls = cache_module.subset_fingerprint, []
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "subset_fingerprint", None) is real):
                monkeypatch.setattr(
                    module, "subset_fingerprint",
                    lambda ids: (calls.append(ids), real(ids))[1])
        session, _dataset, _scorer = setup
        for suffix in (" WORKERS 2", " WORKERS 2 STREAM", ""):
            del calls[:]
            result = session.execute(
                f"SELECT TOP 5 FROM t ORDER BY f WHERE {PREDICATE} SEED 0"
                + suffix)     # first of its mode: the shard cache is cold
            assert len(result.items) == 5
            assert len(calls) == 1 and calls[0] is not None


class TestExplain:
    def test_explain_returns_plan_without_executing(self, setup):
        session, _dataset, scorer = setup
        plan = session.execute(
            f"EXPLAIN SELECT TOP 5 FROM t ORDER BY f WHERE {PREDICATE} "
            f"BUDGET 20 SEED 0"
        )
        assert isinstance(plan, ExecutionPlan)
        assert scorer.n_elements == 0  # nothing was scored

    def test_explain_snapshot_single(self, setup):
        session, _dataset, _scorer = setup
        plan = session.execute(
            f"EXPLAIN SELECT TOP 5 FROM t ORDER BY f WHERE {PREDICATE} "
            f"BUDGET 20 SEED 0"
        )
        assert plan.explain() == (
            "== execution plan ==\n"
            "query:     EXPLAIN SELECT TOP 5 FROM t ORDER BY f "
            "WHERE feature[1] < 0.3 BUDGET 20 SEED 0\n"
            "executor:  single\n"
            "table:     t (100 elements)\n"
            "udf:       f\n"
            "filter:    feature[1] < 0.3 -> 30 of 100 elements "
            "(30.0% selectivity)\n"
            "budget:    20 scoring calls\n"
            "batch:     1\n"
            "seed:      0\n"
            "cache:     on (expected hit rate 0.0%: 0 of 30 candidates "
            "memoized)"
        )

    def test_explain_snapshot_streaming(self, setup):
        session, _dataset, _scorer = setup
        plan = session.execute(
            "EXPLAIN SELECT TOP 5 FROM t ORDER BY f WORKERS 2 STREAM "
            "EVERY 50 CONFIDENCE 0.9"
        )
        assert plan.explain() == (
            "== execution plan ==\n"
            "query:     EXPLAIN SELECT TOP 5 FROM t ORDER BY f WORKERS 2 "
            "STREAM EVERY 50 CONFIDENCE 0.9\n"
            "executor:  streaming\n"
            "table:     t (100 elements)\n"
            "udf:       f\n"
            "budget:    exhaustive (all candidates)\n"
            "batch:     1\n"
            "seed:      fresh entropy\n"
            "workers:   2\n"
            "backend:   serial\n"
            "every:     50\n"
            "confidence: 0.9\n"
            "cache:     on (expected hit rate 0.0%: 0 of 100 candidates "
            "memoized)"
        )

    def test_explain_snapshot_warm_table(self, setup):
        """EXPLAIN on a warm table reports a nonzero expected hit rate."""
        session, _dataset, _scorer = setup
        query = (f"SELECT TOP 5 FROM t ORDER BY f WHERE {PREDICATE} "
                 f"BUDGET 20 SEED 0")
        session.execute(query)  # warms 20 of the 30 candidates
        plan = session.execute("EXPLAIN " + query)
        assert plan.explain() == (
            "== execution plan ==\n"
            "query:     EXPLAIN SELECT TOP 5 FROM t ORDER BY f "
            "WHERE feature[1] < 0.3 BUDGET 20 SEED 0\n"
            "executor:  single\n"
            "table:     t (100 elements)\n"
            "udf:       f\n"
            "filter:    feature[1] < 0.3 -> 30 of 100 elements "
            "(30.0% selectivity)\n"
            "budget:    20 scoring calls\n"
            "batch:     1\n"
            "seed:      0\n"
            "cache:     on (expected hit rate 66.7%: 20 of 30 candidates "
            "memoized)"
        )

    def test_explain_snapshot_cache_off(self, setup):
        session, _dataset, _scorer = setup
        plan = session.execute(
            "EXPLAIN SELECT TOP 5 FROM t ORDER BY f BUDGET 20 SEED 0",
            use_cache=False,
        )
        assert plan.explain().splitlines()[-1] == "cache:     off"

    def test_explained_plan_is_executable(self, setup):
        from dataclasses import replace

        session, _dataset, _scorer = setup
        plan = session.execute(
            "EXPLAIN SELECT TOP 5 FROM t ORDER BY f BUDGET 20 SEED 0"
        )
        assert isinstance(plan, ExecutionPlan)
        # Dropping the EXPLAIN marker re-dispatches the same logical plan.
        result = session.execute(replace(plan.query, explain=False))
        assert len(result.items) == 5

    def test_stream_of_explain_rejected(self, setup):
        session, _dataset, _scorer = setup
        with pytest.raises(ConfigurationError, match="EXPLAIN"):
            list(session.stream(
                "EXPLAIN SELECT TOP 5 FROM t ORDER BY f"
            ))


class TestCallerKwargValidation:
    """Caller-side defaults validate exactly like the equivalent clauses."""

    QUERY = parse("SELECT TOP 3 FROM t ORDER BY f BUDGET 10 SEED 0")

    def test_bogus_backend_kwarg_rejected(self, setup):
        session, _dataset, scorer = setup
        with pytest.raises(ConfigurationError, match="unknown backend"):
            session.execute(self.QUERY.with_defaults(backend="bogus"))
        assert scorer.n_elements == 0

    def test_zero_every_kwarg_rejected(self, setup):
        session, _dataset, _scorer = setup
        with pytest.raises(ConfigurationError, match="every must be"):
            session.execute(self.QUERY.with_defaults(every=0))

    def test_out_of_range_confidence_kwarg_rejected(self, setup):
        session, _dataset, _scorer = setup
        with pytest.raises(ConfigurationError, match="confidence"):
            session.execute(self.QUERY.with_defaults(confidence=1.5))

    def test_zero_workers_kwarg_rejected(self, setup):
        session, _dataset, _scorer = setup
        with pytest.raises(ConfigurationError, match="workers must be"):
            session.execute(self.QUERY.with_defaults(workers=0))

    def test_stream_kwarg_validates_backend_too(self, setup):
        session, _dataset, _scorer = setup
        with pytest.raises(ConfigurationError, match="unknown backend"):
            session.execute(
                self.QUERY.with_defaults(stream=True, backend="gpu"))


class TestReservedRegistryNames:
    def test_keyword_table_name_rejected_at_registration(self):
        session = OpaqueQuerySession()
        with pytest.raises(ConfigurationError, match="reserved dialect"):
            session.register_table("stream", build_table())
        with pytest.raises(ConfigurationError, match="reserved dialect"):
            session.register_table("WHERE", build_table())

    def test_keyword_udf_name_rejected_at_registration(self):
        session = OpaqueQuerySession()
        with pytest.raises(ConfigurationError, match="reserved dialect"):
            session.register_udf(
                "backend", FunctionScorer(lambda v: float(v))
            )

    def test_ordinary_names_still_register(self):
        session = OpaqueQuerySession()
        session.register_table("streams", build_table())  # plural: fine
        session.register_udf("features", FunctionScorer(lambda v: float(v)))
