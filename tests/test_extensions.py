"""Tests for the Section 7 extensions: data acquisition, fixed-budget
execution, and the declarative session interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications.acquisition import (
    DataSourceUnion,
    UncertaintyScorer,
    acquire_topk,
)
from repro.core.budgeted import budgeted_config, run_budgeted
from repro.core.engine import EngineConfig, TopKEngine
from repro.core.policies import FrontLoadedExploration
from repro.data.synthetic import SyntheticClustersDataset
from repro.errors import ConfigurationError
from repro.index.builder import IndexConfig, build_index
from repro.scoring.base import FunctionScorer
from repro.scoring.linear import LogisticRegressionModel
from repro.scoring.relu import ReluScorer
from repro.query import parse
from repro.session import OpaqueQuerySession


class TestDataSourceUnion:
    def make_union(self, rng):
        union = DataSourceUnion()
        for name, center in (("vendor", 0.0), ("crawl", 5.0)):
            points = rng.normal(center, 1.0, size=(50, 2))
            union.add_source(
                name,
                [f"{i}" for i in range(50)],
                [row for row in points],
                features=points,
            )
        return union

    def test_namespacing(self, rng):
        union = self.make_union(rng)
        assert len(union.ids()) == 100
        assert union.source_of("vendor/3") == "vendor"
        assert union.fetch("crawl/0") is not None

    def test_duplicate_source_rejected(self, rng):
        union = self.make_union(rng)
        with pytest.raises(ConfigurationError):
            union.add_source("vendor", ["x"], [1])

    def test_slash_in_name_rejected(self):
        with pytest.raises(ConfigurationError):
            DataSourceUnion().add_source("a/b", ["x"], [1])

    def test_empty_source_rejected(self):
        with pytest.raises(ConfigurationError):
            DataSourceUnion().add_source("a", [], [])

    def test_cluster_tree_one_arm_per_source(self, rng):
        union = self.make_union(rng)
        tree = union.as_cluster_tree()
        assert tree.n_leaves() == 2
        assert tree.n_elements() == 100

    def test_empty_union_rejected(self):
        with pytest.raises(ConfigurationError):
            DataSourceUnion().as_cluster_tree()


class TestUncertaintyScorer:
    def test_boundary_scores_highest(self, rng):
        X = np.vstack([
            rng.normal(-3, 0.5, size=(100, 1)),
            rng.normal(3, 0.5, size=(100, 1)),
        ])
        y = np.concatenate([np.zeros(100), np.ones(100)])
        model = LogisticRegressionModel(rng=0).fit(X, y)
        scorer = UncertaintyScorer(model)
        near = scorer.score(np.asarray([0.0]))
        far = scorer.score(np.asarray([5.0]))
        assert near > 0.8
        assert far < 0.2

    def test_batch_matches_single(self, rng):
        X = rng.normal(size=(50, 2))
        y = (X[:, 0] > 0).astype(float)
        model = LogisticRegressionModel(rng=0).fit(X, y)
        scorer = UncertaintyScorer(model)
        objs = [X[i] for i in range(5)]
        assert np.allclose(scorer.score_batch(objs),
                           [scorer.score(o) for o in objs])

    def test_scores_in_unit_interval(self, rng):
        X = rng.normal(size=(60, 2))
        y = (X.sum(axis=1) > 0).astype(float)
        model = LogisticRegressionModel(rng=0).fit(X, y)
        scores = UncertaintyScorer(model).score_batch(list(X))
        assert (scores >= 0).all() and (scores <= 1).all()


class TestAcquireTopK:
    def test_concentrates_on_boundary_source(self, rng):
        """The source straddling the decision boundary should dominate."""
        X_train = np.vstack([
            rng.normal(-3, 0.8, size=(80, 2)),
            rng.normal(3, 0.8, size=(80, 2)),
        ])
        y_train = np.concatenate([np.zeros(80), np.ones(80)])
        model = LogisticRegressionModel(rng=0).fit(X_train, y_train)

        union = DataSourceUnion()
        certain = rng.normal(-4, 0.4, size=(150, 2))  # deep in class 0
        boundary = rng.normal(0, 0.4, size=(150, 2))  # on the boundary
        union.add_source("certain", [str(i) for i in range(150)],
                         list(certain), features=certain)
        union.add_source("boundary", [str(i) for i in range(150)],
                         list(boundary), features=boundary)

        report = acquire_topk(union, UncertaintyScorer(model), k=30,
                              budget=180, seed=0)
        assert len(report.acquired_ids) == 30
        assert report.per_source_counts["boundary"] > \
            report.per_source_counts["certain"]
        assert "boundary" in report.summary()

    def test_config_k_mismatch_rejected(self, rng):
        union = DataSourceUnion()
        union.add_source("s", ["a", "b"], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            acquire_topk(union, ReluScorer(), k=1, budget=2,
                         config=EngineConfig(k=5))


class TestBudgetedExecution:
    def test_config_front_loads_exploration(self):
        base = EngineConfig(k=10)
        config = budgeted_config(base, budget=1000)
        assert isinstance(config.exploration, FrontLoadedExploration)
        assert config.exploration.cutoff == round(1000 ** (2 / 3))
        # Base is untouched (dataclasses.replace).
        assert not isinstance(base.exploration, FrontLoadedExploration)

    def test_tiny_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            budgeted_config(EngineConfig(k=5), budget=2)

    def test_run_budgeted_quality(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=8,
                                                    per_cluster=150, rng=1)
        index = dataset.true_index()
        result = run_budgeted(index, dataset, ReluScorer(), k=15,
                              budget=len(dataset) // 4, seed=0)
        assert result.n_scored == len(dataset) // 4
        # Exploration happened only at the front.
        assert result.n_explore > 0
        truth_best = max(dataset.fetch(i) for i in dataset.ids())
        assert result.scores[0] > 0.7 * truth_best

    def test_k_mismatch_rejected(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=3,
                                                    per_cluster=30, rng=0)
        with pytest.raises(ConfigurationError):
            run_budgeted(dataset.true_index(), dataset, ReluScorer(), k=5,
                         budget=50, base=EngineConfig(k=9))


class TestParseQuery:
    def test_minimal(self):
        parsed = parse("SELECT TOP 10 FROM t ORDER BY f")
        assert parsed.k == 10 and parsed.table == "t" and parsed.udf == "f"
        assert parsed.budget is None and parsed.budget_fraction is None
        assert parsed.batch_size == 1 and parsed.seed is None

    def test_full_clause(self):
        parsed = parse(
            "select top 250 from listings order by valuation desc "
            "budget 10% batch 32 seed 7;"
        )
        assert parsed.k == 250
        assert parsed.table == "listings"
        assert parsed.udf == "valuation"
        assert parsed.budget_fraction == pytest.approx(0.1)
        assert parsed.batch_size == 32
        assert parsed.seed == 7

    def test_absolute_budget(self):
        parsed = parse("SELECT TOP 5 FROM t ORDER BY f BUDGET 500")
        assert parsed.budget == 500 and parsed.budget_fraction is None

    def test_malformed_rejected(self):
        for bad in (
            "SELECT * FROM t",
            "SELECT TOP FROM t ORDER BY f",
            "SELECT TOP 5 FROM t",
            "SELECT TOP 5 FROM t ORDER BY f BUDGET 200%",
        ):
            with pytest.raises(ConfigurationError):
                parse(bad)


class TestOpaqueQuerySession:
    @pytest.fixture
    def session(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=6,
                                                    per_cluster=100, rng=4)
        session = OpaqueQuerySession()
        session.register_table("numbers", dataset,
                               index_config=IndexConfig(n_clusters=6))
        session.register_udf("relu", ReluScorer())
        session.register_udf("squared",
                             FunctionScorer(lambda v: float(v) ** 2))
        return session

    def test_execute_returns_k_rows(self, session):
        result = session.execute(
            "SELECT TOP 7 FROM numbers ORDER BY relu BUDGET 40% SEED 1"
        )
        assert len(result.items) == 7
        assert result.n_scored == int(0.4 * 600)

    def test_index_reused_across_udfs(self, session):
        session.execute("SELECT TOP 3 FROM numbers ORDER BY relu BUDGET 100")
        index_first = session._binding("numbers").index_for()
        session.execute("SELECT TOP 3 FROM numbers ORDER BY squared BUDGET 100")
        assert session._binding("numbers").index_for() is index_first

    def test_unknown_table(self, session):
        with pytest.raises(ConfigurationError):
            session.execute("SELECT TOP 3 FROM nope ORDER BY relu")

    def test_unknown_udf(self, session):
        with pytest.raises(ConfigurationError):
            session.execute("SELECT TOP 3 FROM numbers ORDER BY nope")

    def test_duplicate_registration_rejected(self, session):
        with pytest.raises(ConfigurationError):
            session.register_udf("relu", ReluScorer())

    def test_prebuilt_index_accepted(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=4,
                                                    per_cluster=50, rng=0)
        session = OpaqueQuerySession()
        session.register_table("t", dataset, index=dataset.true_index())
        session.register_udf("relu", ReluScorer())
        result = session.execute("SELECT TOP 5 FROM t ORDER BY relu BUDGET 50")
        assert len(result.items) == 5

    def test_prebuilt_index_coverage_checked(self):
        dataset = SyntheticClustersDataset.generate(n_clusters=4,
                                                    per_cluster=50, rng=0)
        other = SyntheticClustersDataset.generate(n_clusters=2,
                                                  per_cluster=10, rng=1)
        session = OpaqueQuerySession()
        with pytest.raises(ConfigurationError):
            session.register_table("t", dataset, index=other.true_index())
