"""Shared fixtures for the test suite, plus the opt-in perf-gate marker."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: opt-in performance regression gate (run with `pytest -m perf`)",
    )


def pytest_collection_modifyitems(config, items):
    """Skip perf-marked tests unless explicitly selected via ``-m``.

    Tier-1 (`pytest -x -q`) must stay fast and hardware-noise free; the
    regression gate re-runs benchmarks, so it only runs when the marker
    expression asks for it.
    """
    markexpr = config.getoption("-m", default="") or ""
    if "perf" in markexpr:
        return
    skip_perf = pytest.mark.skip(
        reason="perf gate is opt-in: run with `pytest -m perf`"
    )
    for item in items:
        if "perf" in item.keywords:
            item.add_marker(skip_perf)

from repro.core.bandit import BanditConfig
from repro.data.synthetic import SyntheticClustersDataset
from repro.index.tree import ClusterNode, ClusterTree


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_synthetic():
    """A 5-cluster, 400-element synthetic dataset."""
    return SyntheticClustersDataset.generate(
        n_clusters=5, per_cluster=80, rng=7
    )


@pytest.fixture
def tiny_tree():
    """A hand-built 2-level tree: root -> (A, B), A -> (a1, a2), B leaf.

    Elements: a1 = {x0..x4}, a2 = {x5..x9}, B = {y0..y9}.
    """
    a1 = ClusterNode("a1", member_ids=tuple(f"x{i}" for i in range(5)))
    a2 = ClusterNode("a2", member_ids=tuple(f"x{i}" for i in range(5, 10)))
    a = ClusterNode("A", children=[a1, a2])
    b = ClusterNode("B", member_ids=tuple(f"y{i}" for i in range(10)))
    return ClusterTree(ClusterNode("root", children=[a, b]))


def select_from(policy, leaf_id: str, size: int = 1):
    """``policy.select`` steered down to one named leaf (white-box helper).

    Steers through the public ``choose=`` hook by recognising the sketches
    on the leaf's root path, so the draw, the pending leaf and the counters
    are exactly what a real descent to that leaf leaves behind.
    """
    path, node = set(), policy.node(leaf_id)
    while node is not None:
        path.add(id(node.histogram))
        node = node.parent
    return policy.select(size, choose=lambda _parent, children: next(
        position for position, sketch in enumerate(children)
        if id(sketch) in path))


@pytest.fixture
def bandit_config():
    """Paper-default bandit configuration."""
    return BanditConfig()


# -- shared table / session builders (memo, fingerprint, query suites) -------

#: Feature layout of :func:`make_table`: feature[0] is the score signal,
#: feature[1] cycles 0.0, 0.1, ..., 0.9 so ``feature[1] < 0.3`` keeps an
#: exact 30% of any row count divisible by 10.
TABLE_PREDICATE = "feature[1] < 0.3"


def make_table(n_rows: int = 100, seed: int = 0, n_features: int = 3):
    """A deterministic :class:`InMemoryDataset` with a filterable column."""
    from repro.data.dataset import InMemoryDataset

    generator = np.random.default_rng(seed)
    features = generator.normal(size=(n_rows, n_features))
    features[:, 1] = (np.arange(n_rows) % 10) / 10.0
    ids = [f"e{i:05d}" for i in range(n_rows)]
    return InMemoryDataset(ids, features[:, 0].tolist(), features)


def make_session(dataset=None, *, n_clusters: int = 5, enable_cache=True,
                 scorer=None):
    """A session with table ``t`` and UDF ``f`` (a counting relu) registered.

    Returns ``(session, scorer)`` — the scorer is the registered
    :class:`CountingScorer`, so tests can read exact UDF call counts.
    """
    from repro.index.builder import IndexConfig
    from repro.scoring.base import CountingScorer, FunctionScorer
    from repro.session import OpaqueQuerySession

    if dataset is None:
        dataset = make_table()
    if scorer is None:
        scorer = CountingScorer(
            FunctionScorer(lambda v: max(0.0, float(v)))
        )
    session = OpaqueQuerySession(enable_cache=enable_cache)
    session.register_table("t", dataset,
                           index_config=IndexConfig(n_clusters=n_clusters))
    session.register_udf("f", scorer)
    return session, scorer


@pytest.fixture
def memo_table():
    """The shared deterministic table of the memo / fingerprint suites."""
    return make_table()


@pytest.fixture
def session_builder(memo_table):
    """Factory of fresh sessions over one shared table.

    Every call returns a brand-new ``(session, scorer)`` pair on the same
    dataset, which is exactly what differential cold-vs-warm comparisons
    need: identical data, independent caches.
    """
    def build(**kwargs):
        return make_session(memo_table, **kwargs)

    return build
