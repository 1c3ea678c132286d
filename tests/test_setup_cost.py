"""Per-query set-up is O(index nodes), not O(rows).

The index is built once and is read-only at query time, so a query must
not copy its member ids: each arm reads its leaf's ``member_ids`` slot
array in place (:mod:`repro.core.arms`), and a warm sharded query takes
its shard partitions from the index cache as the cached tuples
themselves, without reading the table's whole id list.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.engine import EngineConfig, TopKEngine
from repro.data.dataset import Dataset
from repro.data.synthetic import SyntheticClustersDataset
from repro.index.builder import IndexConfig
from repro.index.tree import ClusterTree
from repro.parallel import ShardedTopKEngine, ShardIndexCache
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer

#: 100k members in 32 leaves: a list copy of every leaf is ~800 KB of
#: slots alone, so this bound leaves room for the node table, the
#: histogram bank and 32 generators, but not for one copy of the rows.
ROWS, LEAVES, SETUP_BYTES = 100_000, 32, 256 * 1024


def test_engine_setup_allocates_o_nodes_not_o_rows():
    width = ROWS // LEAVES
    tree = ClusterTree.flat({
        f"leaf-{leaf}": [f"e{row}" for row in
                         range(leaf * width, (leaf + 1) * width)]
        for leaf in range(LEAVES)})
    assert tree.n_elements() == ROWS
    tracemalloc.start()
    try:
        engine = TopKEngine(tree, EngineConfig(k=10, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < SETUP_BYTES
    assert engine.policy.remaining == ROWS
    for leaf in tree.leaves():
        assert engine.policy.node(leaf.node_id).arm._source \
            is leaf.member_ids.slots


class CountingDataset(Dataset):
    """Delegates to ``inner`` and counts the whole-table ``ids()`` reads."""

    def __init__(self, inner: Dataset) -> None:
        self.inner = inner
        self.ids_calls = 0

    def ids(self):
        self.ids_calls += 1
        return self.inner.ids()

    def fetch(self, element_id):
        return self.inner.fetch(element_id)

    def fetch_batch(self, element_ids):
        return self.inner.fetch_batch(element_ids)

    def features(self):
        return self.inner.features()

    def features_of(self, element_ids):
        return self.inner.features_of(element_ids)

    def __len__(self) -> int:
        return len(self.inner)


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_warm_sharded_query_shares_the_cached_partitions(backend):
    dataset = CountingDataset(SyntheticClustersDataset.generate(
        n_clusters=6, per_cluster=100, rng=0))
    scorer = ReluScorer(FixedPerCallLatency(1e-3))
    cache = ShardIndexCache()

    def query():
        engine = ShardedTopKEngine(dataset, scorer, k=10, n_workers=3,
                                   backend=backend, seed=4,
                                   index_config=IndexConfig(n_clusters=4),
                                   index_cache=cache)
        try:
            result = engine.run(200)
            return result, engine.backend.inline_workers()
        finally:
            engine.close()

    cold, _ = query()
    assert dataset.ids_calls == 1 and cache.hits == 0
    warm, workers = query()
    assert cache.hits == 1
    assert dataset.ids_calls == 1  # the warm query read no id list
    assert warm.items == cold.items
    (entry,) = cache._entries.values()
    partitions, indexes = entry
    for worker, members, index in zip(workers, partitions, indexes):
        assert worker.member_ids is members
        assert worker.index is index
