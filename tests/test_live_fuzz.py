"""Random writes against a plain-dict model (ROADMAP 4(e)).

A hypothesis state machine drives one ``LiveTable`` registered on a
session with random append / update (with and without ``objects=``) /
delete batches — several between queries, so one ``advance`` folds several
deltas — pins snapshots at random points, forces compactions, and checks
everything against a model that is nothing but an insertion-ordered dict
``id -> (feature row, object)``:

* after every step the table and every pinned snapshot still read exactly
  their version: ``ids()`` order, ``len``, ``features()``, ``features_of``,
  ``feature_of``, ``fetch_batch`` and the unknown-id errors;
* after every query (one ``advance``) the maintained tree passes the full
  ``ClusterTree.validate()``, its leaves hold exactly the live ids,
  ``_leaf_of`` and the per-leaf member dicts agree with them, ``_sum`` /
  ``_count`` match a recomputation from the model, the write log holds
  nothing the binding has pulled, and an unbudgeted query returns the
  brute-force top-k.

Scores are distinct by construction (a counter), so the top-k is unique.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.errors import ConfigurationError
from repro.index.builder import IndexConfig
from repro.live import LiveTable
from repro.scoring.base import FunctionScorer
from repro.session import OpaqueQuerySession

DIM = 3
K = 4
SQL = f"SELECT TOP {K} FROM t ORDER BY f BATCH 4 SEED 2"

#: Small integers: sums of them are exact, so aggregates compare tightly.
ROWS = st.lists(st.tuples(*[st.integers(-6, 6)] * DIM), min_size=1,
                max_size=9)


class LiveTableMachine(RuleBasedStateMachine):
    @initialize(rows=st.lists(st.tuples(*[st.integers(-6, 6)] * DIM),
                              min_size=0, max_size=24))
    def start(self, rows):
        self.serial = itertools.count()
        self.model = {}
        ids, objects, features = self._fresh(rows)
        self.model.update(zip(ids, zip(features, objects)))
        self.table = LiveTable(ids, objects, np.array(features).reshape(
            len(ids), DIM), name="t")
        self.session = OpaqueQuerySession()
        self.session.register_table(
            "t", self.table, index_config=IndexConfig(n_clusters=4))
        self.session.register_udf("f", FunctionScorer(float))
        self.pinned = []
        self.pending = 0        # writes the binding has not pulled yet
        self.maintainer = None

    def _fresh(self, rows):
        """Ids never seen before and scores no other element has."""
        numbers = [next(self.serial) for _ in rows]
        return ([f"e{n:04d}" for n in numbers], [float(n) for n in numbers],
                [np.array(row, dtype=float) for row in rows])

    def _pick(self, data, max_size=7):
        return data.draw(st.lists(st.sampled_from(list(self.model)),
                                  min_size=1, max_size=max_size,
                                  unique=True))

    # -- writes --------------------------------------------------------------

    @rule(rows=ROWS)
    def append(self, rows):
        ids, objects, features = self._fresh(rows)
        self.table.append(ids, objects, np.array(features))
        self.model.update(zip(ids, zip(features, objects)))
        self.pending += 1

    @precondition(lambda self: self.model)
    @rule(data=st.data(), with_objects=st.booleans())
    def update(self, data, with_objects):
        ids = self._pick(data)
        rows = data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * DIM),
                                  min_size=len(ids), max_size=len(ids)))
        _, objects, features = self._fresh(rows)
        self.table.update(ids, np.array(features),
                          objects if with_objects else None)
        for element_id, row, value in zip(ids, features, objects):
            kept = self.model[element_id][1]
            self.model[element_id] = (row, value if with_objects else kept)
        self.pending += 1

    @precondition(lambda self: self.model)
    @rule(data=st.data(), everything=st.booleans())
    def delete(self, data, everything):
        ids = (list(self.model) if everything and len(self.model) < 12
               else self._pick(data))
        self.table.delete(ids)
        for element_id in ids:
            del self.model[element_id]
        self.pending += 1

    @rule()
    def refused_writes_change_nothing(self):
        version = self.table.version
        with pytest.raises(ConfigurationError, match="unknown element id"):
            self.table.delete(["nope"])
        with pytest.raises(ConfigurationError, match="unknown element id"):
            self.table.update(["nope"], np.zeros((1, DIM)))
        if self.model:
            known = next(iter(self.model))
            with pytest.raises(ConfigurationError, match="already present"):
                self.table.append([known], None, np.zeros((1, DIM)))
        assert self.table.version == version

    # -- readers -------------------------------------------------------------

    @rule()
    def pin(self):
        self.pinned.append((self.table.snapshot(), dict(self.model)))
        del self.pinned[:-4]

    @rule()
    def compact(self):
        with self.table._lock:
            self.table._compact()
        stats = self.table.stats()
        assert stats["rows_written"] == stats["rows"] == len(self.model)

    @rule()
    def query(self):
        """One advance over every pending delta, then the full audit."""
        result = self.session.execute(SQL, use_cache=False)
        if self.maintainer is None:
            self.maintainer = self.session._binding("t").maintainer
            self.maintainer.max_leaf_size = 6       # splits happen
            self.maintainer._rebuild_threshold = 4.0  # rebuilds are rare
        self.pending = 0
        assert self.table.deltas_since(0) == []
        self._audit_index()
        brute = sorted(((value, element_id) for element_id, (_, value)
                        in self.model.items()), reverse=True)[:K]
        assert [(element_id, score) for element_id, score
                in result.items] == [(i, v) for v, i in brute]

    def _audit_index(self):
        maintainer = self.maintainer
        assert maintainer.version == self.table.version
        tree = maintainer.tree
        tree.validate()
        leaves = tree.leaves()
        assert (sorted(m for leaf in leaves for m in leaf.member_ids)
                == sorted(self.model))
        assert set(maintainer._leaf_of) == set(self.model)
        assert set(maintainer._members_of) == {leaf.node_id for leaf in leaves}
        for leaf in leaves:
            assert tuple(maintainer._members_of[leaf.node_id]) == leaf.member_ids
            for member in leaf.member_ids:
                assert maintainer._leaf_of[member] == leaf.node_id
        nodes = tree.nodes()
        assert set(maintainer._sum) == set(maintainer._count) == {
            node.node_id for node in nodes}
        for node in nodes:
            below = [m for leaf in node.iter_leaves()
                     for m in leaf.member_ids]
            assert maintainer._count[node.node_id] == len(below)
            total = sum((self.model[m][0] for m in below), np.zeros(DIM))
            np.testing.assert_allclose(maintainer._sum[node.node_id], total,
                                       atol=1e-9)

    # -- what must hold after every step -------------------------------------

    @invariant()
    def log_holds_exactly_the_unpulled_writes(self):
        if self.maintainer is not None:
            assert len(self.table.deltas_since(0)) == self.pending

    @invariant()
    def every_reader_sees_its_version(self):
        for reader, model in [(self.table, self.model)] + self.pinned:
            ids = list(model)
            assert reader.ids() == ids
            assert len(reader) == len(ids)
            features = reader.features()
            assert features.shape == (len(ids), DIM)
            if ids:
                want = np.array([model[i][0] for i in ids])
                assert np.array_equal(features, want)
                some = ids[::-2]
                assert np.array_equal(reader.features_of(some),
                                      want[::-2])
                assert np.array_equal(reader.feature_of(ids[-1]), want[-1])
                assert reader.fetch_batch(some) == [model[i][1]
                                                    for i in some]
                assert reader.fetch(ids[0]) == model[ids[0]][1]
            for read in (reader.fetch, reader.feature_of):
                with pytest.raises(ConfigurationError,
                                   match="unknown element id 'nope'"):
                    read("nope")
            for read in (reader.fetch_batch, reader.features_of):
                with pytest.raises(ConfigurationError,
                                   match="unknown element id 'nope'"):
                    read(ids[:1] + ["nope"])


LiveTableMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None)
TestLiveTableAgainstModel = LiveTableMachine.TestCase
