"""Overlay snapshots against a plain ``dict.copy()`` model.

A live table's locator is a frozen base dict plus an overlay of the ids
written since the last rebase (a row, or ``DELETED`` for a base id since
deleted); a snapshot shares the base and copies the overlay.  This
hypothesis state machine drives one ``LiveTable`` with random append /
update (with and without ``objects=``) / delete batches — appends
include ids deleted earlier, whose base entry says they sit somewhere
else in the id order — plus forced compactions and rebases, and pins
snapshots along the way.  The model is an insertion-ordered dict
``id -> (feature row, object)``, copied with ``dict.copy()`` at every
pin.  After every step the table and every pinned snapshot must read
exactly their version: ``ids()`` order, ``len``, ``fetch_batch``,
``features_of``, ``feature_of``, ``features()``, ``feature_rows()`` and
the "unknown element id" refusal, which names the first id of the
request the version does not hold.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.data.dataset import REBASE_FRACTION
from repro.errors import ConfigurationError
from repro.live import LiveTable

DIM = 2


class OverlayMachine(RuleBasedStateMachine):
    # Tables of 16 rows or more: below that every write rebases, and the
    # overlay (tombstones included) would never outlive its write.
    @initialize(n_rows=st.integers(16, 160))
    def start(self, n_rows):
        self.serial = itertools.count()
        self.model = {}
        self.gone = []          # deleted ids, newest last
        ids = [f"e{next(self.serial):04d}" for _ in range(n_rows)]
        objects = [f"o{i}" for i in ids]
        features = np.arange(n_rows * DIM, dtype=float).reshape(n_rows, DIM)
        self.model.update(zip(ids, zip(features, objects)))
        self.table = LiveTable(ids, objects, features, name="t")
        self.pinned = []

    def _rows(self, data, n):
        rows = data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * DIM),
                                  min_size=n, max_size=n))
        return np.array(rows, dtype=float).reshape(n, DIM)

    def _pick(self, data):
        return data.draw(st.lists(st.sampled_from(list(self.model)),
                                  min_size=1, max_size=6, unique=True))

    # -- writes --------------------------------------------------------------

    @rule(data=st.data(), n_fresh=st.integers(0, 4),
          n_again=st.integers(0, 3), recent=st.booleans())
    def append(self, data, n_fresh, n_again, recent):
        """Fresh ids and deleted ones; a recent delete is most likely
        still a tombstone in the overlay."""
        pool = self.gone[-4:] if recent else self.gone
        again = data.draw(st.lists(st.sampled_from(pool), max_size=n_again,
                                   unique=True)) if pool else []
        ids = data.draw(st.permutations(
            again + [f"e{next(self.serial):04d}" for _ in range(n_fresh)]))
        if not ids:
            return
        objects = [f"o{id_}-{next(self.serial)}" for id_ in ids]
        rows = self._rows(data, len(ids))
        self.table.append(ids, objects, rows)
        self.gone = [id_ for id_ in self.gone if id_ not in again]
        self.model.update(zip(ids, zip(rows, objects)))

    @precondition(lambda self: self.model)
    @rule(data=st.data(), with_objects=st.booleans())
    def update(self, data, with_objects):
        ids = self._pick(data)
        rows = self._rows(data, len(ids))
        objects = [f"u{next(self.serial)}" for _ in ids]
        self.table.update(ids, rows, objects if with_objects else None)
        for id_, row, value in zip(ids, rows, objects):
            kept = self.model[id_][1]
            self.model[id_] = (row, value if with_objects else kept)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        ids = self._pick(data)
        self.table.delete(ids)
        for id_ in ids:
            del self.model[id_]
        self.gone += ids

    @rule()
    def compact(self):
        with self.table._lock:
            self.table._compact()

    @rule()
    def rebase(self):
        with self.table._lock:
            self.table._locator.rebase()

    @rule()
    def pin(self):
        self.pinned.append((self.table.snapshot(), self.model.copy()))
        del self.pinned[:-5]

    # -- what must hold after every step -------------------------------------

    @invariant()
    def overlay_stays_a_fraction_of_the_table(self):
        locator = self.table._locator
        assert len(locator._overlay) <= max(
            0, REBASE_FRACTION * len(locator))

    @invariant()
    def every_reader_reads_its_version(self):
        readers = [(self.table, self.model)] + self.pinned
        for reader, model in readers:
            ids = list(model)
            assert reader.ids() == ids
            assert len(reader) == len(ids)
            features = reader.features()
            assert features.shape == (len(ids), DIM)
            block, rows = reader.feature_rows()
            assert np.array_equal(block if rows is None else block[rows],
                                  features)
            # Ids deleted since (or before) the version, or appended after.
            strangers = [id_ for id_ in itertools.chain(
                self.gone, self.table.ids()) if id_ not in model]
            if ids:
                want = np.array([model[id_][0] for id_ in ids])
                assert np.array_equal(features, want)
                some = ids[::-2]
                assert np.array_equal(reader.features_of(some), want[::-2])
                assert np.array_equal(reader.feature_of(ids[-1]), want[-1])
                assert reader.fetch_batch(some) == [model[id_][1]
                                                    for id_ in some]
            for stranger in strangers[:1] + strangers[-2:] + ["nope"]:
                for read in (reader.fetch, reader.feature_of):
                    with pytest.raises(ConfigurationError,
                                       match=f"unknown element id "
                                             f"'{stranger}'"):
                        read(stranger)
                for read in (reader.fetch_batch, reader.features_of):
                    with pytest.raises(ConfigurationError,
                                       match=f"unknown element id "
                                             f"'{stranger}'"):
                        read(ids[:1] + [stranger, "nope"])


OverlayMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None)
TestOverlaySnapshotsAgainstModel = OverlayMachine.TestCase
