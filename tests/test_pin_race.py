"""A query reads the tree of the version it planned, whatever commits meanwhile.

``session.plan`` pins a live table's snapshot together with the
maintained tree of that same version (``TableBinding.pin``); published
trees are never mutated, and their leaves' slots are block rows of the
snapshot's own storage.  So a write committed between ``plan`` and
``execute`` — an append that would change the answer, or a delete that
compacts the table under the pinned snapshot — leaves the query's
answer what it is without the write, and no index is built for it.
"""

from __future__ import annotations

import pytest

import repro.catalog as catalog
from tests.test_live import append_rows, make_live_session, make_live_table

SQL = "SELECT TOP 5 FROM t ORDER BY f BUDGET 40% BATCH 8 SEED 4"


def answer(result):
    return [(str(element_id), float(score))
            for element_id, score in result.items]


@pytest.fixture
def builds(monkeypatch):
    """Every index build a binding runs from here on."""
    calls = []
    real = catalog.build_index
    monkeypatch.setattr(catalog, "build_index",
                        lambda *args, **kwargs: calls.append(args[1])
                        or real(*args, **kwargs))
    return calls


def warm_session():
    """A live session whose index is built and one write folded in.

    A compaction needs dead rows to outnumber live ones, more churn than
    the maintainer's rebuild threshold lets pass; it is raised so that the
    write after the race is folded in incrementally, across the
    compaction's row map.
    """
    session, _, table = make_live_session(make_live_table(n_rows=300, seed=9))
    session.execute(SQL)
    session._binding("t").maintainer._rebuild_threshold = 4.0
    append_rows(table, [0.25, 0.5], prefix="warm")
    session.execute(SQL)
    return session, table


def no_race_answer():
    session, _ = warm_session()
    return answer(session.execute(session.plan(SQL)))


@pytest.mark.parametrize("write", ["append", "compacting-delete"])
def test_a_write_between_plan_and_execute_builds_no_index(write, builds):
    expected = no_race_answer()
    session, table = warm_session()
    plan = session.plan(SQL)
    pinned = plan.dataset
    del builds[:]
    if write == "append":
        # Higher than every score: the answer would change.
        append_rows(table, [50.0, 60.0], prefix="race")
    else:
        storage = table.stats()["rows_written"]
        table.delete(table.ids()[:200])
        assert table.stats()["rows_written"] < storage    # compacted
    assert table.version == plan.table_version + 1
    assert answer(session.execute(plan)) == expected
    assert builds == []
    # The pinned tree indexes exactly the pinned rows.
    assert sorted(m for leaf in plan.index.leaves()
                  for m in leaf.member_ids) == sorted(pinned.ids())
    # The next plan pins the maintained tree of the new version.
    fresh = session.plan(SQL)
    maintainer = session._binding("t").maintainer
    assert fresh.index is maintainer.tree is not plan.index
    assert maintainer.freshness == "incremental" and builds == []
    assert sorted(m for leaf in fresh.index.leaves()
                  for m in leaf.member_ids) == sorted(table.ids())
