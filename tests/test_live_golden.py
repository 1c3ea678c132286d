"""Cross-commit pin of live-table maintenance, frozen before the O(change)
write path.

``tests/data/golden_live_trees.json`` was generated by this module's
``--regenerate`` at commit 4fb9886 — the
last commit where a snapshot was a full ``InMemoryDataset`` copy of the
table, ``IndexMaintainer._remove`` rebuilt a leaf's member tuple once per
removed id and every publish re-validated all members — so it freezes what
the view-backed snapshot and the touched-leaves-only ``advance`` must keep
reproducing byte for byte.  Do NOT regenerate it from current code when a
row fails: that erases exactly the signal the fixture exists to provide.

It was regenerated once since, at the commit that added
``tests/data/EPOCH`` (the child of 4f6cb24), when ``stk`` became
Equation 1's exact sum of the held scores: only STK floats moved, each by
at most 4 ulps, and that file holds the ``tools/golden_diff.py`` command
that shows it.  The command, from the repository root, is
``PYTHONPATH=src python -m tests.test_live_golden --regenerate``.

Seeded write scripts on a 5 000-row, 16-leaf ``LiveTable`` registered on a
session; after each script step one ``BUDGET 10% BATCH 8`` query makes the
binding reconcile (one ``advance`` over every delta of the step), and the
row records the SHA-256 of ``json.dumps(maintainer.tree.to_dict())`` and of the pinned
``ids()``, the advance's touched nodes, the nodes it pruned, the split /
rebuild counters and the query's answer.  10 % stays below the engine's
fallback warm-up (30 %), whose checks read the wall clock.

* ``bench-shape`` — ``bench/wl_live.py``'s operation (delete 100, every 8th
  step update 50, append 100) for 40 steps, with the deletes draining one
  mixture cluster (a leaf empties and is pruned) and the appends piling on
  another (its leaf overflows and splits); churn passes half the table at
  step 12, so the rebuild threshold is lifted out of the way.
* ``ordering`` — PR 13's bug: an append that overflows a leaf, then an
  update and a delete of that leaf's members, folded in by ONE ``advance``.
* ``empties-a-leaf`` — one delete batch holding every member of a leaf plus
  strays from others, then appends aimed at where it used to be.
* ``interleaved`` — five deltas per ``advance``, deleting and updating ids
  the same ``advance`` appended, with the score memo on (every other script
  runs ``use_cache=False``).
* ``rebuild`` — a step whose churn crosses ``rebuild_threshold``, then an
  incremental step on the rebuilt tree.
* ``statements`` — after a delete + update + append, the three execution
  modes (single ``BATCH 64``, ``WORKERS 2``, ``WORKERS 2 STREAM EVERY 200``;
  serial backend) and what each returns minus its wall-clock fields.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.index.builder import IndexConfig
from repro.live import LiveTable
from repro.scoring.base import FunctionScorer
from repro.session import OpaqueQuerySession

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_live_trees.json"

N_ROWS = 5000
N_LEAVES = 16
DIM = 4
SQL = "SELECT TOP 10 FROM t ORDER BY f BUDGET 10% BATCH 8 SEED {seed}"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Script:
    """One seeded table + session and the rows its steps record."""

    def __init__(self, seed: int, use_cache: bool = False) -> None:
        self.use_cache = use_cache
        self.rng = np.random.default_rng([1913, seed])
        self.centres = self.rng.normal(scale=6.0, size=(N_LEAVES, DIM))
        self.mu = self.rng.gamma(2.0, 0.7, size=N_LEAVES)
        self.cluster_of: Dict[str, int] = {}
        self.live: List[str] = []
        self.next_row = 0
        ids, values, features = self.fresh(
            self.rng.integers(0, N_LEAVES, size=N_ROWS))
        self.table = LiveTable(ids, values, features, name="t")
        self.session = OpaqueQuerySession()
        self.session.register_table(
            "t", self.table, index_config=IndexConfig(n_clusters=N_LEAVES))
        self.session.register_udf(
            "f", FunctionScorer(lambda v: max(0.0, float(v))))
        self.rows: List[dict] = []
        self.node_ids: set = set()
        self.step()                       # builds the index at version 0

    # -- writes --------------------------------------------------------------

    def fresh(self, clusters):
        """New ids, values and feature rows for the given mixture draws."""
        clusters = np.asarray(clusters)
        ids = [f"e{row:06d}" for row in
               range(self.next_row, self.next_row + len(clusters))]
        self.next_row += len(clusters)
        values = self.rng.normal(self.mu[clusters], 0.5).tolist()
        features = self.centres[clusters] + 0.4 * self.rng.normal(
            size=(len(clusters), DIM))
        self.cluster_of.update(zip(ids, clusters.tolist()))
        self.live.extend(ids)
        return ids, values, features

    def append(self, clusters) -> List[str]:
        ids, values, features = self.fresh(clusters)
        self.table.append(ids, values, features)
        return ids

    def update(self, ids, clusters, with_objects: bool = True) -> None:
        clusters = np.asarray(clusters)
        values = self.rng.normal(self.mu[clusters], 0.5).tolist()
        features = self.centres[clusters] + 0.4 * self.rng.normal(
            size=(len(clusters), DIM))
        self.cluster_of.update(zip(ids, clusters.tolist()))
        self.table.update(ids, features, values if with_objects else None)

    def delete(self, ids) -> None:
        doomed = set(ids)
        self.live = [eid for eid in self.live if eid not in doomed]
        self.table.delete(list(ids))

    def victims(self, count: int, pool=None) -> List[str]:
        pool = self.live if pool is None else pool
        picks = sorted(self.rng.choice(len(pool), size=min(count, len(pool)),
                                       replace=False).tolist())
        return [pool[position] for position in picks]

    # -- one recorded step ---------------------------------------------------

    @property
    def maintainer(self):
        return self.session._binding("t").maintainer

    def step(self) -> dict:
        """Query (the binding advances over every pending delta), record."""
        result = self.session.execute(SQL.format(seed=len(self.rows) % 5),
                                      use_cache=self.use_cache)
        maintainer = self.maintainer
        snapshot = self.table.snapshot()
        node_ids = {node.node_id for node in maintainer.tree.nodes()}
        logged = [nodes for version, nodes in maintainer.touched_log
                  if version == maintainer.version]
        row = {
            "version": maintainer.version,
            "freshness": maintainer.freshness,
            "tree": sha(json.dumps(maintainer.tree.to_dict())),
            "ids": sha("\n".join(snapshot.ids())),
            "n_ids": len(snapshot),
            "touched": list(logged[-1]) if logged else [],
            "pruned": sorted(self.node_ids - node_ids),
            "n_leaves": maintainer.tree.n_leaves(),
            "splits": maintainer.n_splits,
            "rebuilds": maintainer.n_rebuilds,
            "items": [[element_id, float(score)]
                      for element_id, score in result.items],
            "stk": float(result.stk),
            "n_scored": int(result.n_scored),
        }
        self.node_ids = node_ids
        self.rows.append(row)
        return row


def run_bench_shape() -> List[dict]:
    script = Script(seed=1)
    script.maintainer._rebuild_threshold = 100.0
    dying, growing = 0, 1
    for batch in range(1, 41):
        doomed = script.victims(
            30, [eid for eid in script.live
                 if script.cluster_of[eid] == dying])
        kept = set(doomed)
        doomed += script.victims(
            100 - len(doomed),
            [eid for eid in script.live if eid not in kept])
        script.delete(doomed)
        if batch % 8 == 0:
            script.update(script.victims(50),
                          script.rng.integers(2, N_LEAVES, size=50))
        clusters = script.rng.integers(2, N_LEAVES, size=100)
        clusters[:50] = growing
        script.append(clusters)
        script.step()
    return script.rows


def run_ordering() -> List[dict]:
    script = Script(seed=2)
    cap = script.maintainer.max_leaf_size
    burst = script.append(np.full(cap, 3))    # lands on one leaf: overflows
    old = [eid for eid in script.live[:N_ROWS] if script.cluster_of[eid] == 3]
    script.update([burst[1], old[0], old[5]], [3, 7, 3])
    script.delete([burst[0], burst[7], old[1], old[2]])
    script.step()                             # one advance over 3 deltas
    script.append([3, 3, 5])
    script.step()
    return script.rows


def run_empties_a_leaf() -> List[dict]:
    script = Script(seed=3)
    leaves = script.maintainer.tree.leaves()
    target = min(leaves, key=lambda node: (len(node.member_ids),
                                           node.node_id))
    members = list(target.member_ids)
    strays = script.victims(40, [eid for eid in script.live
                                 if eid not in set(members)])
    # Interleave so the doomed leaf's ids are not contiguous in the delta.
    doomed = members[::2] + strays + members[1::2]
    script.delete(doomed)
    script.step()
    script.append(np.full(20, script.cluster_of[members[0]]))
    script.step()
    return script.rows


def run_interleaved() -> List[dict]:
    script = Script(seed=4, use_cache=True)   # the memo replays the log too
    for _ in range(6):
        first = script.append(script.rng.integers(0, N_LEAVES, size=60))
        script.delete(first[::3] + script.victims(30, script.live[:2000]))
        targets = first[1::3][:10] + script.victims(10, script.live[:2000])
        script.update(targets, script.rng.integers(0, N_LEAVES,
                                                   size=len(targets)),
                      with_objects=False)
        second = script.append(script.rng.integers(0, 4, size=40))
        script.delete(second[:5] + targets[:3])
        script.step()
    return script.rows


def run_rebuild() -> List[dict]:
    script = Script(seed=5)
    script.append(script.rng.integers(0, N_LEAVES, size=1500))
    script.delete(script.victims(1200))
    script.step()                              # churn 2700 > 0.5 * 5000
    script.delete(script.victims(80))
    script.append(script.rng.integers(0, N_LEAVES, size=80))
    script.step()
    return script.rows


STATEMENTS = (
    "SELECT TOP 10 FROM t ORDER BY f BUDGET 10% BATCH 64 SEED 3",
    "SELECT TOP 10 FROM t ORDER BY f BUDGET 10% BATCH 8 SEED 3 "
    "WORKERS 2 BACKEND serial",
    "SELECT TOP 10 FROM t ORDER BY f BUDGET 10% BATCH 8 SEED 3 "
    "WORKERS 2 BACKEND serial STREAM EVERY 200",
)


def run_statements() -> List[dict]:
    script = Script(seed=6)
    script.delete(script.victims(100))
    script.update(script.victims(50), script.rng.integers(0, N_LEAVES, size=50))
    script.append(script.rng.integers(0, N_LEAVES, size=100))
    rows = []
    for sql in STATEMENTS:
        payload = script.session.execute(sql, use_cache=False).to_json()
        rows.append({key: payload[key] for key in
                     ("kind", "items", "stk", "budget_spent",
                      "displacement_bound")})
    return rows


RUNS: Dict[str, Callable[[], List[dict]]] = {
    "bench-shape": run_bench_shape,
    "ordering": run_ordering,
    "empties-a-leaf": run_empties_a_leaf,
    "interleaved": run_interleaved,
    "rebuild": run_rebuild,
    "statements": run_statements,
}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["runs"]


def test_scripts_are_the_frozen_ones(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_reproduces_the_parent_trees(name, golden):
    got = json.loads(json.dumps(RUNS[name]()))
    want = golden[name]
    assert len(got) == len(want)
    for step, (got_row, want_row) in enumerate(zip(got, want)):
        assert got_row == want_row, f"{name} diverged at step {step}"


def test_scripts_cover_the_interesting_paths(golden):
    """The fixture is only meaningful if it exercises what it names."""
    bench = golden["bench-shape"]
    assert len(bench) == 41
    assert bench[-1]["splits"] >= 1 and bench[-1]["rebuilds"] == 0
    assert any(row["pruned"] for row in bench)
    assert all(row["n_ids"] == N_ROWS for row in bench)
    assert all(row["freshness"] == "incremental" for row in bench[1:])
    ordering = golden["ordering"]
    assert ordering[1]["splits"] >= 1
    assert ordering[1]["version"] == 3         # three deltas, one advance
    emptied = golden["empties-a-leaf"]
    assert emptied[1]["pruned"] and emptied[1]["n_leaves"] == N_LEAVES - 1
    assert [row["version"] for row in golden["interleaved"]] == [
        5 * step for step in range(7)]
    rebuilt = golden["rebuild"]
    assert rebuilt[1]["freshness"] == "rebuilt" and rebuilt[1]["rebuilds"] == 1
    assert rebuilt[2]["freshness"] == "incremental"
    assert [row["kind"] for row in golden["statements"]] == [
        "single", "sharded", "streaming"]
    for rows in golden.values():
        assert all(len(row["items"]) == 10 for row in rows)


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    runs = {name: run() for name, run in RUNS.items()}
    GOLDEN_PATH.write_text(
        json.dumps({"format": "golden-live-trees/1", "runs": runs},
                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} "
          f"({sum(len(rows) for rows in runs.values())} steps)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
