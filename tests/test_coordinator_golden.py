"""Cross-commit pin of the two shard coordinators on the ``serial`` backend.

``tests/data/golden_coordinators.json`` was generated by this module's
``--regenerate`` at commit b1f7fcf — the last commit where the round
engine had its own ``run_round`` backends and the streaming engine its own
registry — so it freezes what the barrier and arrival wait policies must
keep reproducing now that they share one coordinator over ``submit`` /
``next_event``.  Do NOT regenerate it from current code when a scenario
fails: that erases exactly the signal the fixture exists to provide.

It was regenerated once since, at the commit that added
``tests/data/EPOCH`` (the child of 4f6cb24), when ``stk`` became
Equation 1's exact sum of the held scores: only STK floats moved, each by
at most 4 ulps, and that file holds the ``tools/golden_diff.py`` command
that shows it.  The command, from the repository root, is
``PYTHONPATH=src python -m tests.test_coordinator_golden --regenerate``.

The scenarios target the seams a shared coordinator could move:

* ``mid_round_b1`` / ``mid_round_b8`` — a budget that runs out inside a
  round, where serial's live allocation (each cap sees what the previous
  shards really scored, batch overshoot included) differs from caps dealt
  up front, down to a zero-cap shard in the last round;
* ``exhaust`` — uneven partitions run to exhaustion, so shards go
  inactive while others still score;
* ``where_subset`` — an ``ids=`` candidate subset (WHERE pushdown);
* ``warm_memo`` — a second engine over the memo a first one filled;
* ``snapshot_resume`` — snapshot, JSON round trip, restore, continue.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.core.engine import EngineConfig
from repro.data.synthetic import SyntheticClustersDataset
from repro.index.builder import IndexConfig
from repro.memo import MemoStore
from repro.parallel.engine import ShardedTopKEngine
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer
from repro.streaming.engine import StreamingTopKEngine

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_coordinators.json"

K = 10
WORKERS = 3
INTERVAL = 50
INDEX = IndexConfig(n_clusters=4)

#: coordinator name -> (engine class, name of its cadence argument)
COORDINATORS = {
    "round": (ShardedTopKEngine, "sync_interval"),
    "streaming": (StreamingTopKEngine, "slice_budget"),
}


def _world(n_clusters: int = 8, per_cluster: int = 60):
    dataset = SyntheticClustersDataset.generate(
        n_clusters=n_clusters, per_cluster=per_cluster, rng=0)
    return dataset, ReluScorer(FixedPerCallLatency(1e-3))


def _engine(coordinator: str, dataset, scorer, batch_size: int,
            interval: int = INTERVAL, **kwargs):
    cls, cadence = COORDINATORS[coordinator]
    return cls(dataset, scorer, k=K, n_workers=WORKERS, backend="serial",
               index_config=INDEX,
               engine_config=EngineConfig(k=K, batch_size=batch_size),
               seed=11, **{cadence: interval}, **kwargs)


def _record(result) -> Dict[str, object]:
    """Everything the pin compares, JSON-safe (floats round-trip exactly)."""
    row = {
        "items": [[element_id, score] for element_id, score in result.items],
        "stk": result.stk,
        "total_scored": result.total_scored,
        "wall_time": result.wall_time,
        "displacement_bound": result.displacement_bound,
        "workers": [[report.n_scored, report.virtual_time, report.local_stk]
                    for report in result.workers],
    }
    if hasattr(result, "n_rounds"):
        row["n_rounds"] = result.n_rounds
        row["checkpoints"] = [list(point) for point in result.checkpoints]
    else:
        row["n_merges"] = result.n_merges
        row["progressive"] = [list(point) for point in result.progressive]
        row["converged"] = result.converged
    return row


def _budgeted(coordinator: str, batch_size: int, budget: int):
    dataset, scorer = _world()
    with _engine(coordinator, dataset, scorer, batch_size) as engine:
        return _record(engine.run(budget))


def _exhaust(coordinator: str):
    # 7 x 23 = 161 elements deal 54/54/53: the small shard runs dry first.
    dataset, scorer = _world(n_clusters=7, per_cluster=23)
    with _engine(coordinator, dataset, scorer, 1, interval=20) as engine:
        return _record(engine.run())


def _where_subset(coordinator: str):
    dataset, scorer = _world()
    subset = [element_id for position, element_id
              in enumerate(dataset.ids()) if position % 3]
    with _engine(coordinator, dataset, scorer, 8, ids=subset) as engine:
        return _record(engine.run(200))


def _warm_memo(coordinator: str):
    dataset, scorer = _world()
    store = MemoStore()
    with _engine(coordinator, dataset, scorer, 8,
                 memo=store.view("golden-udf")) as cold:
        cold.run(200)
    entries = store.n_entries("golden-udf")
    with _engine(coordinator, dataset, scorer, 8,
                 memo=store.view("golden-udf")) as warm:
        row = _record(warm.run(260))
    stats = store.stats()
    row["memo"] = [entries, store.n_entries("golden-udf"),
                   stats["hits"], stats["misses"]]
    return row


def _snapshot_resume(coordinator: str):
    dataset, scorer = _world()
    with _engine(coordinator, dataset, scorer, 8) as first:
        first.run(170)
        payload = json.loads(json.dumps(first.snapshot()))
    cls, _cadence = COORDINATORS[coordinator]
    resumed = cls.restore(dataset, scorer, payload, index_config=INDEX,
                          engine_config=EngineConfig(k=K, batch_size=8))
    with resumed:
        return _record(resumed.run(330))


SCENARIOS = {
    "mid_round_b1": lambda c: _budgeted(c, 1, 152),
    "mid_round_b8": lambda c: _budgeted(c, 8, 275),
    "exhaust": _exhaust,
    "where_subset": _where_subset,
    "warm_memo": _warm_memo,
    "snapshot_resume": _snapshot_resume,
}


def _golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())["scenarios"]


@pytest.mark.parametrize("coordinator", sorted(COORDINATORS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_coordinator_reproduces_golden(scenario: str, coordinator: str):
    want = _golden()[f"{scenario}/{coordinator}"]
    got = json.loads(json.dumps(SCENARIOS[scenario](coordinator)))
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], f"{scenario}/{coordinator}: {key}"


def test_golden_covers_the_interesting_paths():
    """The fixture is only meaningful if it exercises the seams."""
    golden = _golden()
    assert sorted(golden) == sorted(
        f"{scenario}/{coordinator}"
        for scenario in SCENARIOS for coordinator in COORDINATORS)
    # Budget ended mid-round: the last shard of the last round got less
    # than the others (live allocation), down to nothing at batch 1.
    per_shard: List[int] = [n for n, _t, _s
                            in golden["mid_round_b1/round"]["workers"]]
    assert per_shard == [51, 51, 50]
    overshoot = [n for n, _t, _s in golden["mid_round_b8/round"]["workers"]]
    assert overshoot[0] > overshoot[-1]
    # Exhaustion: everything scored, and the short shard stopped early.
    for coordinator in COORDINATORS:
        row = golden[f"exhaust/{coordinator}"]
        assert row["total_scored"] == 161
        assert sorted(n for n, _t, _s in row["workers"]) == [53, 54, 54]
    assert golden["exhaust/round"]["n_rounds"] > 161 // (3 * 20) + 1
    # The warm run really hit the memo the cold run filled.
    for coordinator in COORDINATORS:
        before, after, hits, _misses = (
            golden[f"warm_memo/{coordinator}"]["memo"])
        assert hits >= before > 0 and after > before


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    scenarios = {f"{scenario}/{coordinator}": run(coordinator)
                 for scenario, run in SCENARIOS.items()
                 for coordinator in COORDINATORS}
    GOLDEN_PATH.write_text(
        json.dumps({"format": "golden-coordinators/1",
                    "scenarios": scenarios}, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(scenarios)} scenarios)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
