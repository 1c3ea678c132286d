"""Cross-commit pin of the bandit policy on wide roots (fan-out >= 200).

``tests/data/golden_wide_root.json`` was generated by this module's
``--regenerate`` at commit 4c6d320,
the last commit whose descent filtered every sibling list per layer
(``_live_children`` / ``_greedy`` / ``_gains``), before each node kept its
ordered list of live children.  Do NOT regenerate it from current code
when a row fails: that erases exactly the signal the fixture exists to
provide.

It was regenerated once since, at the commit that added
``tests/data/EPOCH`` (the child of 4f6cb24), when ``stk`` became
Equation 1's exact sum of the held scores: only STK floats moved, each by
at most 4 ulps, and that file holds the ``tools/golden_diff.py`` command
that shows it.  The command, from the repository root, is
``PYTHONPATH=src python -m tests.test_wide_root_golden --regenerate``.

``golden_policy_matrix.json`` sees at most 64 siblings.  This matrix
covers the width a per-sibling scan grows with:

* ``wide-flat``: 240 leaves under the root, every seventh of them empty
  from construction (never drawn, never dropped), so a layer's live
  children are never simply its children, and a threshold move leaves
  up to 240 stale siblings to evaluate (the numpy gain kernel took every
  such set wider than 24 rows when the fixture was generated);
* ``wide-groups``: 210 groups of one to three leaves under the root, so
  every descent is a wide layer and then a narrow one;

each at ``batch_size`` 1 and 8 with ``visit_unvisited_first`` on and off,
plus per-layer exploration, a forced ``flatten()``, a mid-run
``snapshot()`` -> ``TopKEngine.restore`` and the ``UCBBandit`` baseline
(``choose=``).  Every run goes to exhaustion and records what
``test_policy_golden.py`` records.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.baselines.ucb import UCBBandit
from repro.core.engine import EngineConfig, TopKEngine
from repro.core.fallback import FallbackConfig
from repro.index.tree import ClusterNode, ClusterTree
from tests.test_policy_golden import policy_digest

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_wide_root.json"

K = 10
N_LEAVES = 240
#: Sizes cycle with period seven; the zero makes every seventh leaf empty.
LEAF_SIZES = (2, 5, 0, 3, 1, 4, 6)
N_GROUPS = 210
NO_FALLBACK = FallbackConfig(enabled=False)


def _leaves(count: int) -> List[ClusterNode]:
    leaves, start = [], 0
    for j in range(count):
        size = LEAF_SIZES[j % len(LEAF_SIZES)]
        leaves.append(ClusterNode(
            f"leaf{j}",
            member_ids=tuple(f"e{i}" for i in range(start, start + size))))
        start += size
    return leaves


def build_tree(shape: str) -> ClusterTree:
    """``wide-flat``: one wide layer; ``wide-groups``: wide, then narrow.

    ``ClusterTree`` refuses empty leaves; ``prevalidated`` (what index
    maintenance uses) lets them through, as a maintained tree can hold.
    """
    if shape == "wide-flat":
        return ClusterTree.prevalidated(
            ClusterNode("root", children=_leaves(N_LEAVES)), ())
    leaves = _leaves(2 * N_GROUPS)
    groups, position = [], 0
    for g in range(N_GROUPS):
        width = 1 + g % 3
        groups.append(ClusterNode(
            f"g{g}", children=leaves[position:position + width]))
        position += width
    return ClusterTree.prevalidated(ClusterNode("root", children=groups), ())


def n_elements(shape: str) -> int:
    return sum(len(leaf.member_ids) for leaf in build_tree(shape).leaves())


def element_scores(shape: str) -> Dict[str, float]:
    """Clustered scores, deterministic across runs and platforms (PCG64)."""
    rng = np.random.default_rng(2417)
    leaves = build_tree(shape).leaves()
    sizes = [len(leaf.member_ids) for leaf in leaves]
    means = rng.gamma(2.0, 0.6, size=len(leaves))
    scores = np.maximum(rng.normal(np.repeat(means, sizes), 0.4), 0.0)
    return {f"e{i}": float(score) for i, score in enumerate(scores)}


class Recorder:
    """Drives ``next_batch`` / ``observe`` and keeps what the pin compares."""

    def __init__(self, shape: str) -> None:
        self.scores = element_scores(shape)
        total = n_elements(shape)
        self.marks = (total // 4, total // 2, total)
        self.draws: List[str] = []
        self.checkpoints: List[dict] = []

    def drive(self, runner, policy, until: int | None = None,
              engine=None) -> None:
        until = self.marks[-1] if until is None else until
        while len(self.draws) < until and not runner.exhausted:
            ids = runner.next_batch()
            self.draws.extend(ids)
            runner.observe(ids, [self.scores[i] for i in ids])
            if len(self.draws) >= self.marks[len(self.checkpoints)]:
                mark = {"n": len(self.draws), "state": policy_digest(policy)}
                if engine is not None:
                    mark.update(stk=engine.stk, threshold=engine.threshold)
                self.checkpoints.append(mark)

    def row(self, engine=None) -> dict:
        row = {"draws": " ".join(i[1:] for i in self.draws),
               "checkpoints": self.checkpoints}
        if engine is not None:
            row.update(
                topk=[[i, score] for i, score in engine.topk_items()],
                stk=engine.stk, n_explore=engine.n_explore,
                n_exploit=engine.n_exploit, n_drops=engine.policy.n_drops)
        return row


def _config(batch_size: int = 1, **knobs) -> EngineConfig:
    return EngineConfig(k=K, batch_size=batch_size, seed=7,
                        fallback=NO_FALLBACK, **knobs)


def run_engine(shape: str, **config) -> dict:
    recorder = Recorder(shape)
    engine = TopKEngine(build_tree(shape), _config(**config))
    recorder.drive(engine, engine.policy, engine=engine)
    return recorder.row(engine)


def run_forced_flatten(shape: str) -> dict:
    recorder = Recorder(shape)
    engine = TopKEngine(build_tree(shape), _config())
    recorder.drive(engine, engine.policy, until=300, engine=engine)
    engine.policy.flatten()
    recorder.drive(engine, engine.policy, engine=engine)
    return recorder.row(engine)


def run_snapshot_restore(shape: str, batch_size: int) -> dict:
    recorder = Recorder(shape)
    tree = build_tree(shape)
    config = _config(batch_size)
    engine = TopKEngine(tree, config)
    recorder.drive(engine, engine.policy, until=350, engine=engine)
    payload = json.loads(json.dumps(engine.snapshot()))
    engine = TopKEngine.restore(tree, payload, config=config)
    recorder.drive(engine, engine.policy, engine=engine)
    return recorder.row(engine)


def run_ucb(shape: str) -> dict:
    recorder = Recorder(shape)
    baseline = UCBBandit(build_tree(shape), batch_size=1, rng=13)
    recorder.drive(baseline, baseline._policy)
    return recorder.row()


RUNS = {}
for _shape in ("wide-flat", "wide-groups"):
    for _batch in (1, 8):
        for _unvisited in (False, True):
            RUNS[f"{_shape}-b{_batch}-{'fu'[_unvisited]}"] = (
                run_engine, dict(shape=_shape, batch_size=_batch,
                                 visit_unvisited_first=_unvisited))
    RUNS[f"{_shape}-per-layer"] = (
        run_engine, dict(shape=_shape, per_layer_exploration=True))
    RUNS[f"{_shape}-forced-flatten"] = (run_forced_flatten,
                                        dict(shape=_shape))
    RUNS[f"{_shape}-snapshot-restore"] = (
        run_snapshot_restore, dict(shape=_shape, batch_size=1))
    RUNS[f"{_shape}-ucb"] = (run_ucb, dict(shape=_shape))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["runs"]


def test_matrix_is_the_frozen_one(golden):
    assert sorted(golden) == sorted(RUNS)


def test_the_trees_are_wide():
    for shape in ("wide-flat", "wide-groups"):
        root = build_tree(shape).root
        assert len(root.children) >= 200, shape
        assert any(not leaf.member_ids for leaf in build_tree(shape).leaves())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_reproduces_the_parent_descent(name, golden):
    run, kwargs = RUNS[name]
    got = json.loads(json.dumps(run(**kwargs)))
    want = golden[name]
    # Exact draw order first: every rng consumption point must be unchanged.
    assert got["draws"] == want["draws"], f"draw order diverged in {name}"
    assert got == want


def test_matrix_covers_the_interesting_paths(golden):
    """The fixture is only meaningful if it exercises what it names."""
    for name, row in golden.items():
        shape = "wide-flat" if name.startswith("wide-flat") else "wide-groups"
        assert len(row["draws"].split()) == n_elements(shape), name
        assert len(row["checkpoints"]) == 3, name
    # The unvisited-first sweep changes the draws, or it pins nothing.  Not
    # on wide-flat at BATCH 8: a draw of eight empties any of its leaves,
    # so every live leaf is unvisited and both rules draw among all of them.
    for name in ("wide-flat-b1", "wide-groups-b1", "wide-groups-b8"):
        assert golden[f"{name}-f"]["draws"] != golden[f"{name}-u"]["draws"]


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    runs = {name: run(**kwargs) for name, (run, kwargs) in RUNS.items()}
    GOLDEN_PATH.write_text(
        json.dumps({"format": "golden-wide-root/1", "runs": runs},
                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(runs)} runs)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
