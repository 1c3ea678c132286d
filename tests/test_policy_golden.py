"""Cross-commit pin of the bandit policy, frozen before the array re-lay.

``tests/data/golden_policy_matrix.json`` was generated by this module's
``--regenerate`` at commit 2efd5c4 — the
last commit where the policy walked one ``BanditNode`` object per tree node
and every sketch kept its own gain cache — so it freezes what the
struct-of-arrays core (one histogram bank, one gain kernel per select) must
keep reproducing float for float.  Do NOT regenerate it from current code
when a row fails: that erases exactly the signal the fixture exists to
provide.

It was regenerated once since, at the commit that added
``tests/data/EPOCH`` (the child of 4f6cb24), when ``stk`` became
Equation 1's exact sum of the held scores: only STK floats moved, each by
at most 4 ulps, and that file holds the ``tools/golden_diff.py`` command
that shows it.  The command, from the repository root, is
``PYTHONPATH=src python -m tests.test_policy_golden --regenerate``.

``golden_trace_engine.json`` covers three ``batch_size=1`` runs on a
300-element, 3-layer tree.  This matrix covers what a layout change can
move and that file cannot see:

* a lopsided binary dendrogram (64 leaves, root paths 4 to 11 nodes long)
  and a flat tree over the same leaves, each at ``batch_size`` 1 / 8 / 64 x
  ``per_layer_exploration`` x ``enable_subtraction`` x ``enable_rebinning``
  x ``visit_unvisited_first``;
* the tree fallback firing on its own, a forced ``flatten()``, a
  coordinator threshold floor moving mid-run, a mid-run ``snapshot()``
  -> ``TopKEngine.restore``, warm-start priors (same and foreign ``n_bins``),
  ``UCBBandit``, ``ExplorationOnly`` and a ``ReservoirSketch`` factory.

Every run goes to exhaustion and records the draw order, the final top-k,
the explore / exploit tallies and, at three checkpoints, ``stk``, the
threshold and a SHA-256 of the policy's state as data.  The clustering
fallback reads the wall clock, so it is off everywhere.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.baselines.exploration_only import ExplorationOnly
from repro.baselines.ucb import UCBBandit
from repro.core.engine import EngineConfig, TopKEngine
from repro.core.fallback import FallbackConfig
from repro.core.sketches import ReservoirSketch
from repro.errors import ConfigurationError
from repro.index.tree import ClusterNode, ClusterTree
from repro.memo.priors import apply_priors, harvest_priors

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_policy_matrix.json"

K = 10
N_LEAVES = 64
LEAF_SIZES = (3, 7, 12, 5, 30, 4, 9, 6)
NO_FALLBACK = FallbackConfig(enabled=False)
TREE_FALLBACK_ONLY = FallbackConfig(enable_clustering_fallback=False)


def _leaves() -> List[ClusterNode]:
    leaves, start = [], 0
    for j in range(N_LEAVES):
        size = LEAF_SIZES[j % len(LEAF_SIZES)]
        leaves.append(ClusterNode(
            f"leaf{j}",
            member_ids=tuple(f"e{i}" for i in range(start, start + size))))
        start += size
    return leaves


N_ELEMENTS = sum(len(leaf.member_ids) for leaf in _leaves())


def build_tree(shape: str) -> ClusterTree:
    """``binary``: split every leaf range 1/3 : 2/3; ``flat``: one layer."""
    leaves = _leaves()
    if shape == "flat":
        return ClusterTree(ClusterNode("root", children=leaves))

    def split(lo: int, hi: int) -> ClusterNode:
        if hi - lo == 1:
            return leaves[lo]
        cut = lo + max(1, (hi - lo) // 3)
        return ClusterNode(f"n{lo}_{hi}",
                           children=[split(lo, cut), split(cut, hi)])

    return ClusterTree(split(0, N_LEAVES))


def element_scores() -> Dict[str, float]:
    """Clustered scores, deterministic across runs and platforms (PCG64)."""
    rng = np.random.default_rng(1807)
    sizes = [len(leaf.member_ids) for leaf in _leaves()]
    means = rng.gamma(2.0, 0.6, size=N_LEAVES)
    scores = np.maximum(rng.normal(np.repeat(means, sizes), 0.4), 0.0)
    return {f"e{i}": float(score) for i, score in enumerate(scores)}


def digest(payload) -> str:
    """SHA-256 of the canonical JSON of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def policy_digest(policy) -> str:
    """The policy's state as data: ``state()``, or raw custom sketches."""
    try:
        return digest(policy.state())
    except ConfigurationError:
        return digest({
            node_id: [getattr(sketch, name) for name in
                      ("_values", "_seen", "visits", "mean")
                      if hasattr(sketch, name)]
            for node_id, sketch in policy.sketches().items()})


class Recorder:
    """Drives ``next_batch`` / ``observe`` and keeps what the pin compares."""

    MARKS = (N_ELEMENTS // 4, N_ELEMENTS // 2, N_ELEMENTS)

    def __init__(self) -> None:
        self.scores = element_scores()
        self.draws: List[str] = []
        self.checkpoints: List[dict] = []

    def drive(self, runner, policy, until: int = N_ELEMENTS,
              engine=None) -> None:
        while len(self.draws) < until and not runner.exhausted:
            ids = runner.next_batch()
            self.draws.extend(ids)
            runner.observe(ids, [self.scores[i] for i in ids])
            if len(self.draws) >= self.MARKS[len(self.checkpoints)]:
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
                n_exploit=engine.n_exploit, n_drops=engine.policy.n_drops,
                fallback_events=[[t, kind]
                                 for t, kind in engine.fallback_events])
        return row


def _config(batch_size: int = 1, fallback=NO_FALLBACK, seed: int = 5,
            **knobs) -> EngineConfig:
    return EngineConfig(k=K, batch_size=batch_size, seed=seed,
                        fallback=fallback, **knobs)


def run_engine(shape: str, **config) -> dict:
    recorder = Recorder()
    engine = TopKEngine(build_tree(shape), _config(**config))
    recorder.drive(engine, engine.policy, engine=engine)
    return recorder.row(engine)


def run_forced_flatten(batch_size: int) -> dict:
    recorder = Recorder()
    engine = TopKEngine(build_tree("binary"), _config(batch_size))
    recorder.drive(engine, engine.policy, until=200, engine=engine)
    engine.policy.flatten()
    recorder.drive(engine, engine.policy, engine=engine)
    return recorder.row(engine)


def run_threshold_floor() -> dict:
    """A coordinator floor above, then below, the local threshold."""
    recorder = Recorder()
    engine = TopKEngine(build_tree("binary"), _config())
    for until, floor in ((150, None), (300, 2.5), (450, 0.5),
                         (N_ELEMENTS, 3.25)):
        engine.threshold_floor = floor
        recorder.drive(engine, engine.policy, until=until, engine=engine)
    return recorder.row(engine)


def run_snapshot_restore(batch_size: int) -> dict:
    recorder = Recorder()
    tree = build_tree("binary")
    config = _config(batch_size, fallback=TREE_FALLBACK_ONLY)
    engine = TopKEngine(tree, config)
    recorder.drive(engine, engine.policy, until=260, engine=engine)
    payload = json.loads(json.dumps(engine.snapshot()))
    engine = TopKEngine.restore(tree, payload, config=config)
    recorder.drive(engine, engine.policy, engine=engine)
    return recorder.row(engine)


def run_priors(prior_bins: int) -> dict:
    donor = TopKEngine(build_tree("binary"), _config(n_bins=prior_bins,
                                                     seed=9))
    Recorder().drive(donor, donor.policy, until=300)
    recorder = Recorder()
    engine = TopKEngine(build_tree("binary"), _config())
    applied = apply_priors(engine, harvest_priors(donor))
    recorder.drive(engine, engine.policy, engine=engine)
    return dict(recorder.row(engine), applied=applied)


def run_baseline(cls, batch_size: int) -> dict:
    recorder = Recorder()
    baseline = cls(build_tree("binary"), batch_size=batch_size, rng=13)
    recorder.drive(baseline, baseline._policy)
    return recorder.row()


def _seeded_reservoir() -> ReservoirSketch:
    # Small enough that replacement (an rng draw per add) really happens.
    return ReservoirSketch(capacity=16, rng=3)


AXES = ("per_layer_exploration", "enable_subtraction", "enable_rebinning",
        "visit_unvisited_first")

RUNS = {}
for _shape, _batch, _flags in itertools.product(
        ("binary", "flat"), (1, 8, 64),
        itertools.product((False, True), repeat=len(AXES))):
    _name = f"{_shape}-b{_batch}-" + "".join("ft"[flag] for flag in _flags)
    RUNS[_name] = (run_engine, dict(shape=_shape, batch_size=_batch,
                                    **dict(zip(AXES, _flags))))
RUNS.update({
    "tree-fallback-b1": (run_engine, dict(shape="binary",
                                          fallback=TREE_FALLBACK_ONLY)),
    "tree-fallback-b8": (run_engine, dict(shape="binary", batch_size=8,
                                          fallback=TREE_FALLBACK_ONLY)),
    "forced-flatten-b1": (run_forced_flatten, dict(batch_size=1)),
    "forced-flatten-b8": (run_forced_flatten, dict(batch_size=8)),
    "threshold-floor": (run_threshold_floor, {}),
    "snapshot-restore-b1": (run_snapshot_restore, dict(batch_size=1)),
    "snapshot-restore-b8": (run_snapshot_restore, dict(batch_size=8)),
    "priors": (run_priors, dict(prior_bins=8)),
    "priors-foreign-bins": (run_priors, dict(prior_bins=5)),
    "ucb-b1": (run_baseline, dict(cls=UCBBandit, batch_size=1)),
    "ucb-b8": (run_baseline, dict(cls=UCBBandit, batch_size=8)),
    "exploration-only": (run_baseline, dict(cls=ExplorationOnly,
                                            batch_size=1)),
    "reservoir-b1": (run_engine, dict(shape="binary",
                                      sketch_factory=_seeded_reservoir)),
    "reservoir-b8": (run_engine, dict(shape="binary", batch_size=8,
                                      sketch_factory=_seeded_reservoir)),
    "seed-17-b1": (run_engine, dict(shape="binary", seed=17)),
})


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["runs"]


def test_matrix_is_the_frozen_one(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_reproduces_the_parent_layout(name, golden):
    run, kwargs = RUNS[name]
    got = json.loads(json.dumps(run(**kwargs)))
    want = golden[name]
    # Exact draw order first: every rng consumption point must be unchanged.
    assert got["draws"] == want["draws"], f"draw order diverged in {name}"
    assert got == want


def test_matrix_covers_the_interesting_paths(golden):
    """The fixture is only meaningful if it exercises what it names."""
    for name, row in golden.items():
        assert len(row["draws"].split()) == N_ELEMENTS, name
        assert len(row["checkpoints"]) == 3, name
    assert golden["tree-fallback-b1"]["fallback_events"]
    assert not golden["binary-b1-ffff"]["fallback_events"]
    assert golden["binary-b1-ftft"]["n_drops"] == N_LEAVES
    # The donor had dropped leaves by then, so the foreign-bins tree is
    # mixed: some sibling sets hold 5-bin and 8-bin sketches side by side.
    assert 0 < golden["priors"]["applied"] < 2 * N_LEAVES - 1
    assert 0 < golden["priors-foreign-bins"]["applied"] < 2 * N_LEAVES - 1
    # Every axis moves something, or it pins nothing.
    for position in range(len(AXES)):
        off = "".join("t" if i != position else "f" for i in range(len(AXES)))
        assert golden[f"binary-b1-{off}"] != golden["binary-b1-tttt"], off


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    runs = {name: run(**kwargs) for name, (run, kwargs) in RUNS.items()}
    GOLDEN_PATH.write_text(
        json.dumps({"format": "golden-policy-matrix/1", "runs": runs},
                   indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(runs)} runs)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
