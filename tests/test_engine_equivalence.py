"""Seeded equivalence against the pre-vectorization seed engine.

The hot-path rewrite (incremental ``remaining`` counters, batched histogram
updates, gain caching, vectorized redistribution) is required to be
*behaviorally invisible* at ``batch_size=1``: same seeds must produce the
same draw order and the same top-k result as the original recursive
implementation.

``tests/data/golden_trace_engine.json`` was generated by this module's
``--regenerate`` at the seed commit (before the vectorized hot path
landed).  Do NOT regenerate it from current code when an equivalence test
fails — that would erase exactly the signal the fixture exists to provide.

It was regenerated once since, at the commit that added
``tests/data/EPOCH`` (the child of 4f6cb24), when ``stk`` became
Equation 1's exact sum of the held scores: only STK floats moved, each by
at most 4 ulps, and that file holds the ``tools/golden_diff.py`` command
that shows it.  The command, from the repository root, is
``PYTHONPATH=src python -m tests.test_engine_equivalence --regenerate``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.engine import EngineConfig, TopKEngine
from repro.errors import ExhaustedError
from repro.index.tree import ClusterNode, ClusterTree

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace_engine.json"

N_GROUPS = 3
LEAVES_PER_GROUP = 4
LEAF_SIZE = 25
N_ELEMENTS = N_GROUPS * LEAVES_PER_GROUP * LEAF_SIZE


def build_three_layer_index() -> ClusterTree:
    """Deterministic 3-layer index: root -> 3 groups -> 4 leaves x 25 ids."""
    ids = [f"e{i}" for i in range(N_ELEMENTS)]
    leaves = [
        ClusterNode(f"leaf{j}",
                    member_ids=tuple(ids[j * LEAF_SIZE:(j + 1) * LEAF_SIZE]))
        for j in range(N_GROUPS * LEAVES_PER_GROUP)
    ]
    groups = [
        ClusterNode(
            f"group{g}",
            children=leaves[g * LEAVES_PER_GROUP:(g + 1) * LEAVES_PER_GROUP],
        )
        for g in range(N_GROUPS)
    ]
    return ClusterTree(ClusterNode("root", children=groups))


def element_scores() -> np.ndarray:
    """Clustered scores, deterministic across runs and platforms (PCG64)."""
    rng = np.random.default_rng(2024)
    means = rng.gamma(2.0, 0.5, size=N_GROUPS * LEAVES_PER_GROUP)
    scores = rng.normal(np.repeat(means, LEAF_SIZE), 0.3)
    return np.maximum(scores, 0.0)


def run_trace(seed: int, per_layer: bool = False) -> Dict[str, object]:
    """Drive one engine to exhaustion at batch_size=1; record everything."""
    scores = element_scores()
    engine = TopKEngine(
        build_three_layer_index(),
        EngineConfig(k=10, batch_size=1, seed=seed,
                     per_layer_exploration=per_layer),
    )
    draws: List[str] = []
    while not engine.exhausted:
        try:
            ids = engine.next_batch()
        except ExhaustedError:
            break
        draws.extend(ids)
        engine.observe(ids, scores[[int(i[1:]) for i in ids]])
    return {
        "seed": seed,
        "per_layer": per_layer,
        "draws": draws,
        "topk": [[element_id, score] for element_id, score
                 in engine.topk_items()],
        "stk": engine.stk,
        "n_scored": engine.n_scored,
        "n_explore": engine.n_explore,
        "n_exploit": engine.n_exploit,
        "fallback_events": [[t, kind] for t, kind in engine.fallback_events],
    }


TRACE_SPECS = [
    {"seed": 42, "per_layer": False},
    {"seed": 7, "per_layer": False},
    {"seed": 11, "per_layer": True},
]


def test_golden_traces_match_seed_engine():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden["traces"]) == len(TRACE_SPECS)
    for spec, want in zip(TRACE_SPECS, golden["traces"]):
        got = run_trace(**spec)
        # Exact draw order: every rng consumption point must be unchanged.
        assert got["draws"] == want["draws"], (
            f"draw order diverged for spec {spec}"
        )
        assert [tuple(row) for row in got["topk"]] == [
            (element_id, float(score)) for element_id, score in want["topk"]
        ]
        assert got["stk"] == want["stk"]
        assert got["n_scored"] == want["n_scored"]
        assert got["n_explore"] == want["n_explore"]
        assert got["n_exploit"] == want["n_exploit"]
        assert got["fallback_events"] == [
            [int(t), str(kind)] for t, kind in want["fallback_events"]
        ]


def test_trace_covers_fallback_and_exhaustion():
    """The fixture is only meaningful if it exercises the interesting paths."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert any(trace["fallback_events"] for trace in golden["traces"])
    for trace in golden["traces"]:
        assert trace["n_scored"] == N_ELEMENTS  # ran to exhaustion


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    traces = [run_trace(**spec) for spec in TRACE_SPECS]
    GOLDEN_PATH.write_text(
        json.dumps({"format": "golden-engine-trace/1", "traces": traces},
                   indent=1) + "\n"
    )
    print(f"wrote {GOLDEN_PATH} ({len(traces)} traces)")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
