"""Pause a long-running query, persist its state, resume later.

The engine's anytime model means an analyst can stop at any point; the
snapshot API extends that across process restarts: everything the bandit
learned (histograms, remaining elements, running solution, fallback state)
is written to JSON, and the resumed engine continues without re-scoring a
single element.

Run:  python examples/pause_resume.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro import (
    EngineConfig,
    FixedPerCallLatency,
    ReluScorer,
    SyntheticClustersDataset,
    TopKEngine,
)
from repro.experiments.ground_truth import compute_ground_truth

K = 30


def main() -> None:
    dataset = SyntheticClustersDataset.generate(n_clusters=10,
                                                per_cluster=300, rng=6)
    index = dataset.true_index()
    scorer = ReluScorer(FixedPerCallLatency(1e-3))
    truth = compute_ground_truth(dataset, scorer)
    optimal = truth.optimal_stk(K)

    # Session 1: run 20% of the budget, then "the analyst goes home".
    engine = TopKEngine(index, EngineConfig(k=K, seed=0))
    engine.run(dataset, scorer, budget=len(dataset) // 5)
    print(f"session 1: scored {engine.n_scored:,} elements, "
          f"STK {engine.stk / optimal:.1%} of optimal")

    snapshot_path = Path(tempfile.gettempdir()) / "repro-query-snapshot.json"
    snapshot_path.write_text(json.dumps(engine.snapshot()))
    print(f"snapshot written: {snapshot_path} "
          f"({snapshot_path.stat().st_size / 1024:.0f} KiB)\n")

    # Session 2 (fresh process in real life): rebuild the same index,
    # restore, and continue for another 20% of the budget.
    restored = TopKEngine.restore(dataset.true_index(),
                                  json.loads(snapshot_path.read_text()),
                                  resume_seed=1)
    print(f"session 2: resumed at {restored.n_scored:,} scored, "
          f"STK {restored.stk / optimal:.1%}")
    restored.run(dataset, scorer, budget=2 * len(dataset) // 5)
    print(f"session 2: now {restored.n_scored:,} scored, "
          f"STK {restored.stk / optimal:.1%} of optimal")
    print("\nno element was scored twice across the two sessions.")


if __name__ == "__main__":
    main()
