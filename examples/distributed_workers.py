"""Sharded opaque top-k: the Section 6 MapReduce combination, for real.

Partitions a dataset across workers, each running its own index plus
bandit; a coordinator merges running solutions every sync round and
broadcasts the global threshold back.  The same shard/coordinator protocol
runs on three backends (see ``docs/architecture.md``):

* ``serial``  — deterministic simulation; wall time is the paper's virtual
  clock (max worker cost per round), so it scales ~1/W *by construction*;
* ``thread`` / ``process`` — real concurrency; wall time is measured, and
  speedup comes from genuinely overlapping the expensive UDF calls.

Part 1 reproduces the classic simulation sweep; part 2 runs the identical
query on all three backends with a UDF that really blocks for its latency,
so the measured clocks mean what they say.

Run:  python examples/distributed_workers.py
"""

from __future__ import annotations

import time

from repro import FixedPerCallLatency, ReluScorer, ShardedTopKEngine
from repro.data.synthetic import SyntheticClustersDataset
from repro.experiments.ground_truth import compute_ground_truth
from repro.index.builder import IndexConfig
from repro.scoring.blocking import BlockingReluScorer

K = 40


def main() -> None:
    dataset = SyntheticClustersDataset.generate(n_clusters=12,
                                                per_cluster=500, rng=1)
    scorer = ReluScorer(FixedPerCallLatency(1e-3))
    truth = compute_ground_truth(dataset, scorer)
    optimal = truth.optimal_stk(K)
    budget = len(dataset) // 3

    print(f"n={len(dataset):,}, k={K}, budget={budget:,} scoring calls "
          f"(1 ms each)\n")
    print("-- simulation (serial backend, virtual clock) --")
    print("workers | wall time | STK (fraction of optimal)")
    for n_workers in (1, 2, 4, 8):
        with ShardedTopKEngine(
            dataset, scorer, k=K, n_workers=n_workers, backend="serial",
            index_config=IndexConfig(n_clusters=6),
            sync_interval=100, seed=0,
        ) as simulated:
            result = simulated.run(budget=budget)
        print(f"{n_workers:7d} | {result.wall_time:8.2f}s | "
              f"{result.stk / optimal:.1%}  "
              f"({result.n_rounds} sync rounds)")

    print("\n-- real backends (4 workers, measured clock, blocking UDF) --")
    blocking = BlockingReluScorer(1e-3)
    print("backend | wall time | STK (fraction of optimal)")
    for backend in ("serial", "thread", "process"):
        with ShardedTopKEngine(
            dataset, blocking, k=K, n_workers=4,
            backend=backend,
            index_config=IndexConfig(n_clusters=6),
            sync_interval=200, seed=0,
        ) as sharded:
            started = time.perf_counter()
            result = sharded.run(budget)
            elapsed = time.perf_counter() - started
        print(f"{backend:>7} | {elapsed:8.2f}s | {result.stk / optimal:.1%}")

    print("\nsame total budget, same merged answer: the coordinator merge "
          "plus threshold broadcast keeps the partitioned bandits honest, "
          "and thread/process overlap the UDF latency for real.")


if __name__ == "__main__":
    main()
