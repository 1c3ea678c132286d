"""Streaming anytime top-k: progressive results while the query runs.

The round-based sharded engine (``examples/distributed_workers.py``)
returns nothing until the whole budget is spent.  The streaming engine
removes the round barrier: shard workers run continuously in small budget
slices, the coordinator merges each slice outcome the moment it arrives,
and ``results_iter()`` yields a usable top-k from the first slice onward —
time-to-first-result is one slice of work instead of one full run.

Four parts:

1. drive ``StreamingTopKEngine.results_iter`` directly and watch the
   anytime quality curve converge (with a really-blocking UDF so the
   clocks mean what they say);
2. compare time-to-first-result against the round-based engine's total
   wall-clock on the identical query;
3. the same thing declaratively: ``STREAM EVERY`` in the SQL dialect;
4. the early stop: ``CONFIDENCE p`` stops once the shards' sketch tails
   certify the answer (``docs/streaming.md``), and
   ``record=True`` + ``repro.replay`` re-executes the real thread-backend
   run bit for bit.

Run:  python examples/streaming_query.py
"""

from __future__ import annotations

import time

from repro import OpaqueQuerySession, ShardedTopKEngine, StreamingTopKEngine
from repro.data.synthetic import SyntheticClustersDataset
from repro.experiments.ground_truth import compute_ground_truth
from repro.index.builder import IndexConfig
from repro.scoring.blocking import BlockingReluScorer

K = 25
BUDGET = 2_000
PER_CALL = 1e-3  # the UDF really sleeps 1 ms per element


def main() -> None:
    dataset = SyntheticClustersDataset.generate(n_clusters=10,
                                                per_cluster=400, rng=2)
    scorer = BlockingReluScorer(PER_CALL)
    truth = compute_ground_truth(dataset, scorer)
    optimal = truth.optimal_stk(K)

    print(f"n={len(dataset):,}, k={K}, budget={BUDGET:,} blocking scoring "
          f"calls ({PER_CALL * 1e3:.0f} ms each)\n")

    print("-- 1. progressive snapshots (thread backend, 4 workers) --")
    with StreamingTopKEngine(
        dataset, scorer, k=K, n_workers=4, backend="thread",
        index_config=IndexConfig(n_clusters=5), slice_budget=100, seed=0,
    ) as streaming:
        for snap in streaming.results_iter(BUDGET, every=400):
            flag = "  <- converged" if snap.converged else ""
            print(f"  t={snap.wall_time:6.2f}s  scored {snap.budget_spent:>5,}"
                  f"  STK {snap.stk / optimal:6.1%} of optimal"
                  f"  threshold={snap.threshold:.3f}{flag}")
        result = streaming.result()
    print(f"  {result.summary()}\n")

    print("-- 2. time-to-first-result vs round-based total wall --")
    started = time.perf_counter()
    with ShardedTopKEngine(
        dataset, scorer, k=K, n_workers=4, backend="thread",
        index_config=IndexConfig(n_clusters=5), sync_interval=100, seed=0,
    ) as sharded:
        round_result = sharded.run(BUDGET)
    round_wall = time.perf_counter() - started
    ttfr = result.time_to_first_result
    print(f"  round engine: first (and only) answer after {round_wall:.2f}s "
          f"(STK {round_result.stk / optimal:.1%} of optimal)")
    print(f"  streaming:    first answer after {ttfr:.2f}s "
          f"({round_wall / ttfr:.0f}x earlier), same budget overall\n")

    print("-- 3. declarative STREAM EVERY --")
    session = OpaqueQuerySession()
    session.register_table("items", dataset,
                           index_config=IndexConfig(n_clusters=5))
    session.register_udf("score", scorer)
    for snap in session.stream(
        f"SELECT TOP {K} FROM items ORDER BY score "
        f"BUDGET {BUDGET} SEED 0 WORKERS 4 STREAM EVERY 500"
    ):
        print(f"  [SQL] scored {snap.budget_spent:>5,}  "
              f"STK {snap.stk / optimal:6.1%}"
              f"{'  <- converged' if snap.converged else ''}")

    print("\n-- 4. confidence-bounded stop + recorded-arrival replay --")
    with StreamingTopKEngine(
        dataset, scorer, k=K, n_workers=4, backend="thread",
        index_config=IndexConfig(n_clusters=5), slice_budget=100,
        confidence=0.95, record=True, seed=0,
    ) as certified:
        certified_result = certified.run()
        trace = certified.trace()
    print(f"  CONFIDENCE 0.95: scored {certified_result.total_scored:,} of "
          f"{len(dataset):,} — displacement bound "
          f"{certified_result.displacement_bound:.3g} "
          f"(STK {certified_result.stk / optimal:.1%} of optimal)")

    from repro.replay import replay_run

    replayed = replay_run(dataset, scorer, trace,
                          index_config=IndexConfig(n_clusters=5))
    identical = (replayed.items == certified_result.items
                 and replayed.progressive == certified_result.progressive)
    print(f"  replayed {trace.summary()}")
    print(f"  replay reproduces the real run bit for bit: {identical}")


if __name__ == "__main__":
    main()
