"""Cross-query score memo: repeat-query savings at zero answer drift.

Production traffic is repetitive — the same UDF, overlapping WHERE
subsets, the same table.  The memo (:mod:`repro.memo`) keys every score
by ``(udf fingerprint, element id)`` so no element is scored twice
across queries, and its contract is *transparency*: a hit skips only the
real UDF invocation, never the draw, the RNG, or the virtual clock, so a
warm answer is bit-identical to a cold one.

This benchmark pins both halves of that trade on the clustered setup
shared with ``bench_filtered.py``, per engine mode (``single``,
``sharded`` serial@4, ``streaming`` serial@4 — the deterministic
backends, so bit-identity is checkable cell by cell):

* ``udf_calls_saved_fraction`` — real UDF calls a warm exact-repeat
  query saves versus its cold run (the acceptance bar is >= 90%; with a
  deterministic engine the repeat draws exactly the memoized elements,
  so the measured value is 100%).
* ``bit_identical`` — the answer ids of the cache-off run, the cold
  cached run, and the warm repeat are identical per cell.
* ``wall_seconds_cold`` / ``wall_seconds_warm`` — measured end-to-end
  query wall including planning; the warm run drops the per-call UDF
  latency (simulated off-clock here, so wall savings at these sizes are
  engine overhead only — the virtual pipeline seconds carry the model).

Results go to ``BENCH_cache.json`` (shared ``results[label]`` row
schema).  ``benchmarks/check_regression.py --benchmark cache`` (and the
``pytest -m perf`` gate) asserts the acceptance invariant on the
committed rows *and* on a live re-measurement of the small 20k cells:
>= 90% of UDF calls saved on an exact repeat query, bit-identical
answers, and a nonzero expected hit rate in the warm EXPLAIN.

Usage::

    PYTHONPATH=src python benchmarks/bench_cache.py            # full grid
    PYTHONPATH=src python benchmarks/bench_cache.py --small    # gate cells
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dataset import InMemoryDataset
from repro.index.builder import IndexConfig
from repro.scoring.base import CountingScorer, FixedPerCallLatency
from repro.scoring.relu import ReluScorer
from repro.session import OpaqueQuerySession

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_cache.json"

FULL_N = 200_000
SMALL_N = 20_000
K = 50
BATCH_SIZE = 64
PER_CALL = 2e-3          # UDF latency model (virtual pipeline clock)
WORKERS = 4
SEEDS = (0, 1)
#: Scoring budget per query, as a fraction of the table.
BUDGET_FRACTION = 0.2
#: The acceptance bar: UDF calls a warm exact-repeat query must save.
SAVINGS_FLOOR = 0.90

MODES = ("single", "sharded", "streaming")


def build_dataset(n: int, seed: int = 0,
                  leaf_size: int = 256) -> InMemoryDataset:
    """The gamma-mean clustered table shared with the other benches."""
    rng = np.random.default_rng(seed)
    n_leaves = (n + leaf_size - 1) // leaf_size
    means = rng.gamma(shape=2.0, scale=0.5, size=n_leaves)
    values = rng.normal(loc=np.repeat(means, leaf_size)[:n], scale=0.25)
    values = np.maximum(values, 0.0)
    ids = [f"e{i}" for i in range(n)]
    return InMemoryDataset(ids, values.tolist(),
                           np.column_stack([values, rng.random(n)]))


def _session(dataset: InMemoryDataset, enable_cache: bool = True):
    scorer = CountingScorer(ReluScorer(FixedPerCallLatency(PER_CALL)))
    session = OpaqueQuerySession(enable_cache=enable_cache)
    session.register_table(
        "t", dataset,
        index_config=IndexConfig(n_clusters=16, subsample=2_000, flat=True),
    )
    session.register_udf("score", scorer)
    return session, scorer


def _query(n: int, seed: int, mode: str) -> str:
    budget = int(n * BUDGET_FRACTION)
    text = (f"SELECT TOP {K} FROM t ORDER BY score "
            f"BUDGET {budget} BATCH {BATCH_SIZE} SEED {seed}")
    if mode in ("sharded", "streaming"):
        text += f" WORKERS {WORKERS} BACKEND serial"
    if mode == "streaming":
        text += " STREAM"
    return text


def _execute(session: OpaqueQuerySession, query: str):
    started = time.perf_counter()
    result = session.execute(query)
    return result, time.perf_counter() - started


def run_cell(dataset: InMemoryDataset, n: int, seed: int,
             mode: str) -> Dict[str, object]:
    """One grid cell: cache-off run, cold cached run, warm exact repeat."""
    query = _query(n, seed, mode)

    off_session, off_scorer = _session(dataset, enable_cache=False)
    off_result, _off_wall = _execute(off_session, query)

    session, scorer = _session(dataset)
    cold_result, wall_cold = _execute(session, query)
    calls_cold = scorer.n_elements
    warm_result, wall_warm = _execute(session, query)
    calls_warm = scorer.n_elements - calls_cold

    stats = session.cache_stats("t")
    warm_plan = session.plan(f"EXPLAIN {query}")
    return {
        "mode": mode,
        "n": n,
        "seed": seed,
        "k": K,
        "budget": int(n * BUDGET_FRACTION),
        "udf_calls_cold": calls_cold,
        "udf_calls_warm": calls_warm,
        "udf_calls_saved_fraction":
            1.0 - calls_warm / max(calls_cold, 1),
        "hit_rate": stats["hits"] / max(stats["hits"] + stats["misses"], 1),
        "entries": stats["entries"],
        "expected_hit_rate_warm": warm_plan.expected_hit_rate,
        "bit_identical": (off_result.ids == cold_result.ids
                          == warm_result.ids),
        "wall_seconds_cold": wall_cold,
        "wall_seconds_warm": wall_warm,
    }


def run_grid(n: int = FULL_N, seeds: Sequence[int] = SEEDS,
             modes: Sequence[str] = MODES,
             verbose: bool = True) -> List[Dict[str, object]]:
    """Measure every engine mode per seed over one shared dataset."""
    rows: List[Dict[str, object]] = []
    for seed in seeds:
        dataset = build_dataset(n, seed=seed)
        for mode in modes:
            row = run_cell(dataset, n, seed, mode)
            rows.append(row)
            if verbose:
                print(f"n={n:>9,} seed={seed} {mode:>9}  "
                      f"cold {row['udf_calls_cold']:>7,} calls, warm "
                      f"{row['udf_calls_warm']:>5,} "
                      f"({row['udf_calls_saved_fraction']:.1%} saved)  "
                      f"identical={row['bit_identical']}  "
                      f"explain={row['expected_hit_rate_warm']:.1%}")
    return rows


def savings_table(rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Per-cell headline: calls saved, hit rate, bit-identity."""
    return [
        {
            "mode": row["mode"],
            "n": row["n"],
            "seed": row["seed"],
            "udf_calls_saved_fraction": row["udf_calls_saved_fraction"],
            "hit_rate": row["hit_rate"],
            "bit_identical": row["bit_identical"],
        }
        for row in sorted(rows, key=lambda r: (r["n"], r["seed"],
                                               r["mode"]))
    ]


def write_results(rows: List[Dict[str, object]], label: str,
                  output: Path = DEFAULT_OUTPUT) -> None:
    """Merge ``rows`` under ``results[label]`` (shared bench schema)."""
    payload: Dict[str, object] = {}
    if output.exists():
        payload = json.loads(output.read_text())
    payload.setdefault("benchmark", "cache")
    payload["machine"] = platform.platform()
    results = payload.setdefault("results", {})
    results[label] = rows
    payload["savings"] = savings_table(results.get("after", rows))
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="after",
                        choices=("before", "after"))
    parser.add_argument("--small", action="store_true",
                        help="only the 20k gate cells")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--no-write", action="store_true")
    args = parser.parse_args(argv)
    if args.small:
        rows = run_grid(n=SMALL_N)
    else:
        rows = run_grid(n=SMALL_N) + run_grid(n=FULL_N)
    for line in savings_table(rows):
        print(f"  n={line['n']:,} seed={line['seed']} "
              f"{line['mode']:>9}: "
              f"{line['udf_calls_saved_fraction']:.1%} calls saved, "
              f"hit rate {line['hit_rate']:.1%}, "
              f"identical={line['bit_identical']}")
    if not args.no_write:
        write_results(rows, args.label, output=args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
