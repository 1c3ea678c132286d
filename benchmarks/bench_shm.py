"""Zero-copy shard bootstrap benchmark: shm path vs inline spec copies.

Measures what the shared-memory table layer (:mod:`repro.parallel.shm`)
actually buys the process backend on the 1M-element synthetic table, per
mode (``shm`` vs ``copy``):

* ``spec_bytes_max`` — the largest pickled :class:`ShardSpec`; the copy
  path grows linearly with the partition, the shm path stays O(1);
* ``bootstrap_seconds`` — wall-clock of ``engine.start()``: spec
  assembly plus spawning every child and running its initializer (spec
  transfer or segment attach, index build), children warmed concurrently;
* ``child_rss_delta_kb`` — each child's *private* resident set (
  ``Private_Clean + Private_Dirty`` of ``/proc/self/smaps_rollup``, so
  mapped shared pages are excluded) minus a bare warmed child that only
  imported the library: the per-child memory the bootstrap added;
* ``e2e_wall_seconds`` / ``stk`` — one end-to-end process@4 query, which
  doubles as the bit-identity pin: both modes must report the same STK
  and the same scored count at the same seed.

Children are started under the **spawn** start method
(``REPRO_PROCESS_START_METHOD=spawn``) for every cell: under Linux's
default fork the initializer args are inherited copy-on-write rather
than pickled, which would hide exactly the transfer cost this benchmark
exists to measure (and which macOS / Windows / recent Pythons pay by
default).  The committed ``BENCH_sharded.json`` numbers keep the
platform default and are unaffected.

Features are ``d=64`` per element so the feature block is a real matrix
(512 MB at 1M elements) rather than a scalar column.

Results go to ``BENCH_shm.json`` in the shared ``results[label]`` schema;
``benchmarks/check_regression.py --benchmark shm`` consumes the committed
rows (structural: spec-size ceiling, shm strictly cheaper bootstrap and
RSS at 1M, bit-identical answers) and re-measures the small cells live.

Usage::

    PYTHONPATH=src python benchmarks/bench_shm.py            # full grid
    PYTHONPATH=src python benchmarks/bench_shm.py --small    # gate cells
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import EngineConfig
from repro.data.dataset import InMemoryDataset
from repro.index.builder import IndexConfig
from repro.parallel import ShardedTopKEngine, build_shard_specs
from repro.parallel.shm import process_private_rss_kb
from repro.scoring.blocking import BlockingReluScorer
from repro.utils.rng import RngFactory

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_shm.json"

FULL_N = 1_000_000
SMALL_N = 20_000
K = 50
D = 64                   # feature dimensionality (the shared payload; an
                         # embedding-sized matrix, 512 MB at 1M elements)
WORKERS = 4
BATCH_SIZE = 16
PER_CALL = 2e-4          # simulated seconds per UDF call (scoring still
                         # dominates the e2e cell without dwarfing the
                         # bootstrap difference under measurement)
SYNC_INTERVAL = 2_000
START_METHOD = "spawn"   # see module docstring
#: Pickled-size ceiling for an shm-path spec — the wire-size regression
#: contract, shared with tests/test_shm.py and the check_shm gate.
SPEC_BYTES_CEILING = 4_096

MODES = ("copy", "shm")


def build_dataset(n: int, seed: int = 0,
                  leaf_size: int = 256) -> InMemoryDataset:
    """Clustered scalar scores with a d=64 feature matrix.

    Same gamma-leaf score structure as ``bench_sharded.build_dataset`` so
    the bandit has signal; feature column 0 carries the value and the
    rest are mild noise, making the feature block a real ``(n, 64)``
    payload instead of a scalar column.
    """
    rng = np.random.default_rng(seed)
    n_leaves = (n + leaf_size - 1) // leaf_size
    means = rng.gamma(shape=2.0, scale=0.5, size=n_leaves)
    values = rng.normal(loc=np.repeat(means, leaf_size)[:n], scale=0.25)
    values = np.maximum(values, 0.0)
    features = np.empty((n, D))
    features[:, 0] = values
    features[:, 1:] = rng.normal(scale=0.1, size=(n, D - 1))
    ids = [f"e{i}" for i in range(n)]
    return InMemoryDataset(ids, values.tolist(), features)


def _engine(dataset: InMemoryDataset, *, shared_memory: bool,
            seed: int) -> ShardedTopKEngine:
    return ShardedTopKEngine(
        dataset, BlockingReluScorer(PER_CALL), k=K,
        n_workers=WORKERS,
        backend="process",
        index_config=IndexConfig(n_clusters=16, subsample=2_000, flat=True),
        engine_config=EngineConfig(k=K, batch_size=BATCH_SIZE),
        sync_interval=SYNC_INTERVAL,
        seed=seed,
        shared_memory=shared_memory,
    )


def measure_spec_bytes(dataset: InMemoryDataset, *, shared_memory: bool,
                       seed: int) -> Dict[str, object]:
    """Pickled-spec sizes (and segment size) for one mode, coordinator-side."""
    factory = RngFactory(seed)
    _parts, specs, _hit, table = build_shard_specs(
        dataset, BlockingReluScorer(PER_CALL), n_workers=WORKERS, k=K,
        engine_config=EngineConfig(k=K, batch_size=BATCH_SIZE),
        index_config=IndexConfig(n_clusters=16, subsample=2_000, flat=True),
        factory=factory,
        materialize=True, shared_memory=shared_memory,
    )
    try:
        sizes = [len(pickle.dumps(spec)) for spec in specs]
        segment_mb = (table.nbytes / 2**20) if table is not None else None
    finally:
        if table is not None:
            table.close()
    return {"spec_bytes_max": max(sizes), "segment_mb": segment_mb}


def bare_child_rss_kb() -> int:
    """Private RSS of a spawned child that only imported the library.

    The subtraction baseline: interpreter + numpy + repro imports, no
    shard payload.
    """
    import multiprocessing

    context = multiprocessing.get_context(START_METHOD)
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return int(pool.submit(process_private_rss_kb).result())


def measure_once(dataset: InMemoryDataset, *, shared_memory: bool,
                 budget: int, bare_rss_kb: int,
                 seed: int = 0) -> Dict[str, object]:
    """One mode's full measurement: spec bytes, bootstrap, RSS, e2e run."""
    row: Dict[str, object] = {
        "mode": "shm" if shared_memory else "copy",
        "n": len(dataset),
        "workers": WORKERS,
        "d": D,
        "batch_size": BATCH_SIZE,
        "budget": budget,
        "start_method": START_METHOD,
    }
    row.update(measure_spec_bytes(dataset, shared_memory=shared_memory,
                                  seed=seed))
    engine = _engine(dataset, shared_memory=shared_memory, seed=seed)
    try:
        started = time.perf_counter()
        engine.start()
        row["bootstrap_seconds"] = time.perf_counter() - started
        child_rss = [int(pool.submit(process_private_rss_kb).result())
                     for pool in engine.backend._pools]
        row["child_private_rss_kb"] = int(np.mean(child_rss))
        row["bare_child_rss_kb"] = bare_rss_kb
        row["child_rss_delta_kb"] = row["child_private_rss_kb"] - bare_rss_kb
        started = time.perf_counter()
        result = engine.run(budget)
        row["e2e_wall_seconds"] = time.perf_counter() - started
        row["n_scored"] = result.total_scored
        row["stk"] = result.stk
    finally:
        engine.close()
    return row


def run_grid(sizes: Sequence[int] = (SMALL_N, FULL_N),
             budget: Optional[int] = None, seed: int = 0,
             verbose: bool = True) -> List[Dict[str, object]]:
    """Measure both modes at every table size, spawn-started children."""
    previous = os.environ.get("REPRO_PROCESS_START_METHOD")
    os.environ["REPRO_PROCESS_START_METHOD"] = START_METHOD
    try:
        bare = bare_child_rss_kb()
        rows: List[Dict[str, object]] = []
        for n in sizes:
            dataset = build_dataset(n, seed=seed)
            cell_budget = budget if budget is not None else min(n, 40_000)
            for mode in MODES:
                row = measure_once(dataset, shared_memory=(mode == "shm"),
                                   budget=cell_budget, bare_rss_kb=bare,
                                   seed=seed)
                rows.append(row)
                if verbose:
                    print(f"n={n:>9,}  {mode:>4}  "
                          f"spec={row['spec_bytes_max']:>9,} B  "
                          f"bootstrap={row['bootstrap_seconds']:6.2f} s  "
                          f"child RSS +{row['child_rss_delta_kb']:>7,} kB  "
                          f"e2e={row['e2e_wall_seconds']:6.2f} s")
        return rows
    finally:
        if previous is None:
            os.environ.pop("REPRO_PROCESS_START_METHOD", None)
        else:
            os.environ["REPRO_PROCESS_START_METHOD"] = previous


def savings_table(rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Headline shm-vs-copy ratios per table size."""
    by_cell: Dict[tuple, Dict[str, dict]] = {}
    for row in rows:
        by_cell.setdefault((row["n"],), {})[row["mode"]] = row
    table = []
    for (n,), cell in sorted(by_cell.items()):
        shm, copy = cell.get("shm"), cell.get("copy")
        if shm is None or copy is None:
            continue
        table.append({
            "n": n,
            "spec_bytes_copy": copy["spec_bytes_max"],
            "spec_bytes_shm": shm["spec_bytes_max"],
            "spec_shrink_x": copy["spec_bytes_max"]
            / max(1, shm["spec_bytes_max"]),
            "bootstrap_copy_seconds": copy["bootstrap_seconds"],
            "bootstrap_shm_seconds": shm["bootstrap_seconds"],
            "bootstrap_speedup_x": copy["bootstrap_seconds"]
            / max(shm["bootstrap_seconds"], 1e-9),
            "child_rss_delta_copy_kb": copy["child_rss_delta_kb"],
            "child_rss_delta_shm_kb": shm["child_rss_delta_kb"],
            "stk_identical": shm["stk"] == copy["stk"],
        })
    return table


def write_results(rows: List[Dict[str, object]], label: str,
                  output: Path = DEFAULT_OUTPUT) -> None:
    """Merge ``rows`` under ``results[label]`` (shared benchmark schema)."""
    payload: Dict[str, object] = {}
    if output.exists():
        payload = json.loads(output.read_text())
    payload.setdefault("benchmark", "shm")
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
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--no-write", action="store_true")
    args = parser.parse_args(argv)
    sizes = (SMALL_N,) if args.small else (SMALL_N, FULL_N)
    rows = run_grid(sizes, budget=args.budget)
    for line in savings_table(rows):
        print(f"  n={line['n']:,}: spec {line['spec_shrink_x']:.0f}x "
              f"smaller, bootstrap {line['bootstrap_speedup_x']:.2f}x "
              f"faster, child RSS +{line['child_rss_delta_shm_kb']:,} kB vs "
              f"+{line['child_rss_delta_copy_kb']:,} kB, "
              f"stk identical: {line['stk_identical']}")
    if not args.no_write:
        write_results(rows, args.label, output=args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
