"""Observability overhead: tracing must be free when off, honest when on.

PR 8 threads a `TraceContext` (:mod:`repro.obs`) through every engine —
spans for parse/plan/execute, per-round and per-slice fragments stitched
across shard workers, counters for UDF calls and memo hits.  The
contract is that all of it is **off by default** and the guarded no-op
fast paths keep the disabled pipeline within noise of the PR-7 code
that had no tracing at all.

This benchmark pins that contract per engine mode (``single``,
``sharded`` serial@4, ``streaming`` serial@4 — the deterministic
backends, so answers are comparable cell by cell):

* ``seconds_off`` — best-of-N end-to-end ``session.execute`` wall with
  tracing disabled (the default).  The ``before`` label is recorded on
  the pre-observability code; the committed ``after`` rows must stay
  within **1%** of it (``DISABLED_OVERHEAD_CEILING``).  Because two
  separate-process minima drift apart on a busy machine, the headline
  ``disabled_overhead_fraction`` is the **median of per-round paired
  ratios**: record both labels in alternating rounds with
  ``--merge-min`` (each appends to ``seconds_off_samples``) so every
  pair shares near-identical machine state.
* ``seconds_on`` — the same query with ``trace=True``; reported
  honestly as ``enabled_overhead_fraction``.  ``None`` when the running
  code predates the ``trace=`` kwarg (so the same file produces the
  ``before`` baseline).
* ``bit_identical`` — the traced run returns exactly the untraced ids.

Results go to ``BENCH_obs.json`` (shared ``results[label]`` row
schema).  ``benchmarks/check_regression.py --benchmark obs`` (and the
``pytest -m perf`` gate) asserts the committed after/before ratio and
re-measures the invariants that survive hardware noise: bit-identity
and the presence of a stitched span tree in the traced run.

Usage (alternate a few rounds so the paired median converges)::

    PYTHONPATH=<pre-obs-src> python benchmarks/bench_obs.py \
        --label before --merge-min
    PYTHONPATH=src python benchmarks/bench_obs.py --merge-min  # after
"""

from __future__ import annotations

import argparse
import gc
import inspect
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
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_obs.json"

N = 20_000
K = 50
BATCH_SIZE = 64
PER_CALL = 0.0           # no simulated latency: measure pure engine overhead
WORKERS = 4
SEED = 0
#: Scoring budget per query, as a fraction of the table.
BUDGET_FRACTION = 0.4
#: Timing repeats per cell; the row keeps the minimum (least-noise) run.
#: High because the acceptance bar is 1%: the minimum over this many
#: deterministic runs converges to the interference-free floor.
REPEATS = 40
#: The acceptance bar: committed disabled wall vs the PR-7 baseline.
DISABLED_OVERHEAD_CEILING = 0.01

MODES = ("single", "sharded", "streaming")


def build_dataset(n: int = N, seed: int = SEED,
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


def _session(dataset: InMemoryDataset) -> OpaqueQuerySession:
    # Cache off so every repeat scores the same elements from scratch.
    scorer = CountingScorer(ReluScorer(FixedPerCallLatency(PER_CALL)))
    session = OpaqueQuerySession(enable_cache=False)
    session.register_table(
        "t", dataset,
        index_config=IndexConfig(n_clusters=16, subsample=2_000, flat=True),
    )
    session.register_udf("score", scorer)
    return session


def _query(mode: str, n: int = N) -> str:
    budget = int(n * BUDGET_FRACTION)
    text = (f"SELECT TOP {K} FROM t ORDER BY score "
            f"BUDGET {budget} BATCH {BATCH_SIZE} SEED {SEED}")
    if mode in ("sharded", "streaming"):
        text += f" WORKERS {WORKERS} BACKEND serial"
    if mode == "streaming":
        text += " STREAM"
    return text


def trace_supported() -> bool:
    """Whether the running code accepts ``session.execute(trace=...)``."""
    return "trace" in inspect.signature(OpaqueQuerySession.execute).parameters


def _time_execute(dataset: InMemoryDataset, mode: str, trace: bool,
                  repeats: int = REPEATS):
    """Best-of-``repeats`` wall for one cell; fresh session per repeat."""
    query = _query(mode)
    best = float("inf")
    result = None
    for _ in range(repeats):
        session = _session(dataset)
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = session.execute(query, trace=trace)
            wall = time.perf_counter() - started
        finally:
            gc.enable()
        best = min(best, wall)
    return result, best


def run_cell(dataset: InMemoryDataset, mode: str,
             repeats: int = REPEATS) -> Dict[str, object]:
    """One grid cell: untraced timing, traced timing (when supported)."""
    off_result, seconds_off = _time_execute(dataset, mode, trace=False,
                                            repeats=repeats)
    seconds_on: Optional[float] = None
    enabled_overhead: Optional[float] = None
    bit_identical: Optional[bool] = None
    span_count: Optional[int] = None
    if trace_supported():
        on_result, seconds_on = _time_execute(dataset, mode, trace=True,
                                              repeats=repeats)
        enabled_overhead = seconds_on / seconds_off - 1.0
        bit_identical = list(off_result.ids) == list(on_result.ids)
        trace = getattr(on_result, "trace", None)
        span_count = trace.span_count() if trace is not None else 0
    return {
        "mode": mode,
        "n": N,
        "seed": SEED,
        "k": K,
        "budget": int(N * BUDGET_FRACTION),
        "repeats": repeats,
        "seconds_off": seconds_off,
        "seconds_off_samples": [seconds_off],
        "seconds_on": seconds_on,
        "enabled_overhead_fraction": enabled_overhead,
        "bit_identical": bit_identical,
        "span_count": span_count,
    }


def run_grid(modes: Sequence[str] = MODES, repeats: int = REPEATS,
             verbose: bool = True) -> List[Dict[str, object]]:
    dataset = build_dataset()
    rows: List[Dict[str, object]] = []
    for mode in modes:
        row = run_cell(dataset, mode, repeats=repeats)
        rows.append(row)
        if verbose:
            on = ("untraced-only" if row["seconds_on"] is None else
                  f"on {row['seconds_on']:.3f}s "
                  f"(+{row['enabled_overhead_fraction']:.1%}) "
                  f"identical={row['bit_identical']} "
                  f"spans={row['span_count']}")
            print(f"n={N:,} {mode:>9}  off {row['seconds_off']:.3f}s  {on}")
    return rows


def _paired_median_fraction(after_row: Dict[str, object],
                            before_row: Dict[str, object]) -> float:
    """Disabled drift as the median of per-round paired ratios.

    Both labels are recorded in alternating rounds (``--merge-min``), so
    sample ``i`` of each label ran under near-identical machine state;
    the per-pair ratio cancels the slow CPU drift that makes a plain
    min-vs-min comparison across separate processes unreliable, and the
    median discards rounds where a scheduler hiccup hit one side.
    """
    after = after_row.get("seconds_off_samples") or [after_row["seconds_off"]]
    before = (before_row.get("seconds_off_samples")
              or [before_row["seconds_off"]])
    pairs = min(len(after), len(before))
    ratios = sorted(after[i] / before[i] for i in range(pairs))
    mid = pairs // 2
    median = (ratios[mid] if pairs % 2
              else (ratios[mid - 1] + ratios[mid]) / 2.0)
    return median - 1.0


def overhead_table(rows: List[Dict[str, object]],
                   before: Optional[List[Dict[str, object]]] = None,
                   ) -> List[Dict[str, object]]:
    """Per-cell headline: disabled drift vs baseline, enabled cost."""
    baseline = {row["mode"]: row for row in before or []}
    table = []
    for row in sorted(rows, key=lambda r: MODES.index(r["mode"])):
        base = baseline.get(row["mode"])
        table.append({
            "mode": row["mode"],
            "seconds_off": row["seconds_off"],
            "disabled_overhead_fraction":
                (_paired_median_fraction(row, base) if base else None),
            "enabled_overhead_fraction": row["enabled_overhead_fraction"],
            "bit_identical": row["bit_identical"],
        })
    return table


def _merge_min(old: List[Dict[str, object]],
               new: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Per-mode best-of-both rows (see ``--merge-min``).

    Timings take the minimum of the two runs (min-of-mins converges on
    the true cost under slowdown-only container noise); the correctness
    fields must agree, so ``bit_identical`` is AND-ed and divergent span
    counts raise rather than silently picking one.
    """
    by_mode = {row["mode"]: row for row in old}
    merged = []
    for row in new:
        base = by_mode.get(row["mode"])
        if base is None:
            merged.append(row)
            continue
        if (row["span_count"] is not None and base["span_count"] is not None
                and row["span_count"] != base["span_count"]):
            raise SystemExit(
                f"--merge-min: span_count changed for {row['mode']} "
                f"({base['span_count']} -> {row['span_count']}); the code "
                f"under test differs — start a fresh file")
        out = dict(row)
        out["seconds_off"] = min(row["seconds_off"], base["seconds_off"])
        out["seconds_off_samples"] = (
            base.get("seconds_off_samples", [base["seconds_off"]])
            + row.get("seconds_off_samples", [row["seconds_off"]]))
        if row["seconds_on"] is not None and base["seconds_on"] is not None:
            out["seconds_on"] = min(row["seconds_on"], base["seconds_on"])
        if out["seconds_on"] is not None:
            out["enabled_overhead_fraction"] = (
                out["seconds_on"] / out["seconds_off"] - 1.0)
        if row["bit_identical"] is not None:
            out["bit_identical"] = bool(row["bit_identical"]
                                        and base["bit_identical"])
        merged.append(out)
    return merged


def write_results(rows: List[Dict[str, object]], label: str,
                  output: Path = DEFAULT_OUTPUT,
                  merge_min: bool = False) -> None:
    """Merge ``rows`` under ``results[label]`` (shared bench schema)."""
    payload: Dict[str, object] = {}
    if output.exists():
        payload = json.loads(output.read_text())
    payload.setdefault("benchmark", "obs")
    payload["machine"] = platform.platform()
    results = payload.setdefault("results", {})
    if merge_min and label in results:
        rows = _merge_min(results[label], rows)
    results[label] = rows
    payload["overhead"] = overhead_table(results.get("after", rows),
                                         before=results.get("before"))
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="after",
                        choices=("before", "after"))
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--no-write", action="store_true")
    parser.add_argument("--merge-min", action="store_true",
                        help="fold this run into existing rows of the same "
                             "label, keeping per-mode minimum timings — "
                             "alternate 'before'/'after' runs a few times "
                             "so container noise cancels out of the "
                             "disabled-overhead comparison")
    args = parser.parse_args(argv)
    rows = run_grid(repeats=args.repeats)
    if not args.no_write:
        write_results(rows, args.label, output=args.output,
                      merge_min=args.merge_min)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
