#!/usr/bin/env python3
"""The benchmark's entry point.

    python3 bench/run.py                      every workload, both passes
    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/run.py --aa N               A/A: N alternating sets
    python3 bench/run.py --compare A.json B.json

The one-pass form prints the result object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
See ``bench/README.md`` for what the names mean.

The process re-executes itself once with a pinned environment —
``PYTHONHASHSEED=0``, ``PYTHONPATH=src``, single-threaded BLAS and one
malloc arena — so a run does not depend on the caller's shell: free to
use both shared cores, OpenBLAS made the k-means set-up take 6.2–7.3 s
wall for 11.7–13.4 s CPU (16 % spread); pinned, 6.8–7.4 s and no slower.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
DEFAULT_SEED = 20250613

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # glibc opens a second malloc arena when two threads first contend;
    # whether they do is a race, and it made the server child's peak RSS
    # read 198.6 MB on some runs and 212-234 MB on others.
    "MALLOC_ARENA_MAX": "1",
    "REPRO_BENCH_PINNED": "1",
}


def pin_environment() -> None:
    """Re-execute once under :data:`PINNED_ENV` with ``src`` importable."""
    if os.environ.get("REPRO_BENCH_PINNED") == "1":
        return
    env = dict(os.environ, **PINNED_ENV)
    src = str(REPO_DIR / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="One repeatable benchmark for the opaque top-k system.")
    parser.add_argument("--workload", help="run one pass of this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured window "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, metavar="N",
                        help="run N alternating A/B sets of this checkout")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()

    import harness
    import report
    from workloads import WORKLOADS

    try:
        contract = harness.contract()
        declared = [w["name"] for w in contract["workloads"]]
        if declared != list(WORKLOADS):
            raise harness.BenchmarkError(
                f"workloads differ: BENCHMARK.json {declared}, "
                f"bench/workloads.py {list(WORKLOADS)}")
        seconds = (args.seconds if args.seconds is not None
                   else float(contract["run_seconds"]))
        if args.compare:
            return report.compare(contract, *args.compare)
        if args.aa:
            return report.a_a(contract, args.aa, seconds)
        if args.workload is None:
            return report.run_all(contract, args.seed, seconds)
        if args.workload not in WORKLOADS:
            raise harness.BenchmarkError(
                f"unknown workload {args.workload!r}; "
                f"declared: {', '.join(WORKLOADS)}")
        workload = WORKLOADS[args.workload](args.seed)
        if workload.needs > harness.cores():
            raise harness.BenchmarkError(
                f"{workload.name} drives the program with {workload.needs} "
                f"threads/connections; this machine has {harness.cores()} "
                f"cores")
        run = harness.traced_pass if args.trace else harness.measured_pass
        result = run(workload, seconds)
    except harness.BenchmarkError as exc:
        print(f"bench/run.py: refused: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
