"""Many runs: the full benchmark, A/A sets, and comparing two result files.

Every run is one child process (``bench/run.py --workload ...``), so no
run inherits another's heap, caches or threads.  Result files share one
schema: ``{"machine": ..., "runs": [{"workload", "trace", "seed",
"seconds", "result"}]}``.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

import numpy

import harness

RUN_PY = harness.BENCH_DIR / "run.py"
#: One pass may build the program first; the contract allows it 900 s.
PASS_TIMEOUT_S = 900


def machine() -> dict:
    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.BENCH_DIR.parent,
            capture_output=True, text=True, timeout=10).stdout.strip() or sha
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "machine": platform.platform(),
        "nproc": harness.cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def run_pass(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One pass in a child process; returns its run record."""
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise harness.BenchmarkError(
            f"{workload} --seed {seed} --trace {trace} exited with "
            f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"workload": workload, "trace": trace, "seed": seed,
            "seconds": seconds, "result": result}


def write_results(name: str, runs: List[dict]) -> None:
    harness.OUT_DIR.mkdir(exist_ok=True)
    (harness.OUT_DIR / name).write_text(
        json.dumps({**machine(), "runs": runs}, indent=1))


def run_all(contract: dict, seed: int, seconds: float) -> int:
    """Every workload, both passes."""
    runs: List[dict] = []
    failed = 0
    for workload in (w["name"] for w in contract["workloads"]):
        for trace in (0, 1):
            run = run_pass(workload, seed, seconds, trace)
            runs.append(run)
            failed += run["result"]["failed"]
            for name, metric in run["result"]["metrics"].items():
                print(workload, name, metric["value"], metric["unit"])
    write_results("results.json", runs)
    return 1 if failed else 0


# -- statistics --------------------------------------------------------------


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); degenerate for < 2."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def worsening(base: float, other: float, better: str) -> float:
    """Share of ``base`` by which ``other`` is worse (negative = better)."""
    if not base:
        return 0.0
    change = (other - base) / base
    return change if better == "lower" else -change


def collect(runs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): values}`` over the measured (untraced) runs."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        if run["trace"] == 0:
            for name, metric in run["result"]["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    metric["value"])
    return values


def table(contract: dict, a_runs: List[dict], b_runs: List[dict],
          ) -> Tuple[List[str], Dict[str, int]]:
    """One row per workload x end-to-end metric; counts per verdict."""
    a_values, b_values = collect(a_runs), collect(b_runs)
    lines = [f"{'workload':<16} {'metric':<17} "
             f"{'A median [q1, q3]':<36} {'B median [q1, q3]':<36} "
             f"{'B worse by':>10} {'of A':>10} {'spread':>7} {'bound':>6}  "
             f"verdict"]
    verdicts: Dict[str, int] = {}
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            a_q, b_q = quartiles(a_values[key]), quartiles(b_values[key])
            worse = worsening(a_q[1], b_q[1], metric["better"])
            wide = max(spread(a_values[key]), spread(b_values[key]))
            # A spread wider than the bound cannot show "unchanged".
            if worse > metric["bound"]:
                verdict = "regressed"
            elif worse < -metric["bound"]:
                verdict = "improved"
            elif wide > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            lines.append(
                f"{workload:<16} {metric['name']:<17} "
                f"{_cell(a_q):<36} {_cell(b_q):<36} "
                f"{worse:>+10.2%} {a_q[1]:>10.4g} {wide:>7.2%} "
                f"{metric['bound']:>6.0%}  {verdict}")
    return lines, verdicts


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


# -- the two tools -----------------------------------------------------------


def a_a(contract: dict, sets: int, seconds: float, seed: int = 1) -> int:
    """``sets`` alternating A/B sets of the same checkout.

    Every run takes another seed, as the driver's do.  Exits non-zero if
    any metric's two medians differ by more than its bound, either way,
    or an operation failed; a spread wider than the bound is reported
    (``unresolved``) and does not fail the A/A by itself.  Writes
    ``aa-A.json`` and ``aa-B.json``, which ``--compare`` reads.
    """
    sides: Dict[str, List[dict]] = {"A": [], "B": []}
    for number in range(sets):
        order = ("A", "B") if number % 2 == 0 else ("B", "A")
        for side in order:
            for workload in (w["name"] for w in contract["workloads"]):
                sides[side].append(
                    run_pass(workload, seed, seconds, 0))
                seed += 1
    write_results("aa-A.json", sides["A"])
    write_results("aa-B.json", sides["B"])
    lines, verdicts = table(contract, sides["A"], sides["B"])
    print("\n".join(lines))
    failed = sum(run["result"]["failed"]
                 for runs in sides.values() for run in runs)
    print(f"{failed} failed operations; verdicts: {verdicts}")
    apart = verdicts.get("improved", 0) + verdicts.get("regressed", 0)
    return 1 if apart or failed else 0


def compare(contract: dict, a_path: str, b_path: str) -> int:
    """Rows for two result files; exits non-zero on any regression."""
    with open(a_path) as a_file, open(b_path) as b_file:
        a_runs = json.load(a_file)["runs"]
        b_runs = json.load(b_file)["runs"]
    lines, verdicts = table(contract, a_runs, b_runs)
    print(f"A = {a_path}\nB = {b_path}")
    print("\n".join(lines))
    print(f"verdicts: {verdicts}")
    return 1 if verdicts.get("regressed") else 0
