"""Tests of the benchmark itself (collected by the tier-1 command).

Each workload runs for one second on a 4 000-row table in both passes,
writing its trace to a scratch directory; the assertions are structural
— names, counts, nesting — never timings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import report  # noqa: E402
from inputs import Oracle, TableInputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROWS = 4_000
WINDOW_S = 1
END_TO_END = harness.declared("end_to_end")
PER_LAYER = harness.declared("per_layer")


# -- the contract ------------------------------------------------------------


def test_contract_and_code_name_the_same_workloads():
    contract = harness.contract()
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert "setup_s" in END_TO_END
    assert all(metric["bound"] <= 0.25 for metric in END_TO_END.values())


@pytest.mark.parametrize("change", [
    {"core.invented": 1.0},            # measured, not declared
    {"op_p50_ms": None},               # declared, not measured
])
def test_a_metric_on_one_side_only_is_refused(change):
    measured = {name: 1.0 for name in END_TO_END}
    measured.update(change)
    measured = {name: value for name, value in measured.items()
                if value is not None}
    with pytest.raises(harness.BenchmarkError, match=next(iter(change))):
        harness._report(None, [], [], END_TO_END, measured)


def test_calibration_rescales_only_the_time_on_a_cpu():
    slow = 2 * harness.CALIB_NOMINAL_S           # machine at half speed
    assert harness.calibrated(1.0, 1.0, slow) == pytest.approx(0.5)
    assert harness.calibrated(1.0, 0.0, slow) == pytest.approx(1.0)
    assert harness.calibrated(1.0, 0.4, slow) == pytest.approx(0.8)
    assert harness.calibrated(1.0, 1.7, slow) == pytest.approx(0.5)  # 2 threads


# -- the oracle --------------------------------------------------------------


@pytest.fixture
def oracle():
    values = [5.0, 4.0, 3.0, 2.0, 1.0, -1.0]
    return Oracle(TableInputs([f"e{i}" for i in range(6)], values, None))


def test_oracle_accepts_a_correct_answer(oracle):
    answer = [("e0", 5.0), ("e1", 4.0), ("e2", 3.0)]
    assert oracle.violations(answer, k=3, exhaustive=True,
                             budget=4, spent=4) == []
    assert oracle.stk_ratio(answer, k=3) == 1.0
    assert oracle.stk_ratio([("e1", 4.0), ("e2", 3.0), ("e3", 2.0)],
                            k=3) == pytest.approx(9 / 12)


@pytest.mark.parametrize("answer, complaint", [
    ([("e0", 5.0), ("e0", 5.0), ("e2", 3.0)], "duplicate id"),
    ([("e0", 5.0), ("e1", 4.5), ("e2", 3.0)], "wrong score"),
    ([("e1", 4.0), ("e0", 5.0), ("e2", 3.0)], "not best first"),
    ([("e0", 5.0), ("zz", 4.0), ("e2", 3.0)], "unknown id"),
    ([("e0", 5.0), ("e1", 4.0)], "2 rows, expected 3"),
    ([("e0", 5.0), ("e5", -1.0), ("e4", 1.0)], "wrong score"),  # ReLU: 0
    ([("e0", 5.0), None, ("e2", 3.0)], "malformed"),
])
def test_oracle_names_what_is_wrong(oracle, answer, complaint):
    found = oracle.violations(answer, k=3)
    assert any(complaint in violation for violation in found), found


def test_oracle_checks_exhaustion_budget_and_writes(oracle):
    inexact = [("e0", 5.0), ("e1", 4.0), ("e3", 2.0)]
    assert oracle.violations(inexact, k=3) == []
    assert "exact top-k" in oracle.violations(inexact, k=3,
                                              exhaustive=True)[0]
    assert "budget_spent" in oracle.violations(
        inexact, k=3, budget=10, spent=12, slack=1)[0]
    assert oracle.violations(inexact, k=3, budget=10, spent=11,
                             slack=1) == []
    oracle.delete(["e2"])
    oracle.append(["e9"], [9.0])
    oracle.update(["e1"], [0.5])
    assert list(oracle.exact_topk(3)) == [9.0, 5.0, 2.0]


# -- comparing runs ----------------------------------------------------------


def _runs(workload, **metrics):
    count = len(next(iter(metrics.values())))
    return [{"workload": workload, "trace": 0,
             "result": {"metrics": {name: {"value": values[i], "unit": ""}
                                    for name, values in metrics.items()}}}
            for i in range(count)]


def test_table_verdicts_follow_the_bounds():
    contract = harness.contract()
    steady = [100.0, 101.0, 99.0, 100.5, 100.0]
    a_runs = _runs("engine-scalar", op_p50_ms=steady, stk_ratio=[0.95] * 5,
                   setup_s=steady, peak_rss_mb=steady)
    b_runs = _runs("engine-scalar",
                   op_p50_ms=[v * 1.4 for v in steady],      # 40 % slower
                   stk_ratio=[0.95] * 5,
                   setup_s=[v * 0.6 for v in steady],        # 40 % faster
                   peak_rss_mb=[60.0, 100.0, 140.0, 100.0, 100.0])
    lines, verdicts = report.table(contract, a_runs, b_runs)
    by_metric = {line.split()[1]: line.split()[-1] for line in lines[1:]}
    assert by_metric == {"op_p50_ms": "regressed", "stk_ratio": "unchanged",
                         "setup_s": "improved", "peak_rss_mb": "unresolved"}
    assert sum(verdicts.values()) == 4


# -- the workloads, end to end -----------------------------------------------


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """Both passes of every workload: ``{workload: (measured, traced, trace)}``."""
    out = tmp_path_factory.mktemp("bench-out")
    env = dict(os.environ, REPRO_BENCH_ROWS=str(ROWS),
               REPRO_BENCH_OUT=str(out))

    def run(workload, trace):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             workload, "--seed", "5", "--seconds", str(WINDOW_S),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, env=env)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.strip().splitlines()[-1])

    return {
        workload: (run(workload, 0), run(workload, 1),
                   json.loads((out / f"trace-{workload}.json").read_text()))
        for workload in WORKLOADS
        if WORKLOADS[workload].needs <= harness.cores()}


def test_every_declared_layer_metric_is_measured_somewhere(passes):
    if len(passes) < len(WORKLOADS):
        pytest.skip("needs more cores than this machine has")
    measured = set().union(*(trace["measured"]
                             for _m, _t, trace in passes.values()))
    assert measured == set(PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_yields_exactly_the_declared_metrics(workload, passes):
    if workload not in passes:
        pytest.skip("needs more cores than this machine has")
    measured, traced, trace = passes[workload]

    assert set(measured) == {"correct", "attempted", "failed", "metrics"}
    assert measured["correct"] is True and measured["failed"] == 0
    assert measured["attempted"] >= 1
    assert {name: metric["unit"]
            for name, metric in measured["metrics"].items()} == {
        name: metric["unit"] for name, metric in END_TO_END.items()}
    assert all(metric["value"] > 0 for metric in measured["metrics"].values())

    assert traced["correct"] is True and traced["failed"] == 0
    assert {name: metric["unit"]
            for name, metric in traced["metrics"].items()} == {
        name: metric["unit"] for name, metric in PER_LAYER.items()}
    assert traced["metrics"]["harness.unattributed_share"]["value"] <= 0.05

    names = trace["names"]
    spans = trace["spans"]
    assert spans and trace["workload"] == workload
    for name, start, end, parent, operation in spans:
        assert end >= start
        if parent >= 0:
            _pn, parent_start, parent_end, _pp, parent_op = spans[parent]
            assert parent_start <= start and end <= parent_end, names[name]
            assert parent_op == operation
    roots = {operation: end - start
             for name, start, end, parent, operation in spans
             if parent < 0 and names[name] == "op"}
    assert roots
    # A pre-emption between two spans lands in no layer; it may spoil an
    # operation or two, not the pass.
    attributed = [summary["self_s"]["op"]
                  <= 0.05 * sum(summary["self_s"].values())
                  for summary in trace["operations"]]
    assert sum(attributed) >= 0.9 * len(attributed)
    for summary in trace["operations"]:
        self_s = summary["self_s"]
        wall = roots.get(summary["operation"])
        if wall is not None and workload != "udf-sharded-2w":
            # Sharded worker spans overlap in time, so their self times
            # sum past the wall; everywhere else they tile it.
            assert sum(self_s.values()) == pytest.approx(wall, rel=0.05)
