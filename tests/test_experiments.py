"""Tests for the experiment harness: ground truth, metrics, runner, report."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.scan import ScanBest, SortedScan
from repro.baselines.uniform import UniformSample
from repro.data.dataset import InMemoryDataset
from repro.errors import ConfigurationError
from repro.experiments.configs import (
    ImageNetConfig,
    SyntheticConfig,
    UsedCarsConfig,
    scale_factor,
)
from repro.experiments.ground_truth import GroundTruth, compute_ground_truth
from repro.experiments.metrics import precision_at_k, time_to_fraction
from repro.experiments.report import (
    format_curve_table,
    format_rows,
    format_speedup_table,
)
from repro.experiments.runner import (
    RunCurve,
    ScoreOracle,
    average_curves,
    checkpoint_grid,
    run_algorithm,
)
from repro.scoring.base import FixedPerCallLatency
from repro.scoring.relu import ReluScorer


@pytest.fixture
def linear_dataset():
    """50 elements with scores 0..49."""
    ids = [f"e{i}" for i in range(50)]
    values = [float(i) for i in range(50)]
    return InMemoryDataset(ids, values, np.asarray(values).reshape(-1, 1))


@pytest.fixture
def truth(linear_dataset):
    return compute_ground_truth(linear_dataset, ReluScorer())


class TestGroundTruth:
    def test_scores_aligned(self, truth):
        assert truth.score_of["e7"] == 7.0

    def test_kth_score(self, truth):
        assert truth.kth_score(1) == 49.0
        assert truth.kth_score(5) == 45.0

    def test_topk_ids(self, truth):
        assert truth.topk_ids(3) == {"e49", "e48", "e47"}

    def test_optimal_stk(self, truth):
        assert truth.optimal_stk(2) == 97.0

    def test_negative_scores_rejected(self, linear_dataset):
        from repro.scoring.base import FunctionScorer
        bad = FunctionScorer(lambda v: float(v) - 100.0)
        with pytest.raises(ConfigurationError):
            compute_ground_truth(linear_dataset, bad)

    @pytest.mark.parametrize("bad_score", [math.nan, math.inf])
    def test_non_finite_scores_rejected(self, linear_dataset, bad_score):
        from repro.scoring.base import FunctionScorer
        bad = FunctionScorer(
            lambda v: bad_score if float(v) == 7.0 else float(v))
        with pytest.raises(ConfigurationError, match="finite"):
            compute_ground_truth(linear_dataset, bad)

    def test_misaligned_rejected(self):
        with pytest.raises(ConfigurationError):
            GroundTruth(["a"], np.asarray([1.0, 2.0]))


class TestMetrics:
    def test_precision_perfect(self, truth):
        assert precision_at_k(["e49", "e48", "e47"], truth, 3) == 1.0

    def test_precision_partial(self, truth):
        assert precision_at_k(["e49", "e0", "e1"], truth, 3) == \
            pytest.approx(1 / 3)

    def test_precision_tie_tolerant(self):
        ids = ["a", "b", "c"]
        truth = GroundTruth(ids, np.asarray([5.0, 5.0, 1.0]))
        # Either of a/b is a valid top-1; both count as correct.
        assert precision_at_k(["b"], truth, 1) == 1.0

    def test_precision_invalid_k(self, truth):
        with pytest.raises(ValueError):
            precision_at_k([], truth, 0)

    def test_time_to_fraction(self):
        times = [0.0, 1.0, 2.0, 3.0]
        stks = [0.0, 50.0, 90.0, 100.0]
        assert time_to_fraction(times, stks, 100.0, 0.9) == 2.0
        assert time_to_fraction(times, stks, 100.0, 0.99) == 3.0
        assert time_to_fraction(times, stks, 200.0, 0.9) is None

    def test_precision_reads_only_the_first_k(self, truth):
        assert precision_at_k(["e49", "e0", "e48", "e47"], truth, 2) == 0.5

    def test_precision_counts_a_short_answer_against_k(self, truth):
        assert precision_at_k(["e49", "missing"], truth, 4) == 0.25

    def test_time_to_fraction_empty_curve(self):
        assert time_to_fraction([], [], 100.0, 0.5) is None


class TestScoreOracle:
    def test_replays_scores(self, truth):
        oracle = ScoreOracle(truth, FixedPerCallLatency(0.5))
        assert np.allclose(oracle.scores_for(["e3", "e1"]), [3.0, 1.0])
        assert oracle.batch_cost(2) == 1.0

    def test_unknown_id_rejected(self, truth):
        oracle = ScoreOracle(truth)
        with pytest.raises(ConfigurationError):
            oracle.scores_for(["nope"])


class TestRunAlgorithm:
    def test_budget_and_checkpoints(self, truth):
        oracle = ScoreOracle(truth, FixedPerCallLatency(1e-3))
        algo = UniformSample(truth.ids, batch_size=5, rng=0)
        curve = run_algorithm(algo, oracle, k=5, budget=30,
                              checkpoints=[10, 20, 30], truth=truth)
        assert curve.n_scored == 30
        assert list(curve.iterations) == [10, 20, 30]
        assert curve.stks[-1] == curve.final_stk

    def test_scanbest_reaches_optimal_in_k(self, truth):
        oracle = ScoreOracle(truth)
        algo = ScanBest(truth.ids, truth.score_of, batch_size=1)
        curve = run_algorithm(algo, oracle, k=5, budget=50,
                              checkpoints=[5, 50], truth=truth)
        assert curve.stks[0] == pytest.approx(truth.optimal_stk(5))
        assert curve.precisions[0] == 1.0

    def test_sorted_scan_charges_no_scoring(self, truth):
        oracle = ScoreOracle(truth, FixedPerCallLatency(10.0))
        algo = SortedScan(truth.ids, truth.score_of, batch_size=10)
        curve = run_algorithm(algo, oracle, k=5, budget=50,
                              checkpoints=[50], truth=truth)
        # 10 s/call latency never charged.
        assert curve.times[-1] < 1.0

    def test_setup_cost_added(self, truth):
        oracle = ScoreOracle(truth)
        algo = UniformSample(truth.ids, rng=0)
        curve = run_algorithm(algo, oracle, k=5, budget=10,
                              checkpoints=[10], setup_cost=99.0)
        assert curve.times[0] >= 99.0
        assert curve.setup_cost == 99.0

    def test_final_point_recorded_when_exhausted(self, truth):
        oracle = ScoreOracle(truth)
        algo = UniformSample(truth.ids, batch_size=7, rng=0)
        curve = run_algorithm(algo, oracle, k=5, budget=10**6,
                              checkpoints=[10**6])
        assert curve.iterations[-1] == 50  # dataset size


class TestAverageCurves:
    def make_curve(self, name, stks):
        n = len(stks)
        return RunCurve(
            name=name,
            iterations=np.arange(1, n + 1),
            times=np.linspace(0.1, 1.0, n),
            stks=np.asarray(stks, dtype=float),
            precisions=np.zeros(n),
            overheads=np.zeros(n),
            final_stk=float(stks[-1]),
            n_scored=n,
        )

    def test_pointwise_mean(self):
        avg = average_curves([
            self.make_curve("A", [0.0, 2.0]),
            self.make_curve("A", [2.0, 4.0]),
        ])
        assert np.allclose(avg.stks, [1.0, 3.0])
        assert avg.final_stk == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            average_curves([])

    def test_mismatched_grids_rejected(self):
        a = self.make_curve("A", [1.0, 2.0])
        b = self.make_curve("A", [1.0, 2.0])
        b.iterations = np.asarray([5, 6])
        with pytest.raises(ConfigurationError):
            average_curves([a, b])


class TestCheckpointGrid:
    def test_spans_budget(self):
        grid = checkpoint_grid(1000, n_points=10)
        assert grid[0] >= 1
        assert grid[-1] == 1000

    def test_small_budget(self):
        assert checkpoint_grid(3, n_points=10) == [1, 2, 3]

    def test_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            checkpoint_grid(0)


class TestReport:
    def test_format_rows_alignment(self):
        table = format_rows(["name", "value"], [["a", 1.5], ["bb", 2.0]],
                            title="T")
        assert "T" in table
        assert "name" in table and "bb" in table

    def test_curve_table_contains_algorithms(self):
        curves = [
            TestAverageCurves().make_curve("Ours", [1.0, 5.0, 9.0]),
            TestAverageCurves().make_curve("UniformSample", [1.0, 2.0, 3.0]),
        ]
        table = format_curve_table(curves, title="Fig X")
        assert "Ours" in table and "UniformSample" in table
        assert "Fig X" in table

    def test_curve_table_normalization(self):
        curves = [TestAverageCurves().make_curve("Ours", [5.0, 10.0])]
        table = format_curve_table(curves, normalize_by=10.0)
        assert "1" in table

    def test_speedup_table(self):
        ours = TestAverageCurves().make_curve("Ours", [9.0, 9.5, 10.0])
        base = TestAverageCurves().make_curve("UniformSample",
                                              [1.0, 5.0, 10.0])
        table = format_speedup_table([ours, base], optimal_stk=10.0)
        assert "speedup@90%" in table
        assert "Ours" in table


class TestConfigs:
    def test_scale_factor_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert scale_factor() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "oops")
        assert scale_factor(0.2) == 0.2
        monkeypatch.setenv("REPRO_SCALE", "5.0")
        assert scale_factor() == 1.0  # capped

    def test_synthetic_scaling(self):
        exp = SyntheticConfig().scaled(scale=0.1)
        assert exp.n == 20 * 250
        assert exp.k == 10
        assert exp.runs >= 2

    def test_usedcars_scaling(self):
        exp = UsedCarsConfig().scaled(scale=0.1)
        assert exp.n == 10_000
        assert exp.n_clusters == 50
        assert exp.k == 25

    def test_imagenet_scaling(self):
        exp = ImageNetConfig().scaled(scale=0.1)
        assert exp.n_clusters == 25
        assert exp.batch_size >= 10
