"""Uniform anytime runner for every algorithm.

One loop drives any :class:`~repro.baselines.base.SamplingAlgorithm`:
``next_batch -> score -> observe``, while the runner maintains its *own*
top-k buffer of everything scored (so quality metrics are computed
identically for every algorithm), charges scoring latency to a virtual
clock, and measures real per-iteration algorithm overhead.

Scores come from a :class:`ScoreOracle` — the precomputed ground truth —
rather than re-invoking the model for every algorithm and seed: scorers are
deterministic, so the replayed scores are bit-identical while experiments
stay laptop-scale.  Latency is still charged from the *real* scorer's
latency model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.base import SamplingAlgorithm
from repro.core.stk import TopKBuffer
from repro.errors import ConfigurationError, ExhaustedError
from repro.experiments.ground_truth import GroundTruth
from repro.experiments.metrics import precision_at_k
from repro.scoring.base import LatencyModel, ZeroLatency


class ScoreOracle:
    """Replays precomputed true scores by element ID."""

    def __init__(self, truth: GroundTruth,
                 latency: LatencyModel | None = None) -> None:
        self.truth = truth
        self.latency = latency or ZeroLatency()

    def scores_for(self, ids: Sequence[str]) -> np.ndarray:
        """True scores for ``ids`` (raises on unknown IDs)."""
        try:
            return np.asarray(
                [self.truth.score_of[element_id] for element_id in ids],
                dtype=float,
            )
        except KeyError as exc:
            raise ConfigurationError(f"unknown element id {exc}") from exc

    def batch_cost(self, batch_size: int) -> float:
        """Virtual scoring cost of one batch."""
        return self.latency.batch_cost(batch_size)


@dataclass
class RunCurve:
    """Anytime quality trace of one run (or a seed-average of runs).

    ``times`` are ``virtual scoring seconds + real overhead seconds``; the
    ``overheads`` series isolates the real algorithm cost for the Fig. 6b /
    Fig. 8c overhead plots.
    """

    name: str
    iterations: np.ndarray
    times: np.ndarray
    stks: np.ndarray
    precisions: np.ndarray
    overheads: np.ndarray
    final_stk: float = 0.0
    n_scored: int = 0
    setup_cost: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def overhead_per_iteration(self) -> float:
        """Mean real algorithm seconds per scored element."""
        if self.n_scored == 0:
            return 0.0
        return float(self.overheads[-1]) / self.n_scored


def run_algorithm(algorithm: SamplingAlgorithm, oracle: ScoreOracle, k: int,
                  budget: int, checkpoints: Sequence[int],
                  truth: GroundTruth | None = None,
                  setup_cost: float = 0.0) -> RunCurve:
    """Drive one algorithm for up to ``budget`` scored elements.

    Parameters
    ----------
    algorithm:
        Any pull-interface strategy (engine adapter or baseline).
    oracle:
        Score replay + latency model.
    k:
        Result cardinality for the runner-side metrics buffer.
    budget:
        Maximum number of scored elements.
    checkpoints:
        Iteration counts at which to record (time, STK, precision).
    truth:
        Ground truth for Precision@K; omit to skip precision (zeros).
    setup_cost:
        Seconds of setup latency (index build, SortedScan precompute) added
        to every reported time point, for end-to-end latency figures.
    """
    checkpoints = sorted(set(int(c) for c in checkpoints if c > 0))
    buffer: TopKBuffer[str] = TopKBuffer(k)
    virtual_time = 0.0
    overhead_time = 0.0
    n_scored = 0
    rows_iter: List[int] = []
    rows_time: List[float] = []
    rows_stk: List[float] = []
    rows_precision: List[float] = []
    rows_overhead: List[float] = []
    next_cp = 0

    def record(point: int) -> None:
        rows_iter.append(point)
        rows_time.append(virtual_time + overhead_time + setup_cost)
        rows_stk.append(buffer.stk)
        rows_overhead.append(overhead_time)
        if truth is not None:
            rows_precision.append(precision_at_k(buffer.payloads(), truth, k))
        else:
            rows_precision.append(0.0)

    while n_scored < budget and not algorithm.exhausted:
        started = time.perf_counter()
        try:
            ids = algorithm.next_batch()
        except ExhaustedError:
            break
        overhead_time += time.perf_counter() - started
        if not ids:
            break
        scores = oracle.scores_for(ids)
        if algorithm.charges_scoring:
            virtual_time += oracle.batch_cost(len(ids))
        started = time.perf_counter()
        algorithm.observe(ids, scores)
        overhead_time += time.perf_counter() - started
        for element_id, score in zip(ids, scores):
            buffer.offer(float(score), element_id)
        n_scored += len(ids)
        while next_cp < len(checkpoints) and n_scored >= checkpoints[next_cp]:
            record(checkpoints[next_cp])
            next_cp += 1
    # Always record the final state so curves end at the true stopping point.
    if not rows_iter or rows_iter[-1] != n_scored:
        record(n_scored)
    return RunCurve(
        name=algorithm.name,
        iterations=np.asarray(rows_iter, dtype=int),
        times=np.asarray(rows_time, dtype=float),
        stks=np.asarray(rows_stk, dtype=float),
        precisions=np.asarray(rows_precision, dtype=float),
        overheads=np.asarray(rows_overhead, dtype=float),
        final_stk=buffer.stk,
        n_scored=n_scored,
        setup_cost=setup_cost,
    )


def average_curves(curves: Sequence[RunCurve]) -> RunCurve:
    """Average several runs of the same algorithm over matching checkpoints.

    Curves are aligned on the longest common prefix of checkpoint labels —
    batched runs can overshoot the budget by different amounts, so the final
    auto-recorded point may differ per seed and is dropped from the average
    (``final_stk``/``n_scored`` still average the true final states).  The
    paper averages 10-25 runs the same way.
    """
    if not curves:
        raise ConfigurationError("cannot average zero curves")
    min_len = min(len(curve.iterations) for curve in curves)
    while min_len > 0:
        reference = curves[0].iterations[:min_len]
        if all(np.array_equal(c.iterations[:min_len], reference)
               for c in curves):
            break
        min_len -= 1
    if min_len == 0:
        raise ConfigurationError(
            "curves share no common checkpoint prefix to average over"
        )
    iters = curves[0].iterations[:min_len]
    return RunCurve(
        name=curves[0].name,
        iterations=iters.copy(),
        times=np.mean([c.times[:min_len] for c in curves], axis=0),
        stks=np.mean([c.stks[:min_len] for c in curves], axis=0),
        precisions=np.mean([c.precisions[:min_len] for c in curves], axis=0),
        overheads=np.mean([c.overheads[:min_len] for c in curves], axis=0),
        final_stk=float(np.mean([c.final_stk for c in curves])),
        n_scored=int(np.mean([c.n_scored for c in curves])),
        setup_cost=float(np.mean([c.setup_cost for c in curves])),
    )


def checkpoint_grid(budget: int, n_points: int = 60) -> List[int]:
    """Evenly spaced checkpoint iteration counts across a budget."""
    if budget <= 0:
        raise ConfigurationError(f"budget must be positive, got {budget!r}")
    n_points = max(2, min(n_points, budget))
    return sorted(set(np.linspace(1, budget, n_points).astype(int).tolist()))
