"""Uniform pull interface for every query-execution algorithm.

The experiment runner drives each algorithm through the same loop:
``next_batch() -> fetch -> score -> observe(ids, scores)``, charging
scoring latency to a virtual clock and measuring algorithm overhead for
real.  Both the paper's baselines and the engine speak this protocol.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.errors import ExhaustedError


class SamplingAlgorithm(ABC):
    """One approximate top-k execution strategy."""

    #: Display name used in reports.
    name: str = "algorithm"

    #: False for algorithms that skip scoring at query time (SortedScan);
    #: the runner then charges no scoring latency for their batches.
    charges_scoring: bool = True

    @abstractmethod
    def next_batch(self) -> List[str]:
        """IDs of the next elements to score (raises ExhaustedError if none)."""

    @abstractmethod
    def observe(self, ids: Sequence[str], scores: Sequence[float]) -> None:
        """Report the scores for the batch just returned by next_batch."""

    @property
    @abstractmethod
    def exhausted(self) -> bool:
        """True once the algorithm has nothing left to propose."""


class _OrderedScan(SamplingAlgorithm):
    """Sequential scan over a fixed element order (no adaptive state)."""

    def __init__(self, ordered_ids: Sequence[str], batch_size: int = 1) -> None:
        self._queue = list(ordered_ids)
        self._cursor = 0
        self.batch_size = max(1, int(batch_size))

    def next_batch(self) -> List[str]:
        if self._cursor >= len(self._queue):
            raise ExhaustedError(f"{self.name} exhausted")
        batch = self._queue[self._cursor : self._cursor + self.batch_size]
        self._cursor += len(batch)
        return batch

    def observe(self, ids: Sequence[str], scores: Sequence[float]) -> None:
        return None

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._queue)


class EngineAlgorithm(SamplingAlgorithm):
    """Adapter presenting :class:`~repro.core.engine.TopKEngine` as a baseline.

    The engine already exposes ``next_batch`` / ``observe``; this wrapper
    only adds the common ``name`` / ``exhausted`` surface and keeps the
    engine's scoring-latency hint in sync with the harness's scorer.
    """

    def __init__(self, engine, name: str = "Ours",
                 scoring_latency: float | None = None) -> None:
        self.engine = engine
        self.name = name
        if scoring_latency is not None:
            engine.scoring_latency_hint = float(scoring_latency)

    def next_batch(self) -> List[str]:
        return self.engine.next_batch()

    def observe(self, ids: Sequence[str], scores: Sequence[float]) -> None:
        self.engine.observe(ids, scores)

    @property
    def exhausted(self) -> bool:
        return self.engine.exhausted
