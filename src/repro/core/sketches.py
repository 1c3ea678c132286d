"""Alternative per-arm score sketches.

The paper models each arm with an equi-width adaptive histogram and
acknowledges that its *uniform value assumption* "does not always hold"
(Section 3.2.4) — when it fails, "Ours can fail to model the exact
distributions" (Section 5.3).  This module makes the sketch pluggable:

* :class:`ScoreSketch` — the interface every sketch implements (the
  histogram of :mod:`repro.core.histogram` is registered as a virtual
  subclass);
* :class:`ReservoirSketch` — a bounded uniform reservoir of raw scores:
  the empirical estimator of Section 3.1 generalized to continuous domains
  under fixed memory.  No shape assumption at all; subtraction is
  approximated by nearest-value removal.
* :class:`ExactEmpiricalSketch` — keeps *every* score (unbounded memory);
  its gain estimate is exactly the Eq. 3 empirical expectation, making it
  the oracle the bounded sketches are tested against.

Swap sketches via ``BanditConfig(sketch_factory=...)`` /
``EngineConfig(sketch_factory=...)``; ``benchmarks/bench_ablation_sketches``
compares them on a distribution family where the uniform value assumption
is maximally wrong.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import Iterable, List

import numpy as np

from repro.core.histogram import AdaptiveHistogram
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator


class ScoreSketch(ABC):
    """What the bandit needs from a per-arm distribution model."""

    @abstractmethod
    def add(self, value: float) -> None:
        """Record one observed score."""

    def add_many(self, values: Iterable[float]) -> None:
        """Record each score of ``values`` in order."""
        for value in values:
            self.add(value)

    def add_batch(self, values: Iterable[float]) -> None:
        """Record a batch of scores.

        Semantically equivalent to :meth:`add_many`; a sketch with a bulk
        path overrides it (the adaptive histogram sorts the batch once).
        """
        self.add_many(values)

    @abstractmethod
    def expected_marginal_gain(self, threshold: float | None) -> float:
        """Estimate ``E[max(X - threshold, 0)]`` (Eq. 2); mean if no threshold."""

    @abstractmethod
    def subtract(self, other: "ScoreSketch") -> None:
        """Remove another sketch's mass (dropped-child handling, Fig. 3c)."""

    @property
    @abstractmethod
    def total_mass(self) -> float:
        """Recorded sample mass (possibly fractional after maintenance)."""

    @property
    def is_empty(self) -> bool:
        """True iff the sketch holds no mass."""
        return self.total_mass <= 0.0

    def maybe_extend_lowest(self, threshold: float | None) -> bool:
        """Histogram-specific re-binning hook; a no-op for other sketches."""
        return False

    def tail_mass(self, threshold: float) -> float:
        """Estimated ``P(X > threshold)`` under the sketch.

        The conservative default (1.0 while any mass exists) keeps custom
        sketches sound for the convergence-bound layer
        (:mod:`repro.core.convergence`): an unknown tail can never make a
        displacement bound too small.  Built-in sketches override this
        with real estimates.
        """
        return 1.0 if self.total_mass > 0.0 else 0.0

    def survival_curve(self) -> tuple:
        """``(support, survival, kind)`` breakpoints of the tail function.

        Evaluated by :meth:`repro.core.convergence.TailSummary.survival_at`
        — ``kind`` is ``"linear"`` (interpolate between breakpoints, for
        histogram sketches) or ``"step"`` (right-continuous steps, for
        empirical sketches).  The default empty curve means "unknown",
        which the bound layer treats as survival 1 everywhere.
        """
        return (), (), "step"


# The adaptive histogram already satisfies the protocol.
ScoreSketch.register(AdaptiveHistogram)


def _empirical_tail_mass(values: List[float], threshold: float) -> float:
    """Fraction of ``values`` strictly above ``threshold`` (0 if empty)."""
    if not values:
        return 0.0
    arr = np.asarray(values, dtype=float)
    return float(np.count_nonzero(arr > threshold)) / arr.size


def _empirical_curve(values: List[float]) -> tuple:
    """Step survival curve of a raw sample: ``P(X > v)`` at each value."""
    if not values:
        return (), (), "step"
    support, counts = np.unique(np.asarray(values, dtype=float),
                                return_counts=True)
    above = (len(values) - np.cumsum(counts)) / len(values)
    return (
        tuple(float(v) for v in support),
        tuple(float(v) for v in above),
        "step",
    )


class ExactEmpiricalSketch(ScoreSketch):
    """Stores every observed score; exact empirical gain estimates.

    This is the continuous-domain version of the Section 3.1 counters
    ``N_{l,x}``: unbounded memory, zero modelling error.  Used as the test
    oracle and for small-L workloads where memory is irrelevant.
    """

    def __init__(self) -> None:
        self._values: List[float] = []  # kept sorted

    def add(self, value: float) -> None:
        if value < 0.0:
            raise ConfigurationError(f"scores must be non-negative, got {value!r}")
        bisect.insort(self._values, float(value))

    @property
    def total_mass(self) -> float:
        return float(len(self._values))

    def expected_marginal_gain(self, threshold: float | None) -> float:
        if not self._values:
            return 0.0
        values = np.asarray(self._values)
        if threshold is None:
            return float(values.mean())
        start = bisect.bisect_right(self._values, float(threshold))
        tail = values[start:]
        if not len(tail):
            return 0.0
        return float((tail - threshold).sum() / len(values))

    def subtract(self, other: "ScoreSketch") -> None:
        if isinstance(other, ExactEmpiricalSketch):
            for value in other._values:
                index = bisect.bisect_left(self._values, value)
                if index < len(self._values) and self._values[index] == value:
                    self._values.pop(index)
            return
        raise ConfigurationError(
            "ExactEmpiricalSketch can only subtract its own kind"
        )

    def quantile(self, q: float) -> float:
        """Empirical quantile (test helper)."""
        if not self._values:
            raise ConfigurationError("empty sketch has no quantiles")
        return float(np.quantile(np.asarray(self._values), q))

    def tail_mass(self, threshold: float) -> float:
        """Exact empirical ``P(X > threshold)`` over the stored scores."""
        return _empirical_tail_mass(self._values, threshold)

    def survival_curve(self) -> tuple:
        """Exact step survival curve over the stored scores."""
        return _empirical_curve(self._values)


class EquiDepthSketch(ScoreSketch):
    """Equi-depth (quantile) histogram derived lazily from a reservoir.

    The paper's equi-*width* histogram spends its bins uniformly over the
    value range; an equi-*depth* histogram spends them uniformly over the
    probability mass, which concentrates resolution wherever the data
    actually lives.  This implementation keeps a bounded reservoir and, on
    demand, summarizes it into ``n_bins`` quantile bins.  Interior bins are
    evaluated under the same uniform-in-bin assumption as the paper's
    sketch; the unbounded *top* bin — where that assumption is worst for
    heavy-tailed scores — is evaluated exactly from the reservoir's tail
    values.

    Memory: O(capacity); update: O(1) amortized (re-summarized lazily).
    Subtraction delegates to the underlying reservoir semantics.
    """

    def __init__(self, n_bins: int = 8, capacity: int = 256,
                 rng: SeedLike = None) -> None:
        if n_bins < 2:
            raise ConfigurationError(f"n_bins must be >= 2, got {n_bins!r}")
        self.n_bins = int(n_bins)
        self._reservoir = ReservoirSketch(capacity=capacity, rng=rng)
        self._edges: np.ndarray | None = None
        self._dirty = True

    def add(self, value: float) -> None:
        self._reservoir.add(value)
        self._dirty = True

    @property
    def total_mass(self) -> float:
        return self._reservoir.total_mass

    def _summarize(self) -> np.ndarray | None:
        if self._dirty:
            values = np.asarray(self._reservoir.values())
            if len(values) == 0:
                self._edges = None
            else:
                quantiles = np.linspace(0.0, 1.0, self.n_bins + 1)
                self._edges = np.quantile(values, quantiles)
            self._dirty = False
        return self._edges

    def expected_marginal_gain(self, threshold: float | None) -> float:
        edges = self._summarize()
        if edges is None or self.total_mass <= 0:
            return 0.0
        reservoir = np.asarray(self._reservoir.values())
        n_sampled = len(reservoir)
        if n_sampled == 0:
            return 0.0
        # Split: interior quantile bins (uniform-in-bin), exact tail.
        tail_border = float(edges[-2])
        tail_values = reservoir[reservoir >= tail_border]
        tail_frac = len(tail_values) / n_sampled
        interior_prob = (1.0 - tail_frac) / max(self.n_bins - 1, 1)
        lows, highs = edges[:-2], edges[1:-1]
        if threshold is None:
            total = float(interior_prob * (0.5 * (lows + highs)).sum())
        else:
            tau = float(threshold)
            widths = np.where(highs - lows > 0.0, highs - lows, 1.0)
            gain = np.zeros(len(lows))
            below = tau <= lows
            gain[below] = interior_prob * (
                0.5 * (lows[below] + highs[below]) - tau
            )
            inside = (~below) & (tau < highs)
            gain[inside] = (
                interior_prob * (highs[inside] - tau) ** 2
                / (2.0 * widths[inside])
            )
            total = float(gain.sum())
        if len(tail_values):
            if threshold is None:
                total += tail_frac * float(tail_values.mean())
            else:
                total += (
                    float(np.maximum(tail_values - tau, 0.0).sum()) / n_sampled
                )
        return total

    def subtract(self, other: "ScoreSketch") -> None:
        inner = other._reservoir if isinstance(other, EquiDepthSketch) else other
        self._reservoir.subtract(inner)
        self._dirty = True

    def edges(self) -> np.ndarray | None:
        """Current quantile bin borders (None while empty; test helper)."""
        return self._summarize()

    def tail_mass(self, threshold: float) -> float:
        """Empirical tail of the underlying reservoir sample."""
        return self._reservoir.tail_mass(threshold)

    def survival_curve(self) -> tuple:
        """Step survival curve of the underlying reservoir sample."""
        return self._reservoir.survival_curve()


class ReservoirSketch(ScoreSketch):
    """Bounded uniform reservoir sample of scores with mass accounting.

    Maintains a classic reservoir of up to ``capacity`` raw scores; every
    estimate is the plain empirical average over the reservoir, scaled by
    nothing — the reservoir is an unbiased sample of the arm's stream, so
    the Eq. 2 estimator needs no shape assumption.  ``total_mass`` tracks
    the *true* number of samples seen (minus subtractions), which the
    hierarchy uses for drop bookkeeping.

    Subtraction is necessarily approximate under bounded memory: for each
    value in the dropped child's reservoir (rescaled to the child's mass
    share), the nearest value in this reservoir is removed.
    """

    def __init__(self, capacity: int = 256, rng: SeedLike = None) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity!r}")
        self.capacity = int(capacity)
        self._rng = as_generator(rng)
        self._values: List[float] = []
        self._seen = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        if value < 0.0:
            raise ConfigurationError(f"scores must be non-negative, got {value!r}")
        self._seen += 1.0
        if len(self._values) < self.capacity:
            self._values.append(value)
            return
        # Reservoir replacement with probability capacity / seen.
        slot = int(self._rng.integers(int(self._seen)))
        if slot < self.capacity:
            self._values[slot] = value

    @property
    def total_mass(self) -> float:
        return max(self._seen, 0.0)

    def expected_marginal_gain(self, threshold: float | None) -> float:
        if not self._values or self._seen <= 0:
            return 0.0
        values = np.asarray(self._values)
        if threshold is None:
            return float(values.mean())
        return float(np.maximum(values - threshold, 0.0).mean())

    def subtract(self, other: "ScoreSketch") -> None:
        other_mass = other.total_mass
        if other_mass <= 0 or self._seen <= 0:
            return
        removed_mass = min(other_mass, self._seen)
        if isinstance(other, ReservoirSketch) and other._values and self._values:
            # Remove nearest matches so the remaining reservoir approximates
            # the conditional distribution of this arm minus the child.
            share = removed_mass / self._seen
            n_remove = min(len(self._values) - 0,
                           max(1, int(round(share * len(self._values)))))
            child_values = list(other._values)
            for _ in range(n_remove):
                if not self._values or not child_values:
                    break
                target = child_values[
                    int(self._rng.integers(len(child_values)))
                ]
                nearest = min(
                    range(len(self._values)),
                    key=lambda i: abs(self._values[i] - target),
                )
                self._values.pop(nearest)
        self._seen -= removed_mass

    def values(self) -> List[float]:
        """Snapshot of the current reservoir (test helper)."""
        return list(self._values)

    def tail_mass(self, threshold: float) -> float:
        """Empirical ``P(X > threshold)`` over the (unbiased) reservoir."""
        return _empirical_tail_mass(self._values, threshold)

    def survival_curve(self) -> tuple:
        """Step survival curve over the reservoir sample."""
        return _empirical_curve(self._values)
