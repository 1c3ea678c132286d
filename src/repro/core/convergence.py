"""Confidence-bounded convergence for anytime top-k execution.

The streaming and sharded coordinators stop when the budget runs out.
Opaque scores admit no distribution-free guarantee that an earlier stop
is safe, but the shards already maintain exactly the state needed for a
*model-based* certificate: every shard's root score sketch
(:mod:`repro.core.histogram` / :mod:`repro.core.sketches`) estimates the
score distribution of its still-active region, and the coordinator knows
the global k-th score ``(S)_(k)`` and how much budget remains.

This module turns that state into an explicit displacement probability,
in the spirit of progressive/anytime query processing (report the
answer *with* its uncertainty):

* :class:`TailSummary` — a light, picklable snapshot of one shard's
  unscored mass: how many elements are undrawn, the sketch's survival
  curve ``tau -> P(X > tau)``, and the shard's currently-held top
  scores (so the known answer rows are excluded from the tail).
* :class:`ConvergenceBound` — the coordinator-side accumulator.  At
  every merge it combines the global threshold with each shard's tail
  summary into two union bounds:

  - ``drive_bound`` — an upper estimate of the probability that the
    *remainder of the current budgeted drive* still changes the top-k.
    The remaining budget ``R`` is allocated adversarially across shards
    (most displacement-prone first, capped by each shard's undrawn
    count), and each allocated draw contributes its shard's excess tail
    mass above the threshold.  This is the quantity a ``CONFIDENCE p``
    stopping rule compares against ``1 - p``.
  - ``exhaustive_bound`` — the same union bound with the budget cap
    removed: an upper estimate of the probability that *any* unscored
    element anywhere would displace the current top-k, i.e. the distance
    to the exact full-table answer.  This is what a finished budgeted
    run reports next to its answer.

Both bounds are maintained as running minima — an earlier certificate
stays valid later, because the unscored set only shrinks and the
threshold only rises — so they are monotone non-increasing over a drive
(``drive_bound`` resets when a new drive begins with fresh budget;
``exhaustive_bound`` never resets).

Honesty note (normative statement in ``docs/streaming.md``): the tail
probabilities come from *sketches of observed scores*, so the result is
a principled estimate under the sketch model, not a distribution-free
guarantee.  Two biases act in the safe direction — the bandit samples
high-scoring clusters more than uniformly (observed tails dominate
unscored tails) and the histogram's uniform-in-bin evaluation
overestimates extreme tails — while exhausted-cluster subtraction can
act in the unsafe one.  ``tests/test_hidden_tail.py`` pins one
adversarial table (a needle cluster the heuristic stop misses); measuring
the net behaviour over many seeds and score laws is ROADMAP item 5.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Interpolation modes for :meth:`TailSummary.survival_at`.
_KINDS = ("linear", "step")

#: Honesty floor for the union bounds: finite observations can never
#: certify displacement probability *exactly* zero while an unscored
#: element could still be drawn — a sketch only summarizes what was
#: seen, and a hidden tail (``tests/test_hidden_tail.py``) sits exactly
#: in the mass it never saw.  The floor is far below any usable
#: ``CONFIDENCE`` level, so it never changes a stopping decision; it
#: only keeps a reported bound of "0.0" reserved for genuine certainty
#: (everything scored, or no budget left in the drive).
_MIN_RESIDUAL = 1e-9


@dataclass(frozen=True)
class TailSummary:
    """One shard's unscored-mass summary, shipped inside a slice outcome.

    ``support``/``survival`` describe the sketch's survival function
    ``tau -> P(X > tau)`` at its breakpoints; ``kind`` selects how to
    evaluate between breakpoints (``linear`` for histograms, whose tail
    mass is piecewise linear under the uniform-in-bin assumption;
    ``step`` for empirical sketches).  ``mass`` is diagnostic metadata —
    the observation count backing the curve — recorded so bound decisions
    can be audited for evidence strength; no bound computation reads it.
    All fields are picklable.
    """

    n_remaining: int
    support: Tuple[float, ...]
    survival: Tuple[float, ...]
    mass: float
    kind: str = "linear"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown tail kind {self.kind!r}; expected one of {_KINDS}"
            )
        if len(self.support) != len(self.survival):
            raise ConfigurationError(
                "support and survival must have equal length"
            )

    def survival_at(self, threshold: float) -> float:
        """Estimated ``P(X > threshold)`` under the sketch.

        An empty curve (sketch never observed anything) conservatively
        returns 1.0 while mass remains, 0.0 once nothing is undrawn.
        """
        if self.n_remaining <= 0:
            return 0.0
        if not self.support:
            return 1.0
        tau = float(threshold)
        if tau < self.support[0]:
            return 1.0
        if tau >= self.support[-1]:
            return float(self.survival[-1])
        hi = bisect.bisect_right(self.support, tau)
        lo = hi - 1
        if self.kind == "step":
            return float(self.survival[lo])
        x0, x1 = self.support[lo], self.support[hi]
        y0, y1 = self.survival[lo], self.survival[hi]
        if x1 <= x0:
            return float(min(y0, y1))
        frac = (tau - x0) / (x1 - x0)
        return float(y0 + frac * (y1 - y0))

    def displacement_rate(self, threshold: float) -> float:
        """Per-draw probability that a fresh draw beats ``threshold``.

        A fresh (unscored) element is treated as exchangeable with the
        shard's past draws, so this is just the sketch survival clamped
        to ``[0, 1]`` — deliberately *without* excluding the mass of the
        rows already held in buffers: those observations are evidence
        about the region's tail like any other.  The rate reaches zero
        only when the sketch genuinely shows no remaining mass above the
        threshold (exhausted clusters subtracted out, or the threshold
        passed the active region's range) — which is exactly the event
        that certifies convergence.
        """
        return min(1.0, max(0.0, self.survival_at(threshold)))


#: Mixture curves are evaluated on at most this many breakpoints; unions
#: of many leaves' bin edges beyond it are resampled onto a uniform grid.
_MAX_BREAKPOINTS = 513


def _leaf_mixture_curve(leaves) -> Optional[Tuple[Tuple[float, ...],
                                                  Tuple[float, ...]]]:
    """Undrawn-count-weighted mixture of per-leaf linear survival curves.

    ``leaves`` is ``[(n_undrawn, sketch), ...]``.  The mixture estimates
    ``P(fresh draw > tau)`` as ``sum_l w_l * P_l(X > tau)`` with weights
    proportional to each leaf's undrawn count — the per-cluster grain the
    paper's sketches already model.  Its decisive property over a single
    root curve: a leaf whose entire range sits below the threshold
    contributes *exactly* zero, with no cross-cluster bin smear, so the
    shard's tail genuinely drains as its top clusters drain.  Returns
    ``None`` when any sketch is non-linear or opaque (caller falls back
    to the root sketch).
    """
    curves = []
    total = 0
    for n_undrawn, sketch in leaves:
        if n_undrawn <= 0:
            continue
        curve = getattr(sketch, "survival_curve", None)
        if curve is None:
            return None
        support, survival, kind = curve()
        if support and kind != "linear":
            return None
        curves.append((n_undrawn, np.asarray(support, dtype=float),
                       np.asarray(survival, dtype=float)))
        total += n_undrawn
    if not curves or total <= 0:
        return None
    breakpoints = np.unique(np.concatenate(
        [support for _n, support, _s in curves if len(support)] or
        [np.zeros(1)]
    ))
    if len(breakpoints) > _MAX_BREAKPOINTS:
        breakpoints = np.linspace(breakpoints[0], breakpoints[-1],
                                  _MAX_BREAKPOINTS)
    mixture = np.zeros(len(breakpoints))
    for n_undrawn, support, survival in curves:
        weight = n_undrawn / total
        if len(support) == 0:
            # Never-sampled leaf: unknown tail, conservatively 1.
            mixture += weight
            continue
        component = np.interp(breakpoints, support, survival,
                              left=1.0, right=0.0)
        # np.interp clamps to survival[0] left of the support; restore
        # the conservative 1.0 below the sketch's lowest edge.
        component[breakpoints < support[0]] = 1.0
        mixture += weight * component
    return (tuple(float(x) for x in breakpoints),
            tuple(float(x) for x in mixture))


def tail_summary_from_engine(engine) -> TailSummary:
    """Summarize one shard engine's unscored mass for the coordinator.

    Prefers the per-leaf mixture curve (tight: no cross-cluster smear);
    falls back to the root sketch — which aggregates every observation on
    the shard minus exhausted-and-dropped clusters — for custom or
    non-linear sketch factories.  Sketches without a ``survival_curve``
    degrade to the conservative empty curve, i.e. a per-draw displacement
    rate of 1.  In scan-fallback mode the sketches (and the per-leaf
    undrawn counters) freeze, so the summary goes stale in the
    conservative direction — the bound can only be looser, never tighter,
    than the frozen evidence.
    """
    n_remaining = max(0, engine.n_total - engine.n_scored)
    root = engine.policy.root_sketch
    mass = float(getattr(root, "total_mass", 0.0))
    # Right to left: the float accumulation order of the mixture that the
    # frozen coordinator goldens' displacement bounds were computed in.
    mixture = _leaf_mixture_curve(engine.policy.live_leaves()[::-1])
    if mixture is not None:
        support, survival = mixture
        return TailSummary(n_remaining=n_remaining, support=support,
                           survival=survival, mass=mass, kind="linear")
    curve = getattr(root, "survival_curve", None)
    if curve is not None:
        support, survival, kind = curve()
    else:
        support, survival, kind = (), (), "step"
    return TailSummary(
        n_remaining=n_remaining,
        support=tuple(support),
        survival=tuple(survival),
        mass=mass,
        kind=kind,
    )


@dataclass
class ConvergenceBound:
    """Coordinator-side displacement-probability accumulator.

    One instance lives for the whole run; :meth:`update` absorbs each
    arriving shard tail, :meth:`refresh` recomputes the two union bounds
    at the current threshold and folds them into the running minima.
    ``begin_drive`` resets the drive-scoped minimum (a fresh budget can
    legitimately raise the probability that the answer still changes);
    the exhaustive minimum survives drives and snapshots.
    """

    n_shards: int
    tails: List[Optional[TailSummary]] = field(default=None)  # type: ignore[assignment]
    drive_bound: float = 1.0
    exhaustive_bound: float = 1.0

    def __post_init__(self) -> None:
        if self.n_shards <= 0:
            raise ConfigurationError(
                f"n_shards must be positive, got {self.n_shards!r}"
            )
        if self.tails is None:
            self.tails = [None] * self.n_shards

    def begin_drive(self) -> None:
        """Reset the drive-scoped certificate for a new budgeted drive."""
        self.drive_bound = 1.0

    def update(self, worker_id: int, tail: Optional[TailSummary]) -> None:
        """Absorb one shard's latest tail summary (``None`` keeps the old)."""
        if tail is not None:
            self.tails[worker_id] = tail

    def _union_bound(self, threshold: float,
                     remaining_budget: Optional[int]) -> float:
        """Adversarial-allocation union bound at ``threshold``.

        Allocates up to ``remaining_budget`` future draws across shards,
        most displacement-prone first, each capped by the shard's undrawn
        count; ``None`` removes the budget cap (exhaustive semantics).
        A shard that never reported a tail is unbounded: result 1.0.
        """
        rates: List[Tuple[float, int]] = []
        for tail in self.tails:
            if tail is None:
                return 1.0
            if tail.n_remaining <= 0:
                continue
            rates.append((tail.displacement_rate(threshold),
                          tail.n_remaining))
        rates.sort(reverse=True)
        budget = (sum(n for _rate, n in rates)
                  if remaining_budget is None else max(0, remaining_budget))
        drawable = bool(rates) and budget > 0
        total = 0.0
        for rate, n_remaining in rates:
            if budget <= 0 or total >= 1.0:
                break
            take = min(budget, n_remaining)
            total += take * rate
            budget -= take
        if total <= 0.0 and drawable:
            # Some unscored element can still be drawn: zero is more
            # certainty than finite evidence supports (see _MIN_RESIDUAL).
            return _MIN_RESIDUAL
        return min(1.0, total)

    def refresh(self, threshold: Optional[float], buffer_full: bool,
                remaining_budget: int) -> float:
        """Recompute both bounds and return the current drive bound.

        With the buffer not yet full (no threshold exists) every unscored
        element trivially enters the answer: both bounds stay at 1.0.
        """
        if buffer_full and threshold is not None:
            self.drive_bound = min(
                self.drive_bound,
                self._union_bound(threshold, remaining_budget),
            )
            self.exhaustive_bound = min(
                self.exhaustive_bound,
                self._union_bound(threshold, None),
            )
        return self.drive_bound


def check_confidence(confidence: Optional[float]) -> Optional[float]:
    """Validate a ``CONFIDENCE`` level: a float strictly inside (0, 1)."""
    if confidence is None:
        return None
    confidence = float(confidence)
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must lie strictly inside (0, 1), got {confidence!r}"
        )
    return confidence
