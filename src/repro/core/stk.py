"""The Sum-of-Top-k (STK) objective — Section 2.1 of the paper.

STK is the intrinsic solution-quality measure for opaque top-k queries:
``STK(S)`` is the sum of the (up to) ``k`` largest elements of the multiset
``S`` (Equation 1).  Theorem 4.1 proves STK is monotone and DR-submodular
over the multiset lattice; the predicates at the bottom of this module let
the property-based test suite check both properties directly.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError


def _check_k(k: int) -> int:
    if k <= 0:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    return k


def stk(values: Iterable[float], k: int) -> float:
    """Return the sum of the ``k`` largest elements of ``values`` (Eq. 1).

    If ``values`` has fewer than ``k`` elements the sum of all of them is
    returned; ``STK`` of an empty collection is 0.

    >>> stk([5, 1, 3, 2], k=2)
    8.0
    >>> stk([], k=3)
    0.0
    """
    _check_k(k)
    top = heapq.nlargest(k, values)
    return float(sum(top))


def kth_largest(values: Sequence[float], k: int) -> float | None:
    """Return ``(S)_(k)``, the k-th largest element, or ``None`` if |S| < k.

    This is the "kick-out" threshold of Section 2.2: a new score enters the
    running solution iff it exceeds this value.
    """
    _check_k(k)
    if len(values) < k:
        return None
    return float(heapq.nlargest(k, values)[-1])


def marginal_gain(x: float, threshold: float | None) -> float:
    """Marginal STK gain of adding score ``x`` given the current threshold.

    ``threshold`` is ``(S)_(k)`` of the running solution, or ``None`` while
    the solution still has fewer than ``k`` elements (in which case every
    non-negative score is pure gain).  Implements Equation 6:

    ``STK(S + x) - STK(S) = max(x - (S)_(k), 0)`` once |S| >= k.
    """
    if threshold is None:
        return float(x)
    return float(max(x - threshold, 0.0))


def stk_after_insert(current_stk: float, x: float, threshold: float | None) -> float:
    """Return ``STK(S + {x})`` given ``STK(S)`` and the current threshold."""
    return current_stk + marginal_gain(x, threshold)


def stk_curve(values: Sequence[float], k: int) -> np.ndarray:
    """Cumulative STK after each prefix of ``values`` is inserted in order.

    ``stk_curve(v, k)[t]`` equals ``stk(v[: t + 1], k)``; used to build the
    ScanBest / ScanWorst / UniformSample quality-versus-iterations curves in
    O(n log k) instead of O(n^2 log n).

    >>> stk_curve([1.0, 5.0, 3.0], k=2).tolist()
    [1.0, 6.0, 8.0]
    """
    _check_k(k)
    out = np.empty(len(values), dtype=float)
    heap: list[float] = []  # min-heap of the current top-k
    total = 0.0
    for i, value in enumerate(values):
        value = float(value)
        if len(heap) < k:
            heapq.heappush(heap, value)
            total += value
        elif value > heap[0]:
            total += value - heap[0]
            heapq.heapreplace(heap, value)
        out[i] = total
    return out


# ---------------------------------------------------------------------------
# Lattice predicates used by the Theorem 4.1 property tests.
# ---------------------------------------------------------------------------

def multiset_leq(smaller: Sequence[float], larger: Sequence[float]) -> bool:
    """Return True iff ``smaller <= larger`` in the multiset lattice order.

    ``X <= Y`` iff every element's multiplicity in X is at most its
    multiplicity in Y (Section 4.1 preliminaries).
    """
    remaining = list(larger)
    for item in smaller:
        try:
            remaining.remove(item)
        except ValueError:
            return False
    return True


def _tolerance(*collections: Sequence[float]) -> float:
    """Float-comparison slack scaled to the magnitudes involved.

    Sums of large scores accumulate rounding error proportional to their
    magnitude, so the lattice predicates compare with relative tolerance.
    """
    magnitude = 1.0
    for values in collections:
        for value in values:
            magnitude = max(magnitude, abs(float(value)))
    return 1e-9 * magnitude


def is_monotone_step(subset: Sequence[float], superset: Sequence[float], k: int) -> bool:
    """Check ``STK(subset) <= STK(superset)`` for a comparable pair (Eq. 4)."""
    return stk(subset, k) <= stk(superset, k) + _tolerance(subset, superset)


def is_dr_submodular_triple(
    subset: Sequence[float], superset: Sequence[float], x: float, k: int
) -> bool:
    """Check the diminishing-returns inequality of Equation 5 for one triple.

    For ``subset <= superset`` in the multiset lattice, adding ``x`` to the
    smaller multiset must gain at least as much STK as adding it to the
    larger one.
    """
    gain_small = stk(list(subset) + [x], k) - stk(subset, k)
    gain_large = stk(list(superset) + [x], k) - stk(superset, k)
    return gain_small >= gain_large - _tolerance(subset, superset, [x])
