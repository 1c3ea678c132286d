"""The Sum-of-Top-k (STK) objective — Section 2.1 of the paper.

STK is the intrinsic solution-quality measure for opaque top-k queries:
``STK(S)`` is the sum of the (up to) ``k`` largest elements of the multiset
``S`` (Equation 1).  Theorem 4.1 proves STK is monotone and DR-submodular
over the multiset lattice; the predicates at the bottom of this module let
the property-based test suite check both properties directly.

Equation 1 is summed one way: :func:`math.fsum`, Shewchuk's exact sum
rounded once, by :func:`stk` over the k largest values and by
:attr:`TopKBuffer.stk` over the held scores (the k largest offered).
Being exact, it does not depend on the order the values are listed or
arrived in, so two runs that hold the same top-k report the same float,
whichever shard's results a coordinator merged first.  Every other STK
value — a checkpoint's, a shard's, the ground truth's optimum — is one of
these two.

:class:`TopKBuffer` is Algorithm 1's "cardinality-constrained min-max heap"
of the k best scores.  It is a plain :mod:`heapq` min-heap because the
algorithm only ever reads and evicts the minimum, the k-th score; the
maximum side of a min-max heap would go unused.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Generic, Iterable, List, Sequence, Tuple, TypeVar

from repro.errors import ConfigurationError


def _check_k(k: int) -> int:
    if k <= 0:
        raise ConfigurationError(f"k must be a positive integer, got {k!r}")
    return k


def stk(values: Iterable[float], k: int) -> float:
    """Return the sum of the ``k`` largest elements of ``values`` (Eq. 1).

    If ``values`` has fewer than ``k`` elements the sum of all of them is
    returned; ``STK`` of an empty collection is 0.  The sum is exact
    (:func:`math.fsum`), so any order of the same values gives the same
    float.

    >>> stk([5, 1, 3, 2], k=2)
    8.0
    >>> stk([], k=3)
    0.0
    """
    _check_k(k)
    return math.fsum(heapq.nlargest(k, values))


def kth_largest(values: Sequence[float], k: int) -> float | None:
    """Return ``(S)_(k)``, the k-th largest element, or ``None`` if |S| < k.

    This is the "kick-out" threshold of Section 2.2: a new score enters the
    running solution iff it exceeds this value.
    """
    _check_k(k)
    if len(values) < k:
        return None
    return float(heapq.nlargest(k, values)[-1])


T = TypeVar("T")


class TopKBuffer(Generic[T]):
    """The paper's cardinality-constrained priority queue of top-k scores.

    Keeps the ``k`` highest-scoring (score, payload) pairs seen so far.
    The bandit reads the kick-out threshold ``(S)_(k)`` in O(1); ``stk``
    is :func:`stk` of the held scores, so it is the same float whatever
    order the offers came in.  It is summed on the first read after an
    admission (O(k)) and kept, keyed by the admission counter, until the
    next one: an engine reads it at every checkpoint, and most checkpoints
    follow no admission.

    Entries are ``(score, seq, payload)`` tuples on a min-heap, ``seq``
    being the admission counter: equal scores are evicted and listed in
    admission order, and payloads are never compared.
    """

    def __init__(self, k: int) -> None:
        self.k = _check_k(k)
        self._heap: List[Tuple[float, int, Any]] = []
        self._seq = 0
        self._summed: Tuple[int, float] = (0, 0.0)  # (_seq, stk) when read

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def stk(self) -> float:
        """Sum-of-Top-k of everything offered so far: :func:`stk`'s exact
        sum, taken over the held scores, which are the k largest offered."""
        seq, total = self._summed
        if seq != self._seq:
            seq = self._seq
            total = math.fsum([entry[0] for entry in self._heap])
            self._summed = (seq, total)
        return total

    @property
    def threshold(self) -> float | None:
        """``(S)_(k)`` — the score a newcomer must beat — or None if |S| < k."""
        if len(self._heap) < self.k:
            return None
        return self._heap[0][0]

    def offer(self, score: float, payload: T = None) -> float:
        """Offer a candidate; return the marginal STK gain it produced.

        A candidate either fills spare capacity (gain = score), evicts the
        current minimum (gain = score - threshold), or is rejected (gain 0).
        """
        score = float(score)
        heap = self._heap
        if len(heap) < self.k:
            heapq.heappush(heap, (score, self._seq, payload))
            self._seq += 1
            return score
        kth = heap[0][0]
        if score > kth:
            heapq.heapreplace(heap, (score, self._seq, payload))
            self._seq += 1
            return score - kth
        return 0.0

    def offer_batch(self, scores: Iterable[float],
                    payloads: Iterable[T]) -> float:
        """:meth:`offer` each ``(score, payload)`` pair in order.

        Returns the summed marginal gain.  The same admissions, evictions
        and floats as one :meth:`offer` per pair, without a method call per
        score: a rejected score — most of a batch once the buffer is full —
        costs one compare against the k-th score.  Takes Python floats.
        """
        heap, k, seq = self._heap, self.k, self._seq
        total = 0.0
        for score, payload in zip(scores, payloads):
            if len(heap) < k:
                heapq.heappush(heap, (score, seq, payload))
                seq += 1
                total += score
            elif score > heap[0][0]:
                gain = score - heap[0][0]
                heapq.heapreplace(heap, (score, seq, payload))
                seq += 1
                total += gain
        self._seq = seq
        return total

    def items(self) -> List[Tuple[float, T]]:
        """Return the (score, payload) pairs, highest score first and equal
        scores in admission order."""
        return [(score, payload) for score, _seq, payload in
                sorted(self._heap, key=lambda entry: (-entry[0], entry[1]))]

    def scores(self) -> List[float]:
        """Return the held scores in descending order."""
        return [score for score, _payload in self.items()]

    def payloads(self) -> List[T]:
        """Return the held payloads in descending score order."""
        return [payload for _score, payload in self.items()]


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
