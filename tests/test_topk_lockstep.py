"""The heapq top-k buffer against the min-max heap it replaced.

Algorithm 1 keeps the k best scores in a "cardinality-constrained min-max
heap"; :class:`~repro.core.stk.TopKBuffer` keeps them on a :mod:`heapq`
min-heap of ``(score, seq, payload)`` tuples, because only the minimum
side was ever read.  The min-max heap and its buffer are kept below
verbatim as they stood just before the swap (commit d4447c2, whose
``items()`` lists equal scores in admission order), the buffer renamed
``ReferenceTopKBuffer``.  Both buffers take the same offers, one at a time
through ``offer`` and in batches of 1-64 through ``offer_batch``, at k from
1 to 64 with many ties; after every offer they must hold the same entries
(score, admission number, payload), read the same threshold, list the same
``items()`` and return the same gain.  Floats are compared as
``float.hex``, so ``-0.0`` is told apart from ``0.0``.

STK is the one quantity not compared with the reference's own: that
running sum of gains rounds differently in different admission orders,
while ``TopKBuffer.stk`` is Equation 1's exact sum of the held scores.
The buffer's STK must equal :func:`math.fsum` of the reference's held
scores, bit for bit.
"""

from __future__ import annotations

import math
from typing import (Any, Generic, Iterable, Iterator, List, Optional, Tuple,
                    TypeVar)

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stk import TopKBuffer
from repro.errors import ConfigurationError


class EmptyStructureError(Exception):
    """Stands in for the error class only the min-max heap raised."""


# -- the min-max heap and its buffer at d4447c2, verbatim ----------------------


T = TypeVar("T")

# Heap entries are (score, sequence_number, payload); comparisons only ever
# touch the (score, sequence_number) prefix so payloads need not be ordered.
_Entry = Tuple[float, int, Any]


def _is_min_level(index: int) -> bool:
    """True iff 0-based ``index`` sits on a min level (even depth) of the heap."""
    return (index + 1).bit_length() % 2 == 1


class MinMaxHeap(Generic[T]):
    """A min-max heap on (score, payload) pairs.

    Min levels hold local minima of their subtrees and max levels local
    maxima, giving double-ended priority-queue behaviour from one array.
    Ties between equal scores are broken by insertion order (FIFO for the
    minimum side), which keeps the structure deterministic under seeding.
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0

    # -- basic container protocol ------------------------------------------

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[Tuple[float, T]]:
        """Iterate over (score, payload) pairs in arbitrary (heap) order."""
        for score, _seq, payload in self._heap:
            yield score, payload

    # -- public operations --------------------------------------------------

    def push(self, score: float, payload: T = None) -> None:
        """Insert ``(score, payload)`` in O(log n)."""
        self._heap.append((float(score), self._seq, payload))
        self._seq += 1
        self._bubble_up(len(self._heap) - 1)

    def peek_min(self) -> Tuple[float, T]:
        """Return (but do not remove) the minimum entry."""
        if not self._heap:
            raise EmptyStructureError("peek_min on an empty MinMaxHeap")
        score, _seq, payload = self._heap[0]
        return score, payload

    def peek_max(self) -> Tuple[float, T]:
        """Return (but do not remove) the maximum entry."""
        index = self._max_index()
        score, _seq, payload = self._heap[index]
        return score, payload

    def pop_min(self) -> Tuple[float, T]:
        """Remove and return the minimum entry in O(log n)."""
        if not self._heap:
            raise EmptyStructureError("pop_min on an empty MinMaxHeap")
        return self._pop_at(0)

    def pop_max(self) -> Tuple[float, T]:
        """Remove and return the maximum entry in O(log n)."""
        return self._pop_at(self._max_index())

    # -- internals -----------------------------------------------------------

    def _max_index(self) -> int:
        if not self._heap:
            raise EmptyStructureError("peek_max on an empty MinMaxHeap")
        if len(self._heap) == 1:
            return 0
        if len(self._heap) == 2:
            return 1
        return 1 if self._heap[1][:2] > self._heap[2][:2] else 2

    def _pop_at(self, index: int) -> Tuple[float, T]:
        heap = self._heap
        entry = heap[index]
        last = heap.pop()
        if index < len(heap):
            heap[index] = last
            self._trickle_down(index)
        return entry[0], entry[2]

    def _bubble_up(self, index: int) -> None:
        if index == 0:
            return
        heap = self._heap
        parent = (index - 1) // 2
        if _is_min_level(index):
            if heap[index][:2] > heap[parent][:2]:
                heap[index], heap[parent] = heap[parent], heap[index]
                self._bubble_up_grand(parent, is_min=False)
            else:
                self._bubble_up_grand(index, is_min=True)
        else:
            if heap[index][:2] < heap[parent][:2]:
                heap[index], heap[parent] = heap[parent], heap[index]
                self._bubble_up_grand(parent, is_min=True)
            else:
                self._bubble_up_grand(index, is_min=False)

    def _bubble_up_grand(self, index: int, *, is_min: bool) -> None:
        heap = self._heap
        while index >= 3:
            grandparent = ((index - 1) // 2 - 1) // 2
            if is_min:
                if heap[index][:2] < heap[grandparent][:2]:
                    heap[index], heap[grandparent] = heap[grandparent], heap[index]
                    index = grandparent
                else:
                    break
            else:
                if heap[index][:2] > heap[grandparent][:2]:
                    heap[index], heap[grandparent] = heap[grandparent], heap[index]
                    index = grandparent
                else:
                    break

    def _descendants(self, index: int) -> Iterator[Tuple[int, bool]]:
        """Yield (position, is_grandchild) for children and grandchildren."""
        size = len(self._heap)
        for child in (2 * index + 1, 2 * index + 2):
            if child < size:
                yield child, False
                for grand in (2 * child + 1, 2 * child + 2):
                    if grand < size:
                        yield grand, True

    def _trickle_down(self, index: int) -> None:
        is_min = _is_min_level(index)
        heap = self._heap
        while True:
            best: Optional[int] = None
            best_is_grand = False
            for pos, is_grand in self._descendants(index):
                if best is None:
                    better = True
                elif is_min:
                    better = heap[pos][:2] < heap[best][:2]
                else:
                    better = heap[pos][:2] > heap[best][:2]
                if better:
                    best, best_is_grand = pos, is_grand
            if best is None:
                return
            if is_min:
                out_of_order = heap[best][:2] < heap[index][:2]
            else:
                out_of_order = heap[best][:2] > heap[index][:2]
            if not out_of_order:
                return
            heap[index], heap[best] = heap[best], heap[index]
            if not best_is_grand:
                return
            parent = (best - 1) // 2
            if is_min:
                if heap[best][:2] > heap[parent][:2]:
                    heap[best], heap[parent] = heap[parent], heap[best]
            else:
                if heap[best][:2] < heap[parent][:2]:
                    heap[best], heap[parent] = heap[parent], heap[best]
            index = best

    # -- debugging aid -------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any min-max heap ordering is violated.

        Exposed for the test suite; O(n log n).
        """
        heap = self._heap
        for index in range(len(heap)):
            for pos, _ in self._descendants(index):
                if _is_min_level(index):
                    assert heap[index][:2] <= heap[pos][:2], (index, pos)
                else:
                    assert heap[index][:2] >= heap[pos][:2], (index, pos)


class ReferenceTopKBuffer(Generic[T]):
    """The paper's cardinality-constrained priority queue of top-k scores.

    Keeps the ``k`` highest-scoring (score, payload) pairs seen so far and
    maintains the running ``STK`` incrementally, so the bandit reads both the
    kick-out threshold ``(S)_(k)`` and the objective value in O(1).
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ConfigurationError(f"k must be a positive integer, got {k!r}")
        self.k = k
        self._heap: MinMaxHeap[T] = MinMaxHeap()
        self._stk = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def is_full(self) -> bool:
        """True once the buffer holds exactly ``k`` entries."""
        return len(self._heap) >= self.k

    @property
    def stk(self) -> float:
        """Current Sum-of-Top-k of everything offered so far."""
        return self._stk

    @property
    def threshold(self) -> float | None:
        """``(S)_(k)`` — the score a newcomer must beat — or None if |S| < k.

        Read off the heap's list, as :meth:`offer_batch` reads it: the
        engine asks for it once per observation and once per select.
        """
        entries = self._heap._heap
        if len(entries) < self.k:
            return None
        return entries[0][0]

    def offer(self, score: float, payload: T = None) -> float:
        """Offer a candidate; return the marginal STK gain it produced.

        A candidate either fills spare capacity (gain = score), evicts the
        current minimum (gain = score - threshold), or is rejected (gain 0).
        """
        score = float(score)
        if len(self._heap) < self.k:
            self._heap.push(score, payload)
            self._stk += score
            return score
        current_min = self._heap.peek_min()[0]
        if score > current_min:
            self._heap.pop_min()
            self._heap.push(score, payload)
            gain = score - current_min
            self._stk += gain
            return gain
        return 0.0

    def offer_batch(self, scores: Iterable[float],
                    payloads: Iterable[T]) -> float:
        """:meth:`offer` each ``(score, payload)`` pair in order.

        Returns the summed marginal gain.  The same pushes, evictions and
        floats as one :meth:`offer` per pair, but a rejected score — most
        of a batch once the buffer is full — costs one compare against the
        k-th score read off the heap's list, not two method calls.  Takes
        Python floats.
        """
        heap, k = self._heap, self.k
        entries = heap._heap
        stk = self._stk
        total = 0.0
        for score, payload in zip(scores, payloads):
            if len(entries) < k:
                heap.push(score, payload)
                stk += score
                total += score
            elif score > entries[0][0]:
                gain = score - entries[0][0]
                heap.pop_min()
                heap.push(score, payload)
                stk += gain
                total += gain
        self._stk = stk
        return total

    def items(self) -> List[Tuple[float, T]]:
        """Return the (score, payload) pairs in descending score order.

        Equal scores are listed in admission order, whatever the heap's
        layout.
        """
        return [(score, payload) for score, _seq, payload in
                sorted(self._heap._heap, key=lambda e: (-e[0], e[1]))]

    def scores(self) -> List[float]:
        """Return the held scores in descending order."""
        return [score for score, _payload in self.items()]

    def payloads(self) -> List[T]:
        """Return the held payloads in descending score order."""
        return [payload for _score, payload in self.items()]


# -- the lockstep property ------------------------------------------------------


def hexes(value: Optional[float]) -> Optional[str]:
    return None if value is None else float(value).hex()


def held(entries) -> List[Tuple[str, int, Any]]:
    """The held entries with exact scores, in admission order."""
    return sorted(((hexes(score), seq, payload)
                   for score, seq, payload in entries),
                  key=lambda entry: entry[1])


def state(buffer: TopKBuffer) -> tuple:
    return (held(buffer._heap), buffer._seq, hexes(buffer.threshold),
            [(hexes(score), payload) for score, payload in buffer.items()],
            hexes(buffer.stk))


def reference_state(buffer: ReferenceTopKBuffer) -> tuple:
    return (held(buffer._heap._heap), buffer._heap._seq,
            hexes(buffer.threshold),
            [(hexes(score), payload) for score, payload in buffer.items()],
            hexes(math.fsum(score for score, _seq, _payload
                            in buffer._heap._heap)))


#: Mostly ties (``-0.0`` equal to ``0.0``), some arbitrary floats.
tie_scores = st.one_of(st.sampled_from((0.0, -0.0, 1.0, 2.0, 2.5)),
                       st.floats(0.0, 100.0))

#: ``offer`` converts with ``float()``; ``offer_batch`` takes floats.
scalar_offer = st.one_of(tie_scores, st.integers(0, 3))
batch_offer = st.lists(tie_scores, min_size=1, max_size=64)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64),
       st.lists(st.one_of(scalar_offer, batch_offer), min_size=1,
                max_size=16))
def test_buffer_matches_the_min_max_heap_in_lockstep(k, offers):
    new, old = TopKBuffer(k), ReferenceTopKBuffer(k)
    offered = 0
    for offer in offers:
        if isinstance(offer, list):
            payloads = [f"e{offered + i}" for i in range(len(offer))]
            offered += len(offer)
            assert (hexes(new.offer_batch(offer, payloads))
                    == hexes(old.offer_batch(offer, payloads)))
        else:
            payload = f"e{offered}"
            offered += 1
            assert (hexes(new.offer(offer, payload))
                    == hexes(old.offer(offer, payload)))
        assert state(new) == reference_state(old)
        assert len(new) == len(old) <= k
