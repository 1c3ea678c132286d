"""Arm state: uniform sampling without replacement from a cluster.

The abstract problem (Definition 2.2) samples i.i.d. from each arm's
distribution; "in practice, Alice samples listings from each cluster without
replacement" (Section 2.3).  :class:`ArmState` implements the practical
behaviour with O(1) swap-pop draws.

The arm does not copy its leaf.  It reads the leaf's immutable
``member_ids`` in place — a tuple, or the
:class:`~repro.index.tree.ChunkedMembers` a maintained live leaf is
published as — and keeps a sparse *swap map* of the positions a draw
displaced: position ``i`` holds ``moved.get(i, source[i])``, and drawing
position ``i`` moves the tail into slot ``i`` — the swap-pop of a list,
on the same generator calls, so the draw order and the
:meth:`~ArmState.peek_members` order are those of a list copy.  Over
chunks a batch resolves its picks in one vectorised pass
(:meth:`~repro.index.tree.ChunkedMembers.gather`) and its tails, which
are contiguous, chunk by chunk; the positions and the generator calls
are the tuple's.  That costs ~15 us more per ``BATCH 64`` draw than a
tuple read, so an arm that has drawn :data:`FLATTEN_AFTER` of its leaf
switches to the leaf's flat tuple
(:meth:`~repro.index.tree.ChunkedMembers.flat`, built once per
published leaf and kept; later arms over the leaf start on it): the
exploited leaf draws most of a query's batches (41 of 63 on
``live-append``), and one copy of a 3000-member leaf, with the gen-0
pass over it, costs ~55 us, about four chunked batches.

Setting up an arm is O(1) and a query's arms cost O(draws): the map holds
at most ``min(draws, remaining)`` entries.  Drawing a cluster of ``n`` to
exhaustion is where it peaks, near ``n / 4`` entries when half is drawn
(simulated), so an exhaustive run holds up to about twice the memory of a
list copy for a while (a ``BATCH 64`` run through a 100k-member, 32-leaf
tree peaks at 2.0 MB under ``tracemalloc``, against 0.9 MB with list
copies); a budget far below ``n`` holds a few entries.

One hot-path affordance: ``draw_batch`` consumes the generator with a
*single* rng call for the whole batch (a vectorized partial Fisher-Yates
step) and degenerates to the exact legacy one-call-per-draw sequence at
``size=1``, so seeded traces of ``batch_size=1`` runs are preserved bit for
bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Union

import numpy as np

from repro.errors import ExhaustedError
from repro.index.tree import ChunkedMembers
from repro.utils.rng import SeedLike, as_generator

#: Share of a chunked leaf an arm draws before it reads the leaf's flat
#: tuple instead (see the module docstring).
FLATTEN_AFTER = 1 / 16


class ArmState:
    """Remaining members of one cluster, drawn uniformly without replacement.

    Parameters
    ----------
    arm_id:
        Stable identifier of the cluster (matches the index's leaf id).
    member_ids:
        Element IDs belonging to this cluster.  A tuple or a
        :class:`~repro.index.tree.ChunkedMembers` (a leaf's
        ``member_ids``) is read in place, never copied.
    rng:
        Seed or generator for the draw order.
    """

    def __init__(self, arm_id: str, member_ids: Iterable[str],
                 rng: SeedLike = None) -> None:
        self.arm_id = arm_id
        #: The cluster's members as constructed (restore checks against it).
        self.member_ids = _frozen(member_ids)
        self._rng = as_generator(rng)
        self.n_drawn = 0
        self.reset(self.member_ids)

    def reset(self, member_ids: Iterable[str]) -> None:
        """Make ``member_ids``, in that order, the undrawn members."""
        self._source = _frozen(member_ids)
        self._moved: Dict[int, str] = {}
        self._n = len(self._source)

    def __len__(self) -> int:
        return self._n

    @property
    def remaining(self) -> int:
        """Number of elements not yet drawn."""
        return self._n

    @property
    def is_empty(self) -> bool:
        """True once the cluster has been exhausted."""
        return not self._n

    def draw(self) -> str:
        """Draw one member uniformly at random, removing it (O(1)).

        Position ``i`` is taken and the tail position moves into its
        slot: a list's swap-pop, on the swap map.
        """
        if not self._n:
            raise ExhaustedError(f"arm {self.arm_id!r} is exhausted")
        i = int(self._rng.integers(self._n))
        self._n = last = self._n - 1
        self.n_drawn += 1
        moved, source = self._moved, self._source
        picked = moved.get(i, source[i])
        tail = moved.pop(last, source[last])
        if i != last:
            moved[i] = tail
        return picked

    def draw_batch(self, size: int) -> List[str]:
        """Draw up to ``size`` members (fewer if the arm runs dry).

        For ``size > 1`` the whole batch consumes exactly one rng call
        (a vector of uniforms scaled by shrinking bounds — a partial
        Fisher-Yates shuffle), so batched selection does O(1) generator
        work per batch.  ``size=1`` routes through :meth:`draw` and
        therefore reproduces the legacy seeded sequence exactly.
        """
        take = min(int(size), self._n)
        if take <= 0:
            return []
        if take == 1:
            return [self.draw()]
        n = self._n
        bounds = np.arange(n, n - take, -1, dtype=np.int64)
        # floor(U * bounds) is uniform over [0, bounds) up to a 2^-53
        # rounding bias; one generator call for the whole batch.
        positions = (self._rng.random(take) * bounds).astype(np.int64)
        moved, source = self._moved, self._source
        if (type(source) is not tuple
                and self.n_drawn >= FLATTEN_AFTER * len(source)):
            source = self._source = source.flat()
        batch: List[str] = []
        last = n
        if type(source) is tuple:
            for i in positions.tolist():  # draw()'s swap-pop, in turn
                last -= 1
                batch.append(moved.get(i, source[i]))
                tail = moved.pop(last, source[last])
                if i != last:
                    moved[i] = tail
        else:   # the same, with picks and tails read from chunks first
            tails = source.span(n - take, n)
            tails.reverse()
            for i, pick, at_last in zip(positions.tolist(),
                                        source.gather(positions), tails):
                last -= 1
                batch.append(moved.get(i, pick))
                tail = moved.pop(last, at_last)
                if i != last:
                    moved[i] = tail
        self._n = n - take
        self.n_drawn += take
        return batch

    def peek_members(self) -> tuple:
        """The not-yet-drawn member IDs, in the order a list swap-pop
        would hold them.  Not a test helper: the policy's ``state()``
        snapshots and ``remaining_ids()`` (the uniform-scan fallback)
        read it, so the order is part of the seeded behaviour."""
        moved = self._moved
        return tuple([moved.get(i, member)
                      for i, member in zip(range(self._n), self._source)])


def _frozen(member_ids: Iterable[str]) -> Union[tuple, ChunkedMembers]:
    """``member_ids`` as an immutable sequence: a tuple, unless chunked
    and no reader has flattened the leaf yet."""
    if isinstance(member_ids, ChunkedMembers):
        return member_ids.flattened or member_ids
    return tuple(member_ids)
