"""Arm state: uniform sampling without replacement from a cluster.

The abstract problem (Definition 2.2) samples i.i.d. from each arm's
distribution; "in practice, Alice samples listings from each cluster without
replacement" (Section 2.3).  :class:`ArmState` implements the practical
behaviour with O(1) swap-pop draws.

Setting up an arm is O(1): it reads its leaf's immutable ``member_ids``
in place — a :class:`~repro.index.tree.LeafMembers`, an int array of
slots plus the list that maps a slot to its id.  Its first draw copies
the slots (a memcpy, 4 bytes a member, one object to the cyclic GC) and
every draw swap-pops that copy: drawing position ``i`` moves the tail
slot into position ``i`` — a list's swap-pop, on the same generator
calls, so the draw order and the :meth:`~ArmState.peek_members` order
are those of a list copy of the ids.  Draws deal in slots throughout;
a draw returns the picked slots, which name rows of the dataset the
engine reads (a built tree's slots index its id tuple, a live tree's
the table's block rows), and :attr:`~ArmState.names` turns them into
ids at the boundary.  Every tree's leaves are this one type (built,
restored, restricted, shard and maintained live trees), so there is one
draw loop.

One hot-path affordance: ``draw_batch`` consumes the generator with a
*single* rng call for the whole batch (a vectorized partial Fisher-Yates
step) and degenerates to the exact legacy one-call-per-draw sequence at
``size=1``, so seeded traces of ``batch_size=1`` runs are preserved bit for
bit.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import ExhaustedError
from repro.index.tree import LeafMembers
from repro.utils.rng import SeedLike, as_generator


class ArmState:
    """Remaining members of one cluster, drawn uniformly without replacement.

    Parameters
    ----------
    arm_id:
        Stable identifier of the cluster (matches the index's leaf id).
    member_ids:
        Element IDs belonging to this cluster.  A
        :class:`~repro.index.tree.LeafMembers` (a leaf's ``member_ids``)
        is read in place, never copied; other sequences are read into one.
    rng:
        Seed or generator for the draw order.
    """

    def __init__(self, arm_id: str, member_ids: Iterable[str],
                 rng: SeedLike = None) -> None:
        self.arm_id = arm_id
        #: The cluster's members as constructed (restore checks against it).
        self.member_ids = LeafMembers.of(member_ids)
        self._rng = as_generator(rng)
        self.n_drawn = 0
        self.reset()

    @property
    def names(self) -> Sequence[str]:
        """The list a drawn slot indexes: ``names[slot]`` is its id."""
        return self.member_ids.names

    def reset(self, slots: Optional[array] = None) -> None:
        """Make ``slots`` (default: every member's), in that order, the
        undrawn members; they are the arm's own from then on."""
        #: The undrawn slots are ``_source[:_n]``.  A leaf's own slots
        #: are copied before the first draw writes.
        self._owned = slots is not None
        self._source = self.member_ids.slots if slots is None else slots
        self._n = len(self._source)

    def _own(self):
        """Copy the leaf's slots before the first draw writes to them."""
        self._source = self._source[:]
        self._owned = True
        return self._source

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

    def draw(self) -> int:
        """Draw one member's slot uniformly at random, removing it (O(1)).

        Position ``i`` is taken and the tail position moves into its
        slot: a list's swap-pop, on the arm's copy of the slots.
        """
        if not self._n:
            raise ExhaustedError(f"arm {self.arm_id!r} is exhausted")
        i = int(self._rng.integers(self._n))
        self._n = last = self._n - 1
        self.n_drawn += 1
        source = self._source if self._owned else self._own()
        picked = source[i]
        source[i] = source[last]
        return picked

    def draw_batch(self, size: int) -> List[int]:
        """Draw up to ``size`` members' slots (fewer if the arm runs dry).

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
        source = self._source if self._owned else self._own()
        picks: List[int] = []
        pick = picks.append
        last = n
        for i in positions.tolist():  # draw()'s swap-pop, in turn
            last -= 1
            pick(source[i])
            source[i] = source[last]
        self._n = n - take
        self.n_drawn += take
        return picks

    def peek_slots(self) -> array:
        """The not-yet-drawn members' slots, in the order a list swap-pop
        would hold them.  Not a test helper: the policy's ``state()``
        snapshots and ``remaining_rows()`` (the uniform-scan fallback)
        read it, so the order is part of the seeded behaviour."""
        return self._source[:self._n]

    def peek_members(self) -> tuple:
        """The ids of :meth:`peek_slots`, in that order."""
        return tuple(map(self.names.__getitem__, self.peek_slots()))
