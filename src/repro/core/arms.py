"""Arm state: uniform sampling without replacement from a cluster.

The abstract problem (Definition 2.2) samples i.i.d. from each arm's
distribution; "in practice, Alice samples listings from each cluster without
replacement" (Section 2.3).  :class:`ArmState` implements the practical
behaviour with O(1) swap-pop draws.

One hot-path affordance: ``draw_batch`` consumes the generator with a
*single* rng call for the whole batch (a vectorized partial Fisher-Yates
step) and degenerates to the exact legacy one-call-per-draw sequence at
``size=1``, so seeded traces of ``batch_size=1`` runs are preserved bit for
bit.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.errors import ExhaustedError
from repro.utils.rng import SeedLike, as_generator


class ArmState:
    """Remaining members of one cluster, drawn uniformly without replacement.

    Parameters
    ----------
    arm_id:
        Stable identifier of the cluster (matches the index's leaf id).
    member_ids:
        Element IDs belonging to this cluster.
    rng:
        Seed or generator for the draw order.
    """

    def __init__(self, arm_id: str, member_ids: Iterable[str],
                 rng: SeedLike = None) -> None:
        self.arm_id = arm_id
        self._members: List[str] = list(member_ids)
        self._rng = as_generator(rng)
        self.n_drawn = 0

    def __len__(self) -> int:
        return len(self._members)

    @property
    def remaining(self) -> int:
        """Number of elements not yet drawn."""
        return len(self._members)

    @property
    def is_empty(self) -> bool:
        """True once the cluster has been exhausted."""
        return not self._members

    def draw(self) -> str:
        """Draw one member uniformly at random, removing it (O(1))."""
        if not self._members:
            raise ExhaustedError(f"arm {self.arm_id!r} is exhausted")
        index = int(self._rng.integers(len(self._members)))
        last = len(self._members) - 1
        self._members[index], self._members[last] = (
            self._members[last],
            self._members[index],
        )
        self.n_drawn += 1
        return self._members.pop()

    def draw_batch(self, size: int) -> List[str]:
        """Draw up to ``size`` members (fewer if the arm runs dry).

        For ``size > 1`` the whole batch consumes exactly one rng call
        (a vector of uniforms scaled by shrinking bounds — a partial
        Fisher-Yates shuffle), so batched selection does O(1) generator
        work per batch.  ``size=1`` routes through :meth:`draw` and
        therefore reproduces the legacy seeded sequence exactly.
        """
        take = min(int(size), len(self._members))
        if take <= 0:
            return []
        if take == 1:
            return [self.draw()]
        n = len(self._members)
        bounds = np.arange(n, n - take, -1, dtype=np.int64)
        # floor(U * bounds) is uniform over [0, bounds) up to a 2^-53
        # rounding bias; one generator call for the whole batch.
        indices = (self._rng.random(take) * bounds).astype(np.int64)
        members = self._members
        batch: List[str] = []
        for offset, index in enumerate(indices):
            last = n - 1 - offset
            i = int(index)
            members[i], members[last] = members[last], members[i]
            batch.append(members.pop())
        self.n_drawn += take
        return batch

    def peek_members(self) -> Sequence[str]:
        """Read-only view of the not-yet-drawn member IDs (test helper)."""
        return tuple(self._members)
