"""The copy-free arm against the list swap-pop arm it replaced.

:class:`~repro.core.arms.ArmState` reads its leaf's member tuple in place
and keeps a sparse map of displaced positions; the arm it replaced copied
the leaf into a list and swap-popped it.  That arm is kept below verbatim
as it stood before the change, renamed ``ReferenceArmState``.  Both arms
start from the same members and the same generator state and take the
same calls — ``draw`` and ``draw_batch`` at widths 1-128, interleaved until
the arm runs dry — and after every call they must have returned the same
ids and hold the same count, the same ``peek_members()`` order (which the
policy's ``state()`` and ``remaining_rows()`` read) and the same generator
state.  Partway through, the copy-free arm's policy takes its own
``state()`` back through JSON and ``load_state``, while the reference arm
gets the list the parent's ``load_state`` assigned to it.
"""

from __future__ import annotations

import copy
import json
from typing import Iterable, List, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.errors import ExhaustedError
from repro.index.tree import ClusterNode, ClusterTree
from repro.utils.rng import SeedLike, as_generator


# -- the list swap-pop arm before the swap map, verbatim ------------------------


class ReferenceArmState:
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


# -- the property ------------------------------------------------------------------


def policy_over(size: int, seed: int) -> HierarchicalBanditPolicy:
    """A policy whose leaf ``"c"`` holds ``size`` members; a one-member
    second leaf keeps the index non-empty at ``size`` 0 (an empty leaf is
    one only a prevalidated tree may carry)."""
    leaves = [ClusterNode("c", member_ids=tuple(f"e{i}" for i in range(size))),
              ClusterNode("pad", member_ids=("pad-0",))]
    tree = ClusterTree.prevalidated(ClusterNode("root", children=leaves), ())
    return HierarchicalBanditPolicy(tree, rng=seed)


def assert_lockstep(arm, reference, got, want) -> None:
    assert got == want
    assert len(arm) == len(reference) == arm.remaining
    assert arm.peek_members() == reference.peek_members()
    assert arm._rng.bit_generator.state == \
        reference._rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(size=st.integers(0, 5000),
       seed=st.integers(0, 2**32 - 1),
       # 0 is a ``draw()``, any other width a ``draw_batch(width)``; the
       # pattern repeats until the arm runs dry.
       widths=st.lists(st.integers(0, 128), min_size=1, max_size=12),
       round_trip_at=st.integers(0, 40))
def test_copy_free_arm_draws_like_the_list_arm(size, seed, widths,
                                              round_trip_at):
    policy = policy_over(size, seed)
    arm = policy.node("c").arm
    assert arm._source is arm.member_ids.slots
    reference = ReferenceArmState("c", arm.member_ids,
                                  rng=copy.deepcopy(arm._rng))
    assert_lockstep(arm, reference, (), ())
    calls = 0
    while len(reference):
        if calls == round_trip_at:
            state = json.loads(json.dumps(policy.state()))
            policy.load_state(state)
            reference._members = list(state["children"][0]["remaining"])
            assert_lockstep(arm, reference, (), ())
        width = widths[calls % len(widths)]
        names = arm.names
        if width:
            got = [names[slot] for slot in arm.draw_batch(width)]
            want = reference.draw_batch(width)
        else:
            got, want = names[arm.draw()], reference.draw()
        calls += 1
        assert_lockstep(arm, reference, got, want)
    assert arm.is_empty and arm.draw_batch(3) == []
    assert arm.n_drawn == reference.n_drawn == size
