"""An arm over a leaf's int slots draws exactly what it drew over the id tuple.

Every leaf's members are a :class:`~repro.index.tree.LeafMembers` (an
``array('i')`` of slots plus the list that names them), and
:class:`~repro.core.arms.ArmState` draws slots, which its ``names``
list turns into ids.  Until that change an arm read a tuple of ids in place through
the same swap map; that arm's tuple path is kept below verbatim as
``TupleArm``.  Both start from the same members and generator state and
take the same calls — ``draw`` and ``draw_batch`` at ``BATCH`` 1, 8 and
64 — and after every call they must have returned the same ids and hold
the same count, the same ``peek_members()`` order and the same generator
state.  The leaf layouts are those the library builds: slots over the
leaf's own ids (a flat or JSON tree), slots scattered over a list shared
with other leaves (a built tree; a maintained live leaf, whose slots are
block rows), and the same with that list appended to while the arm
draws (a live table writing more rows).  Arms are driven until emptied,
reset onto a plain list of ids partway, and restored through their
policy's ``state()`` -> ``load_state`` round trip.
"""

from __future__ import annotations

import json
from array import array
from typing import Dict, Iterable, List

import numpy as np
import pytest

from repro.core.arms import ArmState
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.errors import ExhaustedError
from repro.index.tree import ClusterNode, ClusterTree, LeafMembers
from repro.utils.rng import SeedLike, as_generator


# -- the arm over an id tuple, before the slots (its tuple path, verbatim) -----


class TupleArm:
    """Remaining members of one cluster, drawn uniformly without replacement."""

    def __init__(self, arm_id: str, member_ids: Iterable[str],
                 rng: SeedLike = None) -> None:
        self.arm_id = arm_id
        #: The cluster's members as constructed (restore checks against it).
        self.member_ids = tuple(member_ids)
        self._rng = as_generator(rng)
        self.n_drawn = 0
        self.reset(self.member_ids)

    def reset(self, member_ids: Iterable[str]) -> None:
        """Make ``member_ids``, in that order, the undrawn members."""
        self._source = tuple(member_ids)
        self._moved: Dict[int, str] = {}
        self._n = len(self._source)

    def __len__(self) -> int:
        return self._n

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
        """Draw up to ``size`` members (fewer if the arm runs dry)."""
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
        batch: List[str] = []
        last = n
        for i in positions.tolist():  # draw()'s swap-pop, in turn
            last -= 1
            batch.append(moved.get(i, source[i]))
            tail = moved.pop(last, source[last])
            if i != last:
                moved[i] = tail
        self._n = n - take
        self.n_drawn += take
        return batch

    def peek_members(self) -> tuple:
        """The not-yet-drawn member IDs, in the order a list swap-pop
        would hold them."""
        moved = self._moved
        return tuple([moved.get(i, member)
                      for i, member in zip(range(self._n), self._source)])


# -- the layouts ---------------------------------------------------------------

LAYOUTS = ("own", "shared", "growing")


def leaf_of(members: tuple, layout: str,
            rng: np.random.Generator) -> LeafMembers:
    """``members`` as a leaf of the given layout (same ids, same order)."""
    if layout == "own":
        return LeafMembers.of(members)
    # Other leaves' ids around this leaf's, in a shuffled shared list.
    others = [f"x{i:04d}" for i in range(int(rng.integers(0, 300)))]
    names = list(members) + others
    order = rng.permutation(len(names))
    names = [names[i] for i in order]
    slot_of = {name: slot for slot, name in enumerate(names)}
    return LeafMembers(array("i", [slot_of[m] for m in members]), names)


def assert_same(arm: ArmState, reference: TupleArm) -> None:
    assert arm.peek_members() == reference.peek_members()
    assert len(arm) == len(reference) == arm.remaining
    assert arm.n_drawn == reference.n_drawn
    assert (arm._rng.bit_generator.state
            == reference._rng.bit_generator.state)


def drive(arm: ArmState, reference: TupleArm, batch: int,
          rng: np.random.Generator, leaf: LeafMembers, layout: str,
          calls: int = 10 ** 9) -> None:
    """Up to ``calls`` draws side by side, checked after each."""
    while len(reference) and calls:
        if batch == 1 or rng.random() < 0.1:
            assert arm.names[arm.draw()] == reference.draw()
        else:
            size = int(rng.integers(1, batch + 1))
            assert named(arm, arm.draw_batch(size)) == \
                reference.draw_batch(size)
        assert_same(arm, reference)
        if layout == "growing":     # the table writes on meanwhile
            leaf.names.append(f"late{len(leaf.names)}")
        calls -= 1


def named(arm: ArmState, slots) -> List[str]:
    """The ids drawn ``slots`` name."""
    return [arm.names[slot] for slot in slots]


def slots_of(arm: ArmState, ids) -> array:
    """The arm's slots of member ``ids``, in that order."""
    slot_of = dict(zip(arm.member_ids, arm.member_ids.slots))
    return array("i", [slot_of[element_id] for element_id in ids])


def assert_emptied(arm: ArmState, batch: int) -> None:
    assert arm.is_empty
    with pytest.raises(ExhaustedError):
        arm.draw()
    assert arm.draw_batch(batch) == []


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("batch", [1, 8, 64])
@pytest.mark.parametrize("seed", range(12))
def test_slot_arm_draws_in_lockstep_with_the_tuple_arm(layout, batch, seed):
    rng = np.random.default_rng([77, seed, batch])
    members = tuple(f"m{i:04d}" for i in range(int(rng.integers(1, 400))))
    leaf = leaf_of(members, layout, rng)
    assert leaf == members and tuple(leaf) == members
    arm = ArmState("leaf", leaf, rng=seed)
    reference = TupleArm("leaf", members, rng=seed)
    assert arm.member_ids is leaf and arm._source is leaf.slots  # in place
    assert_same(arm, reference)
    drive(arm, reference, batch, rng, leaf, layout)
    assert_emptied(arm, batch)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("batch", [1, 8, 64])
def test_a_reset_arm_draws_from_its_new_members(layout, batch):
    """Restoring a snapshot resets an arm onto the slots of a list of
    ids."""
    rng = np.random.default_rng([78, batch])
    members = tuple(f"m{i}" for i in range(150))
    leaf = leaf_of(members, layout, rng)
    arm = ArmState("leaf", leaf, rng=3)
    reference = TupleArm("leaf", members, rng=3)
    drive(arm, reference, batch, rng, leaf, layout, calls=5)
    kept = list(arm.peek_members())[::2]
    arm.reset(slots_of(arm, kept))
    reference.reset(kept)
    assert arm.member_ids is leaf           # restore checks against it
    assert_same(arm, reference)
    drive(arm, reference, batch, rng, leaf, layout)
    assert_emptied(arm, batch)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("batch", [1, 8, 64])
def test_a_restored_arm_draws_on_in_lockstep(layout, batch):
    """A policy's ``state()`` through JSON and back into ``load_state``
    leaves the arm drawing what the tuple arm reset onto the snapshot's
    ``remaining`` list draws."""
    rng = np.random.default_rng([79, batch])
    members = tuple(f"m{i}" for i in range(200))
    leaf = leaf_of(members, layout, rng)
    leaves = [ClusterNode("c", member_ids=leaf),
              ClusterNode("pad", member_ids=("pad-0",))]
    policy = HierarchicalBanditPolicy(
        ClusterTree(ClusterNode("root", children=leaves)), rng=5)
    arm = policy.node("c").arm
    reference = TupleArm("c", members)
    reference._rng.bit_generator.state = arm._rng.bit_generator.state
    drive(arm, reference, batch, rng, leaf, layout, calls=7)
    state = json.loads(json.dumps(policy.state()))
    policy.load_state(state)
    remaining = [child for child in state["children"]
                 if child["node_id"] == "c"][0]["remaining"]
    reference.reset(remaining)
    assert policy.node("c").arm is arm
    assert_same(arm, reference)
    drive(arm, reference, batch, rng, leaf, layout)
    assert_emptied(arm, batch)
