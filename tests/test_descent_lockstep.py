"""The policy's descent against the filter-per-layer descent it replaced.

Each node of :class:`~repro.core.hierarchical.HierarchicalBanditPolicy`
keeps the ordered list of its live children, and one loop serves
``select`` and ``greedy_descent_leaf`` with one bank call per greedy
layer.  The descent before that (commit 4c6d320) filtered every sibling
list by ``remaining`` at every layer, read ``is_empty`` per sibling and
took the gains, their maximum and the ties in three more passes.  That
code is kept below verbatim, as methods of a subclass, and the two
policies are driven side by side from one seed: at every select they
must choose the same leaf, draw the same ids and leave their generators
in the same state, and their ``state()`` payloads must stay equal.

The runs cover trees of depth 1-10 with one layer of fan-out up to 300,
leaves empty from construction (a ``prevalidated`` tree) and leaves
emptied by drops, ``ClusterTree.restricted`` trees, a mid-run
``flatten()`` and a ``load_state`` from a mid-run ``state()``,
``visit_unvisited_first`` on and off (with subtraction, an ancestor whose
observed children were all dropped is clamped back to zero mass and is
unvisited again), per-layer exploration, a caller's ``choose=`` rule, a
foreign ``sketch_factory`` and ``BATCH`` 1 / 8 / 64.
"""

from __future__ import annotations

import random
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandit import BanditConfig
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.core.sketches import ReservoirSketch
from repro.errors import ExhaustedError
from repro.index.tree import ClusterNode, ClusterTree


class ReferencePolicy(HierarchicalBanditPolicy):
    """The policy with its parent's descent (4c6d320), verbatim but for
    ``_gains``' foreign branch: the per-sketch list the deleted
    ``gain_batch`` built, built directly."""

    def _gains(self, rows: List[int], threshold: float | None) -> List[float]:
        """Gain estimates of ``rows``; the bank's one refresh when it can be."""
        if not self._foreign:
            return self._bank.gains(
                rows, None if threshold is None else float(threshold))
        sketches = self._sketches
        return [sketches[row].expected_marginal_gain(threshold)
                for row in rows]

    def _live_children(self, row: int) -> List[int]:
        remaining = self._remaining
        candidates = [c for c in self._children[row] if remaining[c] > 0]
        if not candidates:
            raise ExhaustedError(
                f"node {self._ids[row]!r} has no sampleable children")
        return candidates

    def _greedy(self, candidates: List[int], threshold: float | None,
                *, deterministic: bool) -> int:
        if not deterministic and self.config.visit_unvisited_first:
            # Optimistic initialization: sweep unseen subtrees before
            # trusting gain estimates (see BanditConfig docs).
            sketches = self._sketches
            unvisited = [c for c in candidates if sketches[c].is_empty]
            if unvisited:
                return unvisited[int(self._rng.integers(len(unvisited)))]
        gains = self._gains(candidates, threshold)
        best = max(gains)
        tied = [c for c, gain in zip(candidates, gains)
                if gain >= best - 1e-15]
        if deterministic or len(tied) == 1:
            return tied[0]
        return tied[int(self._rng.integers(len(tied)))]

    def select(self, size: int, threshold: float | None = None,
               epsilon: float = 0.0, *, per_layer: bool = False,
               choose=None) -> List[str]:
        arms, sketches = self._arms, self._sketches
        row = 0
        explore_all = (choose is None and not per_layer
                       and self._rng.random() < epsilon)
        while arms[row] is None:
            candidates = self._live_children(row)
            if choose is not None:
                row = candidates[choose(
                    sketches[row], [sketches[c] for c in candidates])]
            elif explore_all or (per_layer and self._rng.random() < epsilon):
                row = candidates[int(self._rng.integers(len(candidates)))]
            else:
                row = self._greedy(candidates, threshold,
                                   deterministic=False)
        self._pending = row
        ids = arms[row].draw_batch(size)
        remaining, drawn = self._remaining, len(ids)
        for node in self._paths[row]:
            remaining[node] -= drawn
        return ids

    def greedy_descent_leaf(self, threshold: float | None) -> str:
        row = 0
        while self._arms[row] is None:
            row = self._greedy(self._live_children(row), threshold,
                               deterministic=True)
        return self._ids[row]


# -- trees -------------------------------------------------------------------


def random_tree(seed: int, depth: int, wide_level: int, wide: int,
                empty_leaves: bool) -> ClusterTree:
    """A tree of at most ``depth`` layers whose ``wide_level`` layer has
    fan-out ``wide``; other internal nodes have 1-3 children, and about a
    third of them are leaves.  Sizes 1-4, or 0-4 with ``empty_leaves``."""
    rng = random.Random(seed)
    counter = iter(range(10 ** 9))
    budget = [400]

    def node(level: int) -> ClusterNode:
        number = next(counter)
        budget[0] -= 1
        internal = (level == 0 or rng.random() < 0.7) and level < depth
        if not internal or budget[0] <= 0:
            size = rng.randint(0 if empty_leaves else 1, 4)
            members = tuple(f"e{number}_{i}" for i in range(size))
            return ClusterNode(f"leaf{number}", member_ids=members)
        width = wide if level == wide_level else rng.randint(1, 3)
        return ClusterNode(f"n{number}",
                           children=[node(level + 1) for _ in range(width)])

    root = node(0)
    return ClusterTree.prevalidated(root, ())


def element_score(element_id: str) -> float:
    """A fixed score per id, clustered by leaf."""
    leaf, _, index = element_id[1:].partition("_")
    return (int(leaf) * 7919 % 97) / 40.0 + int(index) * 0.013


def least_mass_child(parent, children) -> int:
    """A caller's ``choose=`` rule: the child holding the least mass."""
    masses = [child.total_mass for child in children]
    return masses.index(min(masses))


# -- the lockstep driver -----------------------------------------------------


def lockstep(tree: ClusterTree, *, size: int = 1, seed: int = 0,
             epsilon: float = 0.3, per_layer: bool = False,
             choose: bool = False, reservoir: bool = False,
             flatten_at: Optional[int] = None,
             reload_at: Optional[int] = None, k: int = 5,
             subtraction: bool = True, **knobs) -> dict:
    """Drive both descents to exhaustion; return what the run went through."""

    def make(cls):
        factory = ((lambda: ReservoirSketch(capacity=4, rng=3))
                   if reservoir else None)
        return cls(tree, BanditConfig(sketch_factory=factory, **knobs),
                   rng=seed, enable_subtraction=subtraction)

    new, ref = make(HierarchicalBanditPolicy), make(ReferencePolicy)
    rule = least_mass_child if choose else None
    seen: List[float] = []
    saw = {"clamped_unvisited": False, "selects": 0}
    step = 0
    while not ref.exhausted:
        assert not new.exhausted
        threshold = sorted(seen)[-k] if len(seen) >= k else None
        if step == flatten_at:
            new.flatten()
            ref.flatten()
        if step == reload_at and not reservoir:
            payload = ref.state()
            assert new.state() == payload
            new, ref = make(HierarchicalBanditPolicy), make(ReferencePolicy)
            new.load_state(payload)
            ref.load_state(payload)
        if step % 5 == 4:
            assert (new.greedy_descent_leaf(threshold)
                    == ref.greedy_descent_leaf(threshold))
        got = new.select(size, threshold, epsilon, per_layer=per_layer,
                         choose=rule)
        want = ref.select(size, threshold, epsilon, per_layer=per_layer,
                          choose=rule)
        assert new._pending == ref._pending, step
        assert got == want, step
        assert (new._rng.bit_generator.state
                == ref._rng.bit_generator.state), step
        scores = [element_score(new.names[row]) for row in got]
        seen.extend(scores)
        leaf, drops = ref._pending, ref.n_drops
        new.update(scores, threshold)
        ref.update(scores, threshold)
        if ref.n_drops > drops:
            # Subtraction may leave a live ancestor with no mass: it is
            # unvisited again.
            saw["clamped_unvisited"] |= any(
                ref._remaining[row] > 0 and ref._sketches[row].is_empty
                for row in ref._paths[leaf][1:])
        step += 1
    assert new.exhausted and new.remaining == ref.remaining == 0
    for policy in (new, ref):
        with pytest.raises(ExhaustedError):
            policy.select(size, None, epsilon, per_layer=per_layer,
                          choose=rule)
    if not reservoir:
        assert new.state() == ref.state()
    saw["selects"] = step
    return saw


# -- the properties ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16), depth=st.integers(1, 10),
       wide=st.integers(1, 300), wide_level=st.integers(0, 9),
       empty_leaves=st.booleans(), restrict=st.booleans(),
       size=st.sampled_from((1, 8, 64)), unvisited=st.booleans(),
       subtraction=st.booleans(), per_layer=st.booleans(),
       choose=st.booleans(), reservoir=st.booleans(),
       epsilon=st.sampled_from((0.0, 0.3, 1.0)),
       flatten_at=st.one_of(st.none(), st.integers(0, 80)),
       reload_at=st.one_of(st.none(), st.integers(0, 80)))
def test_descent_matches_the_parent_in_lockstep(
        seed, depth, wide, wide_level, empty_leaves, restrict, size,
        unvisited, subtraction, per_layer, choose, reservoir, epsilon,
        flatten_at, reload_at):
    tree = random_tree(seed, depth, wide_level % depth, wide, empty_leaves)
    if restrict:
        members = [member for leaf in tree.leaves()
                   for member in leaf.member_ids]
        keep = random.Random(seed).sample(members, len(members) // 2)
        tree = tree.restricted(keep)
    if not any(leaf.member_ids for leaf in tree.leaves()):
        return  # an empty index: nothing to descend into
    lockstep(tree, size=size, seed=seed, epsilon=epsilon,
             per_layer=per_layer, choose=choose, reservoir=reservoir,
             flatten_at=flatten_at, reload_at=reload_at,
             subtraction=subtraction, visit_unvisited_first=unvisited)


def small_tree() -> ClusterTree:
    """``A`` holds a two-element leaf beside a four-element one: a BATCH 8
    draw of ``a1`` is folded into ``A`` and then subtracted back out."""
    def leaf(number: int, size: int) -> ClusterNode:
        return ClusterNode(f"leaf{number}", member_ids=tuple(
            f"e{number}_{i}" for i in range(size)))

    return ClusterTree(ClusterNode("root", children=[
        ClusterNode("A", children=[leaf(1, 2), leaf(2, 4)]),
        leaf(3, 3)]))


@pytest.mark.parametrize("unvisited", [False, True])
def test_an_ancestor_clamped_back_to_zero_mass_is_unvisited_again(unvisited):
    runs = [lockstep(small_tree(), size=8, seed=seed, epsilon=0.0,
                     visit_unvisited_first=unvisited)
            for seed in range(12)]
    assert any(run["clamped_unvisited"] for run in runs)


@pytest.mark.parametrize("unvisited", [False, True])
@pytest.mark.parametrize("size", [1, 8, 64])
def test_a_wide_root_matches_in_lockstep(unvisited, size):
    tree = random_tree(5, depth=3, wide_level=0, wide=300,
                       empty_leaves=True)
    assert len(tree.root.children) == 300
    run = lockstep(tree, size=size, seed=11, epsilon=0.2,
                   flatten_at=40, reload_at=90,
                   visit_unvisited_first=unvisited)
    assert run["selects"] > 90
