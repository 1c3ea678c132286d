"""The index maintainer against the mean, routing and bump arithmetic it
replaced.

Until commit 5f749b1, :class:`~repro.live.maintenance.IndexMaintainer`
divided ``_sum / _count`` afresh for every child it compared at every
level of an insert, computed ``row - mean`` twice per distance and gave
each ancestor a new sum array per bump.  That code is kept below
verbatim, as methods of a subclass, and the two maintainers are driven
side by side over one table: after every ``advance`` their published
trees (node ids, child order, member ids, centroids), reports,
counts, leaf row arrays and row -> leaf maps must be equal, and every
node's running sum, and the mean routing would read from it, must be
equal byte for byte.  No two nodes' sum buffers may share memory, since
the maintainer adds to them in place.

Leaf membership is not part of what the reference keeps: its insert
takes the new member's block row, reads its features as
``block[slot]``, adds the row to its leaf's row array and ``_leaf_at``,
and reads the leaf's size off ``_count``, as the maintainer does.  The
two maintainers' row arrays, codes and stale sets must be equal, and
each published leaf must name exactly the live rows of its array (its
slots *are* that array when it is over the table's row -> id list).

The seeded write streams mix, within one ``advance``, append bursts
aimed at one cluster (leaves overflow and split, split children split
again), updates that move rows across the space, deletes that empty a
whole leaf (it is pruned) and updates and deletes of rows the same
``advance`` appended; one stream crosses the churn threshold, so a full
rebuild lands between incremental steps, and one forces a compaction of
the table midway, so an ``advance`` renumbers every leaf through the
compaction's row map between two deltas.

The maintainer routes with :func:`math.dist` over cached float means and
falls back to the reference's ``np.dot`` rule on any level its margin
does not certify.  The near-tie cases at the end pin that fallback: one
row appended under a root whose leaves each hold one row (so each mean
is that row), with exact ties (duplicate means, a point at the midpoint
of two) and means a few ulps from a tie, where :func:`math.dist` and
``np.dot`` can order two children differently.  Both maintainers must
put the row in the same leaf.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.index.builder import IndexConfig, build_index
from repro.index.tree import ClusterNode, ClusterTree
from repro.live import IndexMaintainer, LiveTable

N_ROWS = 400
DIM = 4
N_CLUSTERS = 8
STEPS = 30


class ReferenceMaintainer(IndexMaintainer):
    """The maintainer with its parent's arithmetic (5f749b1), verbatim."""

    def _mean(self, node_id: str) -> Optional[np.ndarray]:
        count = self._count.get(node_id, 0)
        if not count:
            return None
        return self._sum[node_id] / count

    def _insert(self, slot: int, nodes: Dict[str, ClusterNode],
                parent: Dict[str, Optional[str]], root: ClusterNode,
                touched: Set[str], block: np.ndarray) -> None:
        row = block[slot]
        if self._leaf_at[slot] >= 0:
            raise ConfigurationError(f"block row {slot} is already indexed")
        node = root
        while not node.is_leaf:
            best, best_dist = None, np.inf
            for child in node.children:
                mean = self._mean(child.node_id)
                if mean is None:
                    continue
                dist = float(np.dot(row - mean, row - mean))
                if dist < best_dist:
                    best, best_dist = child, dist
            if best is None:
                best = node.children[0]
            node = best
        self._rows[node.node_id].append(slot)
        self._leaf_at[slot] = self._codes[node.node_id]
        self._bump(node.node_id, parent, row, +1, touched)
        if self._count[node.node_id] > self.max_leaf_size:
            self._split(node, nodes, parent, touched, block)

    def _bump(self, node_id: str, parent: Dict[str, Optional[str]],
              row: np.ndarray, sign: int, touched: Set[str]) -> None:
        at: Optional[str] = node_id
        while at is not None:
            self._sum[at] = self._sum[at] + sign * row
            self._count[at] += sign
            touched.add(at)
            at = parent.get(at)


class Stream:
    """One seeded table and the two maintainers that follow its writes."""

    def __init__(self, seed: int, rebuild_threshold: float) -> None:
        self.rng = np.random.default_rng([4242, seed])
        self.centres = self.rng.normal(scale=5.0, size=(N_CLUSTERS, DIM))
        self.next_id = 0
        ids = self.new_ids(N_ROWS)
        features = self.rows_near(
            self.rng.integers(0, N_CLUSTERS, size=N_ROWS))
        self.table = LiveTable(ids, features[:, 0].tolist(), features,
                               name="t")
        snapshot = self.table.snapshot()
        config = IndexConfig(n_clusters=N_CLUSTERS)

        def rebuild(snap):
            return build_index(snap.features(), snap.ids(), config, rng=0)

        tree = rebuild(snapshot)
        self.maintainers = [
            kind(tree, snapshot, rebuild, max_leaf_size=24,
                 rebuild_threshold=rebuild_threshold)
            for kind in (ReferenceMaintainer, IndexMaintainer)]
        self.version = snapshot.version
        self.compactions = 0

    def new_ids(self, n: int) -> List[str]:
        ids = [f"r{self.next_id + i:05d}" for i in range(n)]
        self.next_id += n
        return ids

    def rows_near(self, clusters) -> np.ndarray:
        clusters = np.asarray(clusters)
        return (self.centres[clusters]
                + self.rng.normal(scale=0.6, size=(len(clusters), DIM)))

    def live(self) -> List[str]:
        return self.table.snapshot().ids()

    # -- one write of each kind ---------------------------------------------

    def append_burst(self) -> List[str]:
        """Rows piled on one cluster: its leaf overflows and splits."""
        n = int(self.rng.integers(1, 40))
        cluster = int(self.rng.integers(0, N_CLUSTERS))
        ids = self.new_ids(n)
        rows = self.rows_near([cluster] * n)
        self.table.append(ids, None, rows)
        return ids

    def update(self, pool: List[str]) -> None:
        n = min(len(pool), int(self.rng.integers(1, 12)))
        if not n:
            return
        chosen = [pool[i] for i in self.rng.choice(len(pool), n,
                                                   replace=False)]
        clusters = self.rng.integers(0, N_CLUSTERS, size=n)
        self.table.update(chosen, self.rows_near(clusters))

    def delete(self, pool: List[str]) -> None:
        n = min(len(pool) - 1, int(self.rng.integers(1, 16)))
        if n < 1:
            return
        self.table.delete([pool[i] for i in self.rng.choice(len(pool), n,
                                                            replace=False)])

    def delete_a_leaf(self) -> None:
        """Every member of the smallest leaf, plus a stray or two."""
        leaves = [leaf for leaf in self.maintainers[1].tree.leaves()
                  if leaf.member_ids]
        if len(leaves) < 2:
            return
        smallest = min(leaves, key=lambda leaf: len(leaf.member_ids))
        live = self.live()
        doomed = set(smallest.member_ids) & set(live)
        strays = [m for m in live if m not in doomed]
        if not doomed or len(strays) < 3:
            return
        self.table.delete(
            [m for m in smallest.member_ids if m in doomed]
            + [strays[i] for i in self.rng.choice(len(strays), 2,
                                                  replace=False)])

    def compact(self) -> None:
        """Rewrite every live row as it is until the table compacts."""
        while all(delta.remap is None
                  for delta in self.table.deltas_since(self.version)):
            live = self.live()
            self.table.update(live, self.table.features_of(live))

    def step(self, compact: bool = False) -> None:
        """One to four writes, then both maintainers fold them in
        (``compact``: with a compaction forced between them)."""
        appended: List[str] = []
        for _ in range(int(self.rng.integers(1, 5))):
            roll = self.rng.random()
            if roll < 0.35:
                appended += self.append_burst()
            elif roll < 0.55:
                self.update(self.live())
            elif roll < 0.75:
                self.delete(self.live())
            elif roll < 0.85:
                self.delete_a_leaf()
            else:   # rewrite rows this same advance appended
                live = set(self.live())
                fresh = [m for m in appended if m in live]
                (self.update if self.rng.random() < 0.5
                 else self.delete)(fresh)
            if compact:
                self.compact()
                compact = False
        snapshot = self.table.snapshot()
        deltas = self.table.deltas_since(self.version)
        self.compactions += sum(delta.remap is not None for delta in deltas)
        reports = [maintainer.advance(deltas, snapshot)
                   for maintainer in self.maintainers]
        self.version = snapshot.version
        assert_lockstep(reports, self.maintainers, snapshot)


def structure(node: ClusterNode) -> tuple:
    return (node.node_id, tuple(child.node_id for child in node.children),
            tuple(node.member_ids))


def row_layout(maintainer) -> dict:
    return {leaf: rows.tolist() for leaf, rows in maintainer._rows.items()}


def live_rows(maintainer, leaf: str) -> list:
    """A leaf's rows less the deleted ones it still holds (read only)."""
    code = maintainer._codes[leaf]
    return [row for row in maintainer._rows[leaf]
            if maintainer._leaf_at[row] == code]


def assert_lockstep(reports, maintainers, snapshot) -> None:
    reference, current = maintainers
    assert reports[0] == reports[1]
    assert ([structure(node) for node in reference.tree.nodes()]
            == [structure(node) for node in current.tree.nodes()])
    assert (json.dumps(reference.tree.to_dict())
            == json.dumps(current.tree.to_dict()))
    assert reference._count == current._count
    assert row_layout(reference) == row_layout(current)
    assert reference._codes == current._codes
    assert reference._stale == current._stale
    assert reference._leaf_at.tobytes() == current._leaf_at.tobytes()
    names = snapshot.row_ids
    for leaf in current.tree.leaves():
        rows = live_rows(current, leaf.node_id)
        assert tuple(leaf.member_ids) == tuple(names[row] for row in rows)
        assert current._count[leaf.node_id] == len(rows)
        if leaf.member_ids.names is names:
            assert leaf.member_ids.slots.tolist() == rows
    assert list(reference._sum) == list(current._sum)
    for node_id, total in reference._sum.items():
        assert total.tobytes() == current._sum[node_id].tobytes(), node_id
    # Every cached mean (what routing reads) is the reference's quotient,
    # float for float: none outlives a change to its node's sum.
    for node_id, mean in current._means.items():
        assert current._count[node_id], node_id
        assert (list(map(float.hex, mean))
                == list(map(float.hex, reference._mean(node_id).tolist()))
                ), node_id
    sums = list(current._sum.values())
    for i, total in enumerate(sums):
        for other in sums[i + 1:]:
            assert not np.shares_memory(total, other)


@pytest.mark.parametrize("seed", range(6))
def test_incremental_streams_keep_every_bit(seed):
    stream = Stream(seed, rebuild_threshold=1e9)
    for _ in range(STEPS):
        stream.step()
    reference, current = stream.maintainers
    assert current.n_rebuilds == 0 and current.n_splits >= 1
    assert current.n_splits == reference.n_splits


def test_a_compaction_mid_stream_keeps_every_bit():
    stream = Stream(8, rebuild_threshold=1e9)
    for step in range(STEPS):
        stream.step(compact=step == STEPS // 2)
    reference, current = stream.maintainers
    assert stream.compactions >= 1
    assert current.n_rebuilds == 0 and current.n_splits >= 1
    assert current.n_splits == reference.n_splits
    # Every leaf was republished over the compacted table's row -> id list.
    names = stream.table.snapshot().row_ids
    assert all(leaf.member_ids.names is names
               for leaf in current.tree.leaves())


def test_a_churn_rebuild_between_steps_keeps_every_bit():
    stream = Stream(7, rebuild_threshold=0.5)
    for _ in range(STEPS):
        stream.step()
    reference, current = stream.maintainers
    assert current.n_rebuilds >= 1 and current.n_splits >= 1
    assert (current.n_rebuilds, current.n_splits) == (reference.n_rebuilds,
                                                      reference.n_splits)


# -- near ties: the routing the margin cannot certify --------------------------


def routed_leaves(means: Sequence[Sequence[float]],
                  point: Sequence[float]) -> List[str]:
    """The leaf each maintainer (reference first) puts ``point`` in, under
    a root whose leaf ``leaf<i>`` holds one row at ``means[i]``."""
    ids = [f"m{i}" for i in range(len(means))]
    table = LiveTable(ids, None, np.array(means, dtype=float), name="t")
    snapshot = table.snapshot()
    tree = ClusterTree(ClusterNode("root", children=[
        ClusterNode(f"leaf{i}", member_ids=(element_id,))
        for i, element_id in enumerate(ids)]))

    def rebuild(snap):  # pragma: no cover - churn stays under the threshold
        raise AssertionError("no rebuild expected")

    maintainers = [kind(tree, snapshot, rebuild, max_leaf_size=8,
                        rebuild_threshold=1e9)
                   for kind in (ReferenceMaintainer, IndexMaintainer)]
    table.append(["x"], None, np.array([point], dtype=float))
    deltas, after = table.deltas_since(snapshot.version), table.snapshot()
    leaves = []
    for maintainer in maintainers:
        maintainer.advance(deltas, after)
        leaves += [leaf.node_id for leaf in maintainer.tree.leaves()
                   if "x" in tuple(leaf.member_ids)]
    return leaves


def orders_differ(means, point) -> bool:
    """Whether :func:`math.dist` and ``np.dot`` rank the first two means
    differently (a strict order one way, the other order or a tie the
    other way)."""
    x = np.array(point, dtype=float)
    dots = [float(np.dot(x - mean, x - mean))
            for mean in np.array(means[:2], dtype=float)]
    dists = [math.dist(tuple(point), tuple(mean)) for mean in means[:2]]
    return dists[0] != dists[1] and ((dists[0] < dists[1])
                                     != (dots[0] < dots[1]))


@pytest.mark.parametrize("means, point", [
    ([[1.0, 2.0], [1.0, 2.0]], [0.0, 0.0]),                 # duplicates
    ([[3.0, -1.0, 0.5]] * 3, [0.25, 0.5, 0.75]),
    ([[5.0, 5.0], [0.0, 0.0], [2.0, 2.0]], [1.0, 1.0]),     # midpoint of 2, 3
    ([[0.0], [2.0]], [1.0]),
    ([[0.1, 0.7, -0.3], [0.5, 0.2, 0.9]], [0.3, 0.45, 0.3]),
    ([[1e-300, 0.0], [-1e-300, 0.0]], [0.0, 0.0]),          # tiny distances
    ([[1e300, 0.0], [-1e300, 0.0]], [0.0, 0.0]),            # squares overflow
    ([[1e300, 0.0], [9e299, 0.0]], [0.0, 0.0]),
], ids=["duplicates", "duplicates-3", "midpoint", "midpoint-1d",
        "midpoint-inexact", "underflow", "overflow-tie", "overflow"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_exact_ties_take_the_first_of_equals(means, point):
    reference, current = routed_leaves(means, point)
    assert current == reference


def near_tie(d: int, seed: int):
    """Two means a few ulps from equidistant to a point: the second is the
    first's offset permuted over the coordinates, nudged by ulps."""
    rng = np.random.default_rng([4848, d, seed])
    point = rng.normal(size=d)
    offset = rng.normal(size=d)
    other = point + offset[rng.permutation(d)]
    other += (rng.integers(-3, 4) * np.spacing(other)
              * (rng.random(d) < 0.5))
    return [(point + offset).tolist(), other.tolist()], point.tolist()


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_near_ties_route_to_the_reference_leaf(d):
    cases = [near_tie(d, seed) for seed in range(300)]
    for means, point in cases:
        reference, current = routed_leaves(means, point)
        assert current == reference, (means, point)
    if d > 1:   # the cases hold rankings only the fallback gets right
        assert any(orders_differ(means, point) for means, point in cases)


#: Floats with all 52 mantissa bits drawn (``st.floats`` favours short
#: mantissas, whose differences and squares round exactly).
coordinate = st.builds(
    lambda sign, mantissa, exponent: math.ldexp(
        sign * (2**52 + mantissa), exponent - 52),
    st.sampled_from([-1, 1]), st.integers(0, 2**52 - 1), st.integers(-3, 3))


@given(st.sampled_from([1, 2, 3, 8]).flatmap(lambda d: st.tuples(
    st.lists(coordinate, min_size=d, max_size=d),
    st.lists(coordinate, min_size=d, max_size=d),
    st.permutations(range(d)),
    st.lists(st.integers(-4, 4), min_size=d, max_size=d))))
@settings(max_examples=300, deadline=None)
def test_configurations_near_a_tie_route_to_the_reference_leaf(case):
    """The point's offset to the second mean is its offset to the first,
    permuted and nudged by a few ulps; the third is the point less the
    first offset, as far as the first before rounding."""
    point, offset, order, ulps = (np.array(part, dtype=float)
                                  for part in case)
    near = point + offset
    far = point + offset[order.astype(int)]
    far += ulps * np.spacing(far)
    means = [near.tolist(), far.tolist(), (point - offset).tolist()]
    reference, current = routed_leaves(means, point.tolist())
    assert current == reference
