"""The batched observe path in Python floats is the numpy code it replaced.

At ``BATCH`` > 1 an observation folds the batch into every row of the
drawn leaf's root path (``HistogramBank.fold``) and offers each score to
the top-k buffer (``TopKBuffer.offer_batch``).  Both used to run numpy
per row or a method call per score; the numpy bodies stay here verbatim
as the oracles, and every property compares exact floats (``float.hex``,
so ``-0.0`` is told apart from ``0.0``):

* ``fold(path, scores, tau)`` equals, row by row, ``maybe_extend_lowest``
  then the numpy ``add_batch`` — edges, counts, mass, the extension and
  re-bin tallies and the stale marker;
* the Python range extension and subtraction equal their numpy
  forms (``np.linspace`` plus the vectorised overlap redistribution);
* the batch offer equals one ``offer`` per score: the heap's entries, its
  sequence counter, the running STK and the returned gain;
* a ``BATCH 64`` policy update on rows that cover the batch makes no
  numpy call at all.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.histogram as histogram
from repro.core.hierarchical import HierarchicalBanditPolicy
from repro.core.histogram import STALE, AdaptiveHistogram, HistogramBank
from repro.core.stk import TopKBuffer
from repro.errors import ConfigurationError
from repro.index.tree import ClusterNode, ClusterTree
from repro.utils.validation import check_scores
from tests.test_histogram_bank import bits, count_values, edge_values

# -- the numpy references, verbatim from the code they replaced ---------------


def reference_overlap_redistribute(old_edges, old_counts, new_edges):
    """The vectorised redistribution: one (old x new) overlap matrix."""
    old_counts = np.asarray(old_counts, dtype=float)
    old_edges = np.asarray(old_edges, dtype=float)
    new_edges = np.asarray(new_edges, dtype=float)
    n_new = len(new_edges) - 1
    new_counts = np.zeros(n_new, dtype=float)
    positive = old_counts > 0.0
    if not positive.any():
        return new_counts
    lows = old_edges[:-1]
    highs = old_edges[1:]
    widths = highs - lows
    spread = positive & (widths > 0.0)
    if spread.any():
        seg_lo = np.maximum(lows[spread, None], new_edges[None, :-1])
        seg_hi = np.minimum(highs[spread, None], new_edges[None, 1:])
        overlap = np.maximum(seg_hi - seg_lo, 0.0)
        contrib = old_counts[spread, None] * overlap / widths[spread, None]
        new_counts += contrib.sum(axis=0)
    point = positive & (widths <= 0.0)
    if point.any():
        slots = np.clip(
            np.searchsorted(new_edges, lows[point], side="right") - 1,
            0, n_new - 1,
        )
        np.add.at(new_counts, slots, old_counts[point])
    return new_counts


def reference_overlap_redistribute_scalar(old_edges, old_counts, new_edges):
    """The pre-vectorisation loop, the vectorised form's own oracle."""
    new_counts = np.zeros(len(new_edges) - 1, dtype=float)
    for i in range(len(old_counts)):
        count = old_counts[i]
        if count <= 0.0:
            continue
        lo, hi = old_edges[i], old_edges[i + 1]
        width = hi - lo
        if width <= 0.0:
            # Degenerate zero-width bin: treat as a point mass at ``lo``.
            j = int(np.clip(np.searchsorted(new_edges, lo, side="right") - 1,
                            0, len(new_counts) - 1))
            new_counts[j] += count
            continue
        first = int(np.clip(np.searchsorted(new_edges, lo, side="right") - 1,
                            0, len(new_counts) - 1))
        for j in range(first, len(new_counts)):
            seg_lo = max(lo, new_edges[j])
            seg_hi = min(hi, new_edges[j + 1])
            if seg_hi <= seg_lo:
                if new_edges[j] >= hi:
                    break
                continue
            new_counts[j] += count * (seg_hi - seg_lo) / width
    return new_counts


def reference_extend_range(sketch, new_max):
    bank, row = sketch._bank, sketch._row
    if new_max <= bank.row_top[row]:
        return
    edges = bank.row_edges[row]
    new_edges = np.linspace(edges[0], float(new_max), bank.n_bins + 1)
    bank.row_counts[row] = reference_overlap_redistribute(
        edges, bank.row_counts[row], new_edges).tolist()
    bank.row_edges[row] = new_edges.tolist()
    bank.row_extensions[row] += 1
    bank.resync(row)


def reference_add(sketch, value):
    """The one-score fold of one row, extending in numpy."""
    bank, row = sketch._bank, sketch._row
    if value > bank.row_top[row]:
        reference_extend_range(sketch, bank.beta * value)
    index = min(max(np.searchsorted(bank.row_edges[row], value, "right") - 1,
                    0), bank.n_bins - 1)
    bank.row_counts[row][index] += 1.0
    bank.row_mass[row] += 1.0
    bank.row_gain_at[row] = STALE


def reference_add_batch(sketch, values):
    """``add_batch`` as numpy chunks between range extensions."""
    if len(values) == 1:
        reference_add(sketch, float(values[0]))
        return
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        return
    if not ((arr >= 0.0) & (arr < math.inf)).all():
        check_scores(arr.tolist())  # raises, before the row changes
    bank, row = sketch._bank, sketch._row
    start = 0
    while start < arr.size:
        over = arr[start:] > bank.row_top[row]
        if not over.any():
            stop = arr.size
        else:
            # First overflowing value triggers the next range extension.
            stop = start + int(np.argmax(over))
        if stop > start:
            chunk = arr[start:stop]
            indices = np.searchsorted(bank.row_edges[row], chunk,
                                      "right") - 1
            np.minimum(indices, bank.n_bins - 1, out=indices)
            np.maximum(indices, 0, out=indices)
            bank.row_counts[row] = (
                np.array(bank.row_counts[row])
                + np.bincount(indices, minlength=bank.n_bins)).tolist()
            bank.row_mass[row] += float(chunk.size)
            start = stop
        if start < arr.size:
            reference_extend_range(sketch, bank.beta * float(arr[start]))
    bank.row_gain_at[row] = STALE


def reference_subtract(sketch, other):
    if other.is_empty:
        return
    bank, row = sketch._bank, sketch._row
    projected = reference_overlap_redistribute(other.edges, other.counts,
                                               bank.row_edges[row])
    bank.row_counts[row] = np.maximum(
        np.array(bank.row_counts[row]) - projected, 0.0).tolist()
    bank.resync(row)


# -- strategies ----------------------------------------------------------------

#: Counts past 2**53 / 8, where adding a tally of 2 and adding 1.0 twice
#: round apart.
folded_counts = st.one_of(count_values, st.floats(1e15, 1e17))


@st.composite
def banks(draw, n_bins=None, max_rows=4):
    """A bank of 1-4 loaded rows: zero-width bins, ``-0.0``, empty rows."""
    if n_bins is None:
        n_bins = draw(st.sampled_from((2, 3, 5, 8, 9)))
    n_rows = draw(st.integers(1, max_rows))
    bank = HistogramBank(n_rows, n_bins=n_bins,
                         beta=draw(st.sampled_from((1.0, 1.1, 1.7, 2.0))))
    for row in range(n_rows):
        edges = sorted(draw(st.lists(edge_values, min_size=n_bins + 1,
                                     max_size=n_bins + 1)))
        if edges[-1] <= 0.0:
            edges[-1] = draw(st.floats(0.1, 10.0))
        counts = draw(st.one_of(
            st.just([0.0] * n_bins),
            st.lists(folded_counts, min_size=n_bins, max_size=n_bins)))
        bank.load(row, edges, counts, draw(st.integers(0, 3)),
                  draw(st.integers(0, 3)))
    return bank


def batch_values(bank):
    """Scores on edges and borders, signed zeros, inside and above ranges."""
    tops = [edges[-1] for edges in bank.row_edges]
    on_grid = sorted({edge for edges in bank.row_edges for edge in edges})
    high = max(tops)
    return st.one_of(
        st.sampled_from(on_grid + [0.0, -0.0]),
        st.floats(0.0, high),
        st.floats(high, 4.0 * high),
    )


@st.composite
def folds(draw):
    """``(bank, path, scores, tau)``: a batch of 2-128 scores."""
    bank = draw(banks())
    if draw(st.booleans()):
        # Fractional counts: one row loses a random sketch's mass first.
        other = AdaptiveHistogram(n_bins=3, initial_range=1.0)
        other.add_many(draw(st.lists(st.floats(0.0, 5.0), max_size=6)))
        bank.row(draw(st.integers(0, len(bank.row_edges) - 1))).subtract(
            other)
    values = batch_values(bank)
    pool = draw(st.lists(values, min_size=1, max_size=12))
    # Drawing from a small pool gives duplicates.
    scores = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=128))
    path = draw(st.permutations(range(len(bank.row_edges))))
    tau = draw(st.one_of(st.none(), st.floats(0.0, 2.0 * max(
        edges[-1] for edges in bank.row_edges))))
    return bank, tuple(path), scores, tau


def clone(bank: HistogramBank) -> HistogramBank:
    twin = HistogramBank(len(bank.row_edges), bank.n_bins, 1.0, bank.beta)
    for row in range(len(bank.row_edges)):
        twin.adopt(row, bank.row(row))
    return twin


def row_bits(bank: HistogramBank, row: int):
    return (bits(bank.row_edges[row]), bits(bank.row_counts[row]),
            bits([bank.row_mass[row], bank.row_top[row]]),
            bank.row_extensions[row], bank.row_rebins[row],
            bank.row_gain_at[row] is STALE)


# -- the fold ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(folds())
def test_fold_is_rebin_then_numpy_add_batch(case):
    bank, path, scores, tau = case
    want = clone(bank)
    # Cached gains, so the stale marker is something the fold must set.
    bank.gains(range(len(bank.row_edges)), None)
    want.gains(range(len(want.row_edges)), None)
    for row in path:
        want.row(row).maybe_extend_lowest(tau)
        reference_add_batch(want.row(row), scores)
    bank.fold(path, scores, tau)
    for row in range(len(bank.row_edges)):
        assert row_bits(bank, row) == row_bits(want, row)


@pytest.mark.parametrize("scores, extensions", [
    ([0.05, 0.1, 0.0, -0.0, 0.1], 0),          # inside, top border, zeros
    ([0.05, 0.5, 0.2, 0.01], 1),               # one extension mid-batch
    ([0.2, 0.5, 2.0, 0.3, 9.0, 0.0], 4),       # several, in arrival order
])
def test_fold_extensions_mid_batch(scores, extensions):
    bank, want = HistogramBank(2), HistogramBank(2)
    bank.fold((0, 1), scores, None)
    for row in (0, 1):
        reference_add_batch(want.row(row), scores)
        assert row_bits(bank, row) == row_bits(want, row)
        assert bank.row_extensions[row] == extensions


@settings(max_examples=100, deadline=None)
@given(banks(), st.floats(0.0, 10.0))
def test_fold_rebin_threshold(bank, fraction):
    """A ``tau`` above bin 2's border re-bins every row before the fold."""
    want = clone(bank)
    path = tuple(range(len(bank.row_edges)))
    tau = max(bank.row_rebin_at) + fraction
    scores = [edges[1] for edges in bank.row_edges] + [0.0, fraction]
    for row in path:
        want.row(row).maybe_extend_lowest(tau)
        reference_add_batch(want.row(row), scores)
    bank.fold(path, scores, tau)
    for row in path:
        assert row_bits(bank, row) == row_bits(want, row)


def test_fold_refuses_bad_scores_before_any_row_changes():
    bank = HistogramBank(3)
    bank.fold((0, 1, 2), [0.01, 0.05], None)
    before = [row_bits(bank, row) for row in range(3)]
    for bad in ([0.01, math.nan, 0.02], [math.nan, -1.0], [0.5, math.inf],
                [0.01, -0.5], [-math.inf, 0.2]):
        with pytest.raises(ConfigurationError, match="finite and non-neg"):
            bank.fold((0, 1, 2), bad, None)
        assert [row_bits(bank, row) for row in range(3)] == before
    # Finite scores whose sum overflows are folded, not refused.
    bank.fold((0,), [1e308, 1e308], None)
    assert bank.row_mass[0] == 4.0


# -- range extension and subtraction ---------------------------------------------


@st.composite
def sketches(draw, n_bins):
    bank = draw(banks(n_bins=n_bins, max_rows=1))
    return bank.row(0)


@settings(max_examples=150, deadline=None)
@given(sketches(n_bins=8), st.floats(0.0, 3.0))
def test_extend_range_is_the_numpy_form(sketch, factor):
    want = clone(sketch._bank).row(0)
    new_max = sketch.max_range * (1.0 + factor)
    sketch.extend_range(new_max)
    reference_extend_range(want, new_max)
    assert row_bits(sketch._bank, 0) == row_bits(want._bank, 0)


@pytest.mark.parametrize("start, stop", [(0.0, 0.1), (-0.0, 1.0),
                                         (0.0, 5e-324), (1.0, 1.0 + 2e-16),
                                         (0.3, 1e300)])
@pytest.mark.parametrize("n_bins", [2, 3, 8, 13])
def test_grid_is_linspace(start, stop, n_bins):
    assert bits(histogram._grid(start, stop, n_bins)) == bits(
        np.linspace(start, stop, n_bins + 1))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 8)).flatmap(
    lambda n_bins: st.tuples(sketches(n_bins), sketches(n_bins))))
def test_subtract_is_the_numpy_form(pair):
    sketch, other = pair
    want = clone(sketch._bank).row(0)
    sketch.subtract(other)
    reference_subtract(want, other)
    assert row_bits(sketch._bank, 0) == row_bits(want._bank, 0)


@settings(max_examples=150, deadline=None)
@given(banks(max_rows=2), st.integers(2, 12), st.floats(0.0, 3.0))
def test_overlap_redistribute_is_the_numpy_form(bank, n_new, factor):
    """Arbitrary target grids too, zero-width target bins included."""
    edges, counts = bank.row_edges[0], bank.row_counts[0]
    targets = [np.linspace(edges[0], edges[-1] * (1.0 + factor), n_new + 1)
               .tolist(), bank.row_edges[-1]]
    for new_edges in targets:
        assert bits(histogram._overlap_redistribute(
            edges, counts, new_edges)) == bits(
            reference_overlap_redistribute(edges, counts, new_edges))


# -- the top-k offers ----------------------------------------------------------


def buffer_bits(buffer: TopKBuffer):
    entries = [(bits([score])[0], seq, payload)
               for score, seq, payload in buffer._heap]
    return entries, buffer._seq, bits([buffer.stk])


offer_scores = st.one_of(st.sampled_from((0.0, -0.0, 1.0, 2.5)),
                         st.floats(0.0, 100.0))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.lists(offer_scores, max_size=30),
       st.lists(st.lists(offer_scores, max_size=70), min_size=1, max_size=4))
def test_offer_batch_is_offer_per_score(k, prefill, batches):
    one, many = TopKBuffer(k), TopKBuffer(k)
    for position, score in enumerate(prefill):
        one.offer(score, f"p{position}")
        many.offer(score, f"p{position}")
    for number, scores in enumerate(batches):
        payloads = [f"b{number}-{position}" for position in range(len(scores))]
        gain = 0.0
        for score, payload in zip(scores, payloads):
            gain += one.offer(score, payload)
        assert bits([many.offer_batch(scores, payloads)]) == bits([gain])
        assert buffer_bits(many) == buffer_bits(one)


# -- the structural pin ------------------------------------------------------------


class _NoNumpy:
    """Stands in for the histogram module's ``np``: any use raises."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy call np.{name} on the batch fold path")


def two_layer_tree() -> ClusterTree:
    """Root, two internal nodes, four leaves of 1000 members each."""
    leaves = [ClusterNode(f"leaf{j}", member_ids=tuple(
        f"e{j}-{i}" for i in range(1000))) for j in range(4)]
    return ClusterTree(ClusterNode("root", children=[
        ClusterNode("left", children=leaves[:2]),
        ClusterNode("right", children=leaves[2:])]))


def test_batch64_update_within_range_makes_no_numpy_call(monkeypatch):
    policy = HierarchicalBanditPolicy(two_layer_tree(), rng=3)
    rng = np.random.default_rng(0)
    # Grow every row's range first, so the pinned batches fit it.
    while min(policy._bank.row_top) < 50.0:
        policy.select(64, epsilon=1.0)
        policy.update(rng.uniform(0.0, 50.0, 64).tolist() + [50.0], None)
    for _ in range(6):
        scores = rng.uniform(0.0, 40.0, 64).tolist()
        policy.select(64)
        path = policy._paths[policy._pending]
        assert max(scores) <= min(policy._bank.row_top[row] for row in path)
        with monkeypatch.context() as patch:
            patch.setattr(histogram, "np", _NoNumpy())
            # Threshold 20.0 re-bins the rows too (Fig. 3a, list code).
            policy.update(scores, 20.0)
    assert policy._bank.row_rebins[0] > 0
