"""A row of a many-row bank is a standalone sketch, bit for bit.

``AdaptiveHistogram`` is one class over one layout: the policy's sketches
are rows of a shared :class:`~repro.core.histogram.HistogramBank`, a
standalone sketch is the only row of its own.  These tests drive random
operation sequences against both and require identical ``edges``,
``counts``, ``total_mass``, gains and ``to_dict()`` after every step, with
the neighbouring rows untouched.

A bank row is two Python float lists worked on in Python, and the numpy
code that did the same work stays here as its oracle, bit for bit:
``_gain_matrix`` (itself row-independent), the stacked kernel the bank
used to send wide stale sets to, for ``_row_gain``, and the numpy re-bin
for the list re-bin.  A refresh evaluates only the asked rows that are
stale, each once, however many there are.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.histogram as histogram
from repro.core.histogram import (STALE, AdaptiveHistogram, HistogramBank,
                                  _row_gain)

N_ROWS, ROW = 7, 3
SHAPE = dict(n_bins=6, initial_range=0.5, beta=1.2)

scores = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
thresholds = st.one_of(st.none(), st.floats(min_value=0.0, max_value=40.0,
                                            allow_nan=False))
# Overflow runs: ascending values force one range extension per element.
batches = st.one_of(
    st.lists(scores, min_size=0, max_size=12),
    st.lists(scores, min_size=2, max_size=8).map(sorted),
)
operations = st.one_of(
    st.tuples(st.just("add"), scores),
    st.tuples(st.just("add_batch"), batches),
    st.tuples(st.just("extend_range"), st.floats(0.1, 200.0)),
    st.tuples(st.just("maybe_extend_lowest"), thresholds),
    st.tuples(st.just("subtract"), st.lists(scores, max_size=6)),
    st.tuples(st.just("copy"), st.none()),
    st.tuples(st.just("round_trip"), st.none()),
    st.tuples(st.just("gain"), thresholds),
)


def other_sketch(values) -> AdaptiveHistogram:
    other = AdaptiveHistogram(n_bins=4, initial_range=1.0)
    other.add_many(values)
    return other


def assert_same(row: AdaptiveHistogram, alone: AdaptiveHistogram) -> None:
    np.testing.assert_array_equal(row.edges, alone.edges)
    np.testing.assert_array_equal(row.counts, alone.counts)
    assert row.total_mass == alone.total_mass
    assert row.max_range == alone.max_range
    assert row.to_dict() == alone.to_dict()


def row_state(bank: HistogramBank, row: int):
    return (list(bank.row_edges[row]), list(bank.row_counts[row]),
            bank.row_mass[row])


@settings(max_examples=150, deadline=None)
@given(st.lists(operations, min_size=1, max_size=25))
def test_bank_row_equals_standalone_sketch(ops):
    bank = HistogramBank(N_ROWS, **SHAPE)
    row, alone = bank.row(ROW), AdaptiveHistogram(**SHAPE)
    # Neighbours hold some mass of their own and must never move.
    for neighbour in (ROW - 1, ROW + 1):
        bank.row(neighbour).add_many([0.1, 0.3, 2.0])
    others = [r for r in range(N_ROWS) if r != ROW]
    frozen = [row_state(bank, r) for r in others]
    threshold = None
    for name, argument in ops:
        if name == "subtract":
            row.subtract(other_sketch(argument))
            alone.subtract(other_sketch(argument))
        elif name == "copy":
            # A copy is standalone and equal; the row itself is unmoved.
            assert_same(row.copy(), alone.copy())
        elif name == "round_trip":
            assert_same(AdaptiveHistogram.from_dict(row.to_dict()),
                        AdaptiveHistogram.from_dict(alone.to_dict()))
        elif name == "gain":
            threshold = argument
        else:
            assert getattr(row, name)(argument) == getattr(alone, name)(
                argument)
        assert_same(row, alone)
        assert (row.expected_marginal_gain(threshold)
                == alone.expected_marginal_gain(threshold))
    assert [row_state(bank, r) for r in others] == frozen


# -- the numpy kernel, kept verbatim as the oracle of ``_row_gain`` ----------
#
# ``repro.core.histogram._gain_matrix`` at 5f80ccb: the bank sent a stale
# set wider than 24 rows to it, until one ``_row_gain`` a row measured no
# slower at ``B = 8``.


def _gain_matrix(edges: np.ndarray, counts: np.ndarray,
                 threshold: Optional[float]) -> np.ndarray:
    """Row-wise closed-form ``E[Delta_{t,l}]`` for stacked histograms.

    ``edges`` has shape ``(m, B+1)`` and ``counts`` shape ``(m, B)``; one
    gain per row.  :func:`_row_gain` is the same arithmetic for one row.
    """
    mass = counts.sum(axis=1)
    safe_mass = np.where(mass > 0.0, mass, 1.0)
    probs = counts / safe_mass[:, None]
    lows = edges[:, :-1]
    highs = edges[:, 1:]
    # Empty rows need no masking: probs are all zero there, so every term
    # (and the row sum) is already +/-0.0, which compares equal to 0.0.
    if threshold is None:
        return (probs * (0.5 * (lows + highs))).sum(axis=1)
    tau = float(threshold)
    widths = highs - lows
    below = tau <= lows
    inside = (~below) & (tau < highs)
    safe_width = np.where(widths > 0.0, widths, 1.0)
    below_term = probs * (0.5 * (lows + highs) - tau)
    inside_term = probs * (highs - tau) ** 2 / (2.0 * safe_width)
    gain = np.where(below, below_term, np.where(inside, inside_term, 0.0))
    return gain.sum(axis=1)


@pytest.mark.parametrize("n_bins", [3, 8, 13, 16, 33])
def test_gain_kernel_is_row_independent(n_bins):
    """Any gathered subset, in any order, equals the one-row result exactly."""
    rng = np.random.default_rng(n_bins)
    for _ in range(40):
        m = int(rng.integers(1, 120))
        edges = np.sort(rng.uniform(0.0, 10.0, (m, n_bins + 1)), axis=1)
        counts = rng.uniform(0.0, 9.0, (m, n_bins))
        counts[rng.random((m, n_bins)) < 0.2] = 0.0
        counts[rng.random(m) < 0.1] = 0.0  # whole empty rows
        for tau in (None, 0.0, float(rng.uniform(0.0, 10.0)), 11.0):
            whole = _gain_matrix(edges, counts, tau)
            subset = rng.permutation(m)[:int(rng.integers(1, m + 1))]
            gathered = _gain_matrix(edges.take(subset, 0),
                                    counts.take(subset, 0), tau)
            assert gathered.tolist() == whole[subset].tolist()
            for row in subset[:5]:
                alone = _gain_matrix(edges[row][None, :],
                                     counts[row][None, :], tau)
                assert alone[0] == whole[row]


# -- the Python forms are the numpy code they replaced, bit for bit ----------

#: Around numpy's unroll of eight, and past its 128-value block (halving).
BIN_COUNTS = (2, 3, 7, 8, 9, 16, 33, 130)
#: Shared values make zero-width bins and tied widths; -0.0 makes
#: negative-zero terms.  Counts reach 1e17, where a unit is below an ulp.
edge_values = st.one_of(st.sampled_from((-0.0, 0.0, 0.5, 1.0, 2.5)),
                        st.floats(0.0, 10.0))
count_values = st.one_of(st.sampled_from((-0.0, 0.0, 1.0, 3.0, 1e17)),
                         st.floats(0.0, 9.0), st.floats(0.0, 1e17))


@st.composite
def rows(draw, bin_counts=BIN_COUNTS):
    """``(edges, counts)`` of one row: sorted edges, sometimes no mass."""
    n_bins = draw(st.sampled_from(bin_counts))
    edges = sorted(draw(st.lists(edge_values, min_size=n_bins + 1,
                                 max_size=n_bins + 1)))
    counts = draw(st.one_of(
        st.just([0.0] * n_bins),
        st.lists(count_values, min_size=n_bins, max_size=n_bins)))
    return edges, counts


def bits(values):
    """The exact floats, ``-0.0`` told apart from ``0.0``."""
    return [float(value).hex() for value in values]


def thresholds_around(edges, fraction):
    """No threshold, both zeros, below the range, on every border (the
    top one included), inside the range, above it, and NaN."""
    return [None, 0.0, -0.0, edges[0] - 1.0, *edges,
            edges[0] + fraction * (edges[-1] - edges[0]), edges[-1] + 1.0,
            math.nan]


def assert_row_gain_is_the_kernel(edges, counts, fraction):
    for tau in thresholds_around(edges, fraction):
        with np.errstate(all="ignore"):
            kernel = _gain_matrix(np.array([edges]), np.array([counts]), tau)
        assert bits([_row_gain(edges, counts, tau)]) == bits(kernel), tau


#: ``B = 8`` rows with mass in every bin and distinct borders: a threshold
#: on a border gives the mean-excess term of the bin above it, whose float
#: is not the uniform-tail term's.
rows_with_mass = st.tuples(
    st.lists(st.floats(0.0, 10.0), min_size=9, max_size=9).map(sorted),
    st.lists(st.floats(0.01, 9.0), min_size=8, max_size=8))


@settings(max_examples=500, deadline=None)
@given(st.one_of(rows(), rows_with_mass), st.floats(0.0, 1.0))
def test_row_gain_is_the_kernel_bit_for_bit(row, fraction):
    """Every ``B`` — the unrolled ``B = 8`` form and the general one
    around it — at every threshold that picks a different term."""
    assert_row_gain_is_the_kernel(*row, fraction)


@pytest.mark.parametrize("edges, counts", [
    # A zero-width top bin at a border whose double overflows: at tau on
    # the top border its mean excess is inf, not 0.0.
    ([0.0, 1e307, 2e307, 4e307, 8e307, 1e308, 1.2e308, 1.6e308, 1.6e308],
     [1.0] * 8),
    # Every bin zero-width, and -0.0 beside 0.0.
    ([-0.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [1.0, 2.0] * 4),
    # A unit count beside 1e17, below one ulp of the mass.
    ([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8], [1e17, 1.0] * 4),
    # B = 7: the general form.
    ([0.0, 0.5, 0.5, 1.0, 2.5, 2.5, 3.0, 9.0], [0.0, 3.0, 1.0, 0.5, 1e17,
                                                 2.0, 7.0]),
])
def test_row_gain_is_the_kernel_on_extreme_rows(edges, counts):
    assert_row_gain_is_the_kernel(edges, counts, 0.5)


@settings(max_examples=300, deadline=None)
@given(rows(bin_counts=(7, 8, 9)), st.lists(scores, max_size=6),
       st.floats(0.0, 1.0))
def test_row_gain_is_the_kernel_on_loaded_and_subtracted_rows(
        row, dropped, fraction):
    """Rows as a sketch holds them: read through ``from_dict`` (``-0.0``
    and zero-width bins kept), then, when ``dropped`` is not empty, less
    a dropped child's projected mass — fractional counts, clamped zeros."""
    edges, counts = row
    sketch = AdaptiveHistogram.from_dict({
        "n_bins": len(counts), "beta": 1.1, "edges": edges,
        "counts": counts})
    if dropped:
        sketch.subtract(other_sketch(dropped))
    assert_row_gain_is_the_kernel(sketch.edges.tolist(),
                                  sketch.counts.tolist(), fraction)


def numpy_rebin(edges, counts):
    """Fig. 3a over numpy arrays: the re-bin the list re-bin replaced."""
    edges, counts = np.array(edges), np.array(counts)
    merged_edges = np.concatenate((edges[:1], edges[2:]))
    merged_counts = np.concatenate(([counts[0] + counts[1]], counts[2:]))
    widths = merged_edges[2:] - merged_edges[1:-1]
    split = 1 + int(np.argmax(widths))
    mid = 0.5 * (merged_edges[split] + merged_edges[split + 1])
    half = merged_counts[split] / 2.0
    return (np.concatenate((merged_edges[:split + 1], [mid],
                            merged_edges[split + 1:])),
            np.concatenate((merged_counts[:split], [half, half],
                            merged_counts[split + 1:])))


@settings(max_examples=300, deadline=None)
@given(rows(bin_counts=BIN_COUNTS[1:]))
def test_list_rebin_is_the_numpy_rebin(row):
    edges, counts = row
    bank = HistogramBank(1, n_bins=len(counts))
    bank.load(0, edges, counts, 0, 0)
    assert bank.row(0).maybe_extend_lowest(float("inf"))
    want_edges, want_counts = numpy_rebin(edges, counts)
    assert bits(bank.row_edges[0]) == bits(want_edges)
    assert bits(bank.row_counts[0]) == bits(want_counts)
    # The resync's pairwise mass is numpy's sum of the row.
    assert bits([bank.row_mass[0]]) == bits([want_counts.sum()])
    assert bank.row_top[0] == want_edges[-1]
    assert bank.row_rebin_at[0] == want_edges[2]


# -- the refresh -------------------------------------------------------------


def spy(monkeypatch, name):
    """The argument tuples of every call to ``histogram.<name>``."""
    calls = []
    real = getattr(histogram, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(histogram, name, recorded)
    return calls


def test_a_refresh_evaluates_only_the_asked_stale_rows(monkeypatch):
    bank = HistogramBank(6)
    for row in range(6):
        bank.row(row).add_many([0.01 * (row + 1), 0.05])
    calls = spy(monkeypatch, "_row_gain")

    def evaluated():
        found = [next(row for row in range(6) if bank.row_edges[row] is edges)
                 for edges, _, _ in calls]
        calls.clear()
        return found

    assert bank.gains([0, 1], 0.02) == bank.gains([0, 1], 0.02)
    assert evaluated() == [0, 1]           # the second read is cached
    bank.row(0).add(0.03)
    bank.row(2).add(0.07)                  # stale, but never asked
    bank.gains([0, 1], 0.02)
    assert evaluated() == [0]
    bank.gains([1, 3], 0.04)               # a moved threshold: the asked rows
    assert evaluated() == [1, 3]
    assert bank.row_gain_at == [0.02, 0.04, STALE, 0.04, STALE, STALE]
    fresh = [AdaptiveHistogram.from_dict(bank.row(row).to_dict())
             .expected_marginal_gain(tau)
             for row, tau in ((0, 0.02), (1, 0.04), (3, 0.04))]
    assert [bank.row_gain[row] for row in (0, 1, 3)] == fresh


def test_a_wide_refresh_evaluates_each_stale_row_once(monkeypatch):
    """However wide the stale set (the kernel took more than 24 rows), one
    ``_row_gain`` per stale row, and none for a fresh one."""
    wide = 30
    bank = HistogramBank(wide)
    for row in range(wide):
        bank.row(row).add(0.01 * (row % 9))
    kernel = _gain_matrix(np.array(bank.row_edges), np.array(bank.row_counts),
                          0.03).tolist()
    calls = spy(monkeypatch, "_row_gain")
    assert bits(bank.gains(range(wide), 0.03)) == bits(kernel)
    assert len(calls) == wide
    assert bank.gains(range(wide), 0.03) == kernel  # all fresh now
    assert len(calls) == wide
    for row in range(0, wide, 3):
        bank.row(row).add(0.02)
    bank.gains(range(wide), 0.03)
    assert len(calls) == wide + len(range(0, wide, 3))


#: Exact ties, gaps of about 1e-15 either side of the tolerance, and
#: gains where 1e-15 is below half an ulp (16 and up), so ``best - 1e-15``
#: rounds back to ``best``.
gain_values = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-15, 2e-15, 0.5, 0.5 - 1e-15,
                     0.5 - 2e-15, 16.0, 16.000000000000004, 1e300,
                     math.inf)),
    st.floats(0.0, 100.0))


@settings(max_examples=400, deadline=None)
@given(st.lists(gain_values, min_size=1, max_size=30), st.randoms())
def test_best_rows_is_the_maximum_and_its_ties_in_the_order_asked(
        values, random):
    """One layer of a descent: the rows within ``1e-15`` of ``max()``,
    as the descent's three passes found them (two rows take their own
    path)."""
    rows = list(range(len(values)))
    random.shuffle(rows)
    bank = HistogramBank(len(values))
    for row, value in zip(rows, values):
        bank.row_gain[row], bank.row_gain_at[row] = value, 0.5
    gains = [bank.row_gain[row] for row in rows]
    best = max(gains)
    want = [row for row, gain in zip(rows, gains) if gain >= best - 1e-15]
    assert bank.best_rows(rows, 0.5) == want


@pytest.mark.parametrize("width", [1, 2, 3, 25])
def test_best_rows_refreshes_what_gains_refreshes(monkeypatch, width):
    """The same rows evaluated, the same way, to the same cached floats."""
    def bank_of_rows():
        bank = HistogramBank(width + 1)
        for row in range(width + 1):
            bank.row(row).add_many([0.01 * (row % 7 + 1), 0.05])
        bank.gains([0], 0.02)  # row 0 is fresh at 0.02
        return bank

    rows = list(range(width, -1, -1))
    got, want = bank_of_rows(), bank_of_rows()
    row_calls = spy(monkeypatch, "_row_gain")
    got.best_rows(rows, 0.02)
    seen = len(row_calls)
    assert seen == width  # every row but the fresh row 0
    gains = want.gains(rows, 0.02)
    assert len(row_calls) - seen == seen
    assert bits(got.row_gain) == bits(want.row_gain)
    assert got.row_gain_at == want.row_gain_at
    assert got.best_rows(rows, 0.02) == [
        row for row, gain in zip(rows, gains) if gain >= max(gains) - 1e-15]


# -- the greedy walk -----------------------------------------------------------


def reference_walk(bank, row, live, tau, unvisited_first):
    """The walk as the policy's per-layer loop took it: an unvisited sweep
    first, then one :meth:`HistogramBank.best_rows` per layer."""
    while live[row]:
        candidates = live[row]
        if unvisited_first and any(bank.row_mass[child] <= 0.0
                                   for child in candidates):
            break
        tied = bank.best_rows(candidates, tau)
        if len(tied) > 1:
            return row, tied
        row = tied[0]
    return row, None


@st.composite
def walk_trees(draw):
    """``(live, per-row scores)``: a random tree of rows, pre-order, with
    fan-outs of 0 to 4 — binary layers and wider ones — and rows that
    hold nothing, one score, or a few (ties at ``0.0`` gains included)."""
    live = []

    def grow(depth):
        row = len(live)
        live.append([])
        if depth < 4:
            for _ in range(draw(st.integers(0, 4 if depth else 3))):
                live[row].append(grow(depth + 1))
        return row

    grow(0)
    samples = draw(st.lists(
        st.lists(st.sampled_from((0.0, 0.01, 0.05, 0.3, 2.0)), max_size=3),
        min_size=len(live), max_size=len(live)))
    return live, samples


@settings(max_examples=300, deadline=None)
@given(walk_trees(), st.one_of(st.none(), st.sampled_from((0.0, 0.02, 0.2))),
       st.booleans(), st.integers(0, 3))
def test_the_walk_is_best_rows_layer_by_layer(tree, tau, unvisited_first,
                                              fresh):
    """Same stopping row, same ties in child order, and the same rows
    refreshed to the same cached floats as one ``best_rows`` per layer;
    a layer of two rows takes the walk's own compare."""
    live, samples = tree
    banks = []
    for _ in range(2):
        bank = HistogramBank(len(live))
        for row, values in enumerate(samples):
            for value in values:
                bank.row(row).add(value)
        bank.gains(range(0, len(live), fresh + 1), tau)  # some rows fresh
        banks.append(bank)
    counted = []
    real = histogram._row_gain

    def recorded(*args):
        counted.append(args)
        return real(*args)

    histogram._row_gain = recorded
    try:
        got = banks[0].greedy_walk(0, live, tau, unvisited_first)
        walked = len(counted)
        want = reference_walk(banks[1], 0, live, tau, unvisited_first)
    finally:
        histogram._row_gain = real
    assert got == want
    assert walked == len(counted) - walked
    assert bits(banks[0].row_gain) == bits(banks[1].row_gain)
    assert banks[0].row_gain_at == banks[1].row_gain_at
