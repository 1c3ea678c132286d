"""A row of a many-row bank is a standalone sketch, bit for bit.

``AdaptiveHistogram`` is one class over one layout: the policy's sketches
are rows of a shared :class:`~repro.core.histogram.HistogramBank`, a
standalone sketch is the only row of its own.  These tests drive random
operation sequences against both and require identical ``edges``,
``counts``, ``total_mass``, gains and ``to_dict()`` after every step, with
the neighbouring rows untouched — plus the property that makes "refresh more
rows per kernel call" invisible: ``_gain_matrix`` is row-independent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import (STALE, AdaptiveHistogram, HistogramBank,
                                  _gain_matrix)

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
    st.tuples(st.just("merge"), st.lists(scores, max_size=6)),
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


@settings(max_examples=150, deadline=None)
@given(st.lists(operations, min_size=1, max_size=25))
def test_bank_row_equals_standalone_sketch(ops):
    bank = HistogramBank(N_ROWS, **SHAPE)
    row, alone = bank.row(ROW), AdaptiveHistogram(**SHAPE)
    # Neighbours hold some mass of their own and must never move.
    for neighbour in (ROW - 1, ROW + 1):
        bank.row(neighbour).add_many([0.1, 0.3, 2.0])
    frozen = (bank.edge_matrix.copy(), bank.count_matrix.copy(),
              list(bank.row_mass))
    threshold = None
    for name, argument in ops:
        if name in ("subtract", "merge"):
            getattr(row, name)(other_sketch(argument))
            getattr(alone, name)(other_sketch(argument))
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
    others = [r for r in range(N_ROWS) if r != ROW]
    np.testing.assert_array_equal(bank.edge_matrix[others],
                                  frozen[0][others])
    np.testing.assert_array_equal(bank.count_matrix[others],
                                  frozen[1][others])
    assert [bank.row_mass[r] for r in others] == [frozen[2][r]
                                                  for r in others]


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


def test_a_refresh_takes_mutated_and_reread_rows_along():
    """One kernel call covers the asked rows, every row mutated since the
    last refresh, and rows read since then that sit at another threshold."""
    bank = HistogramBank(6)
    for row in range(6):
        bank.row(row).add_many([0.01 * (row + 1), 0.05])
    assert bank.gains([0, 1], 0.02) == bank.gains([0, 1], 0.02)
    assert bank.row_gain_at[:3] == [0.02, 0.02, STALE]
    bank.row(4).add(0.03)           # never evaluated: not "since a refresh"
    bank.gains([2, 3], 0.02)
    bank.row(2).add(0.07)
    assert bank.row_gain_at[2] is STALE and bank.touched_rows == [2]
    # Threshold moves: asking for row 0 alone refreshes 0 (asked), 2
    # (mutated) and 3 (read since the last refresh, other threshold) —
    # not 1, which was last read before that refresh.
    bank.gains([0], 0.04)
    assert bank.row_gain_at == [0.04, 0.02, 0.04, 0.04, STALE, STALE]
    assert bank.touched_rows == []
    fresh = [AdaptiveHistogram.from_dict(bank.row(row).to_dict())
             .expected_marginal_gain(0.04) for row in (0, 2, 3)]
    assert [bank.row_gain[row] for row in (0, 2, 3)] == fresh
