"""Adaptive histogram sketches — Section 3.2.4 and Figure 3 of the paper.

Each bandit arm models its unknown score distribution with an
:class:`AdaptiveHistogram`.  The sketch stores bin borders and per-bin
counts, starts as an empty equi-width histogram over ``[0, alpha]``, and
supports the paper's three maintenance operations, all under the
*uniform value assumption* (mass is uniformly distributed within a bin):

* **Range extension** (Fig. 3b): when a sampled score exceeds the current
  maximum range, the range grows to ``[low, beta * score]`` with
  ``beta >= 1`` slightly overestimating the new maximum, and existing mass
  is redistributed onto the new equal-width grid.
* **Lowest-bin extension / re-binning** (Fig. 3a): once the running
  solution's threshold ``(S)_(k)`` passes the upper border of the second
  lowest bin, the two lowest bins are merged (they carry no useful
  distinction any more) and the widest high bin is split in two, shifting
  resolution toward the upper tail where it matters.
* **Subtraction** (Fig. 3c): when an exhausted child cluster is dropped
  from the tree, its histogram is subtracted from each ancestor's.  Bins
  that would go negative are clamped to zero, as the paper prescribes.

The sketch also evaluates the expected marginal STK gain ``E[Delta_{t,l}]``
of Equation 2 in closed form under the uniform value assumption, which is
what the epsilon-greedy bandit maximizes during exploitation.

Layout: one bank, many rows
---------------------------
A sketch's numbers live in a :class:`HistogramBank`: per row, a list of
``B + 1`` edge floats and a list of ``B`` count floats (``row_edges`` /
``row_counts``), plus mass, top border, cached gain and the threshold that
gain was computed at (``STALE`` when out of date).  Everything is a Python
list because the hot path is narrow: at ``BATCH 1`` a select reads a few
sibling rows and an observation folds one score into each row of one path,
and at that width a numpy call is all dispatch (20-38 us a call whether
it sees two rows or sixty) while a list read costs 12-25 ns.  An
:class:`AdaptiveHistogram` *is* a row of a bank — the policy allocates
one bank for all its nodes, a standalone sketch owns a one-row bank —
and the one place the maintenance arithmetic is written.  Every mutator
rewrites its row and marks it stale; nothing else may write the rows
(``edges`` and ``counts`` are copies).  Batch folding, range extension,
subtraction and merging are Python floats too: at ``BATCH 8`` or ``64``
a path row's fold is a sort shared by the path and ``B - 1`` bisections,
where numpy made ten calls to bin a few dozen floats.  Each performs the
IEEE operations of the numpy code it replaced in that code's order, so
the floats are the same (``tests/test_batch_fold.py`` keeps that code as
the oracle).

Equation 2 is one function, :func:`_row_gain`: one row in Python floats
with numpy's summation order (unrolled for ``B = 8``), bit for bit the
stacked numpy kernel it replaced (``tests/test_histogram_bank.py`` keeps
that kernel as the oracle).  One refresh serves
:meth:`HistogramBank.best_rows` — a descent's layer: the rows within
``1e-15`` of the best gain — and :meth:`HistogramBank.gains`: it
evaluates only the asked rows that are stale, once each.  A greedy
descent is one call, :meth:`HistogramBank.greedy_walk`: it takes every
layer with a unique best child (two children compared in place, a wider
layer through ``best_rows``) and hands back only the layers where the
policy's generator must draw — an unvisited child, or a tie.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SerializationError
from repro.utils.validation import (check_positive, check_positive_int,
                                    check_scores)


def _grid(start: float, stop: float, n_bins: int) -> List[float]:
    """``np.linspace(start, stop, n_bins + 1).tolist()``, bit for bit.

    numpy's arithmetic in Python floats: edge ``i`` is ``i * step + start``
    with ``step = (stop - start) / n_bins`` (``i / n_bins * delta + start``
    when that step underflows to zero), and the last edge is ``stop``.
    """
    delta = stop - start
    step = delta / n_bins
    if step == 0.0:
        grid = [i / n_bins * delta + start for i in range(n_bins)]
    else:
        grid = [i * step + start for i in range(n_bins)]
    grid.append(stop)
    return grid


def _overlap_redistribute(old_edges: Sequence[float],
                          old_counts: Sequence[float],
                          new_edges: Sequence[float]) -> List[float]:
    """Redistribute ``old_counts`` onto ``new_edges`` by interval overlap.

    Under the uniform value assumption each old bin's mass is spread evenly
    across its interval, so the mass landing in a new bin is proportional to
    the length of the intersection.  Total mass is conserved whenever the new
    grid covers the old one.  A degenerate zero-width old bin is a point
    mass at its border, landing in the new bin that holds it.

    Python floats in the order of the numpy (old x new) overlap matrix
    this replaced: each new bin sums ``count * overlap / width`` over the
    old bins in order, then the point masses are added in order.
    """
    n_new = len(new_edges) - 1
    new_counts = [0.0] * n_new
    points = []
    for count, low, high in zip(old_counts, old_edges, old_edges[1:]):
        if not count > 0.0:
            continue
        width = high - low
        if not width > 0.0:
            points.append((low, count))
            continue
        # New bins left of the one holding ``low`` end at or below it.
        j = bisect_right(new_edges, low) - 1
        if j < 0:
            j = 0
        while j < n_new:
            new_low, new_high = new_edges[j], new_edges[j + 1]
            if new_low >= high:
                break
            overlap = ((high if high < new_high else new_high)
                       - (low if low > new_low else new_low))
            if overlap > 0.0:
                new_counts[j] += count * overlap / width
            j += 1
    last = n_new - 1
    for low, count in points:
        slot = bisect_right(new_edges, low) - 1
        new_counts[last if slot > last else 0 if slot < 0 else slot] += count
    return new_counts


def _add_sorted(edges: List[float], counts: List[float],
                ordered: List[float]) -> List[float]:
    """``counts`` plus the per-bin tally of the ascending scores ``ordered``.

    A score's bin is numpy's ``searchsorted(edges, score, "right") - 1``
    clipped to ``[0, B - 1]`` (the top border joins the last bin), so the
    scores below interior edge ``j`` fill bins ``0 .. j - 1``: one
    ``bisect_left`` per interior edge gives every bin's tally, and each
    bin takes one ``count + tally`` — the floats of
    ``counts + np.bincount(bins)``.
    """
    folded = []
    below = 0
    for count, edge in zip(counts, edges[1:-1]):
        at = bisect_left(ordered, edge, below)
        folded.append(count + (at - below))
        below = at
    folded.append(counts[-1] + (len(ordered) - below))
    return folded


def _pairwise_sum(values: Sequence[float]) -> float:
    """``np.add.reduce`` of one contiguous float64 row, bit for bit.

    numpy adds the row's pairwise sum to its identity ``0.0`` (so a sum of
    ``-0.0`` terms reads ``0.0``): fewer than eight values left to right,
    up to 128 in eight interleaved partial sums combined pairwise with the
    rest added after, longer rows as two halves split at a multiple of 8.
    """
    n = len(values)
    if n == 8:
        t0, t1, t2, t3, t4, t5, t6, t7 = values
        return ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)) + 0.0
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    stop = n - n % 8
    partial = list(values[:8])
    for start in range(8, stop, 8):
        partial = [a + b for a, b in zip(partial, values[start:start + 8])]
    t0, t1, t2, t3, t4, t5, t6, t7 = partial
    total = ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)) + 0.0
    for value in values[stop:]:
        total += value
    return total


def _row_gain(edges: List[float], counts: List[float],
              tau: Optional[float]) -> float:
    """Closed-form ``E[Delta_{t,l}]`` of one row of Python floats.

    The IEEE operations of the numpy kernel this replaced, in its order:
    both sums follow numpy's (:func:`_pairwise_sum`), and each bin takes
    the term ``np.where`` would pick — at or below ``tau`` the mean
    excess, straddling it the uniform tail, above it nothing.

    ``B = 8``, the paper's default, has its own form: the same operations
    with the loops and both sums unrolled, and no division for a ``tau``
    above the top border (or NaN), where every term is ``0.0``.  At the
    top border itself a zero-width top bin still takes the mean-excess
    term, so that case takes the unrolled path.
    """
    if len(counts) == 8:
        c0, c1, c2, c3, c4, c5, c6, c7 = counts
        e0, e1, e2, e3, e4, e5, e6, e7, e8 = edges
        if tau is not None and not tau <= e8:
            return 0.0
        m = ((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7)) + 0.0
        if not m > 0.0:
            m = 1.0
        if tau is None:
            return (((c0 / m * (0.5 * (e0 + e1)) + c1 / m * (0.5 * (e1 + e2)))
                     + (c2 / m * (0.5 * (e2 + e3))
                        + c3 / m * (0.5 * (e3 + e4))))
                    + ((c4 / m * (0.5 * (e4 + e5))
                        + c5 / m * (0.5 * (e5 + e6)))
                       + (c6 / m * (0.5 * (e6 + e7))
                          + c7 / m * (0.5 * (e7 + e8)))) + 0.0)
        t = tau
        # Bin j: mean excess at or above tau, uniform tail straddling it
        # (a straddled bin has positive width: no 1.0 stands in for it).
        t0 = (c0 / m * (0.5 * (e0 + e1) - t) if t <= e0 else
              c0 / m * ((e1 - t) * (e1 - t)) / (2.0 * (e1 - e0))
              if t < e1 else 0.0)
        t1 = (c1 / m * (0.5 * (e1 + e2) - t) if t <= e1 else
              c1 / m * ((e2 - t) * (e2 - t)) / (2.0 * (e2 - e1))
              if t < e2 else 0.0)
        t2 = (c2 / m * (0.5 * (e2 + e3) - t) if t <= e2 else
              c2 / m * ((e3 - t) * (e3 - t)) / (2.0 * (e3 - e2))
              if t < e3 else 0.0)
        t3 = (c3 / m * (0.5 * (e3 + e4) - t) if t <= e3 else
              c3 / m * ((e4 - t) * (e4 - t)) / (2.0 * (e4 - e3))
              if t < e4 else 0.0)
        t4 = (c4 / m * (0.5 * (e4 + e5) - t) if t <= e4 else
              c4 / m * ((e5 - t) * (e5 - t)) / (2.0 * (e5 - e4))
              if t < e5 else 0.0)
        t5 = (c5 / m * (0.5 * (e5 + e6) - t) if t <= e5 else
              c5 / m * ((e6 - t) * (e6 - t)) / (2.0 * (e6 - e5))
              if t < e6 else 0.0)
        t6 = (c6 / m * (0.5 * (e6 + e7) - t) if t <= e6 else
              c6 / m * ((e7 - t) * (e7 - t)) / (2.0 * (e7 - e6))
              if t < e7 else 0.0)
        t7 = (c7 / m * (0.5 * (e7 + e8) - t) if t <= e7 else
              c7 / m * ((e8 - t) * (e8 - t)) / (2.0 * (e8 - e7))
              if t < e8 else 0.0)
        return ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)) + 0.0
    mass = _pairwise_sum(counts)
    if not mass > 0.0:
        mass = 1.0
    bins = zip(counts, edges, edges[1:])
    if tau is None:
        return _pairwise_sum([count / mass * (0.5 * (low + high))
                              for count, low, high in bins])
    return _pairwise_sum([
        count / mass * (0.5 * (low + high) - tau) if tau <= low
        else count / mass * ((high - tau) * (high - tau))
        / (2.0 * (high - low if high - low > 0.0 else 1.0)) if tau < high
        else 0.0
        for count, low, high in bins])


#: ``row_gain_at`` of a row whose cached gain is out of date.
STALE = object()


class HistogramBank:
    """Struct-of-lists storage for many adaptive histograms of one shape.

    Rows start empty and equi-width over ``[0, initial_range]``; the module
    docstring has the layout and the staleness contract.
    """

    def __init__(self, n_rows: int, n_bins: int = 8,
                 initial_range: float = 0.1, beta: float = 1.1) -> None:
        check_positive_int(n_bins, "n_bins")
        if n_bins < 2:
            raise ConfigurationError(f"n_bins must be >= 2, got {n_bins}")
        check_positive(initial_range, "initial_range")
        if not 1.0 <= beta <= 2.0:
            raise ConfigurationError(f"beta must lie in [1, 2], got {beta!r}")
        grid = _grid(0.0, float(initial_range), n_bins)
        self.n_bins = n_bins
        self.beta = float(beta)
        self.row_edges = [list(grid) for _ in range(n_rows)]
        self.row_counts = [[0.0] * n_bins for _ in range(n_rows)]
        self.row_rebins = [0] * n_rows
        self.row_extensions = [0] * n_rows
        # Cached scalars of each row's grid: total mass, top border, and the
        # border the Fig. 3a check compares against (+inf: never re-bins).
        self.row_mass = [0.0] * n_rows
        self.row_top = [grid[-1]] * n_rows
        self.row_rebin_at = [grid[2] if n_bins >= 3 else math.inf] * n_rows
        # row_gain[r] is E[Delta] at threshold row_gain_at[r]; STALE there
        # (equal to no threshold, None included) until first evaluated and
        # after every mutation.
        self.row_gain = [0.0] * n_rows
        self.row_gain_at: List[object] = [STALE] * n_rows

    def row(self, row: int) -> "AdaptiveHistogram":
        """The sketch bound to ``row`` (a view: it owns no numbers)."""
        sketch = AdaptiveHistogram.__new__(AdaptiveHistogram)
        sketch._bank = self
        sketch._row = row
        return sketch

    def resync(self, row: int) -> None:
        """Re-derive ``row``'s cached scalars after its lists were rewritten."""
        edges = self.row_edges[row]
        self.row_top[row] = edges[-1]
        if self.n_bins >= 3:
            self.row_rebin_at[row] = edges[2]
        self.row_mass[row] = _pairwise_sum(self.row_counts[row])
        self.row_gain_at[row] = STALE

    def load(self, row: int, edges: Iterable[float], counts: Iterable[float],
             n_rebins: int, n_extensions: int) -> None:
        """Overwrite ``row`` with a serialized sketch's state."""
        self.row_edges[row] = [float(edge) for edge in edges]
        self.row_counts[row] = [float(count) for count in counts]
        self.row_rebins[row] = n_rebins
        self.row_extensions[row] = n_extensions
        self.resync(row)

    def adopt(self, row: int, sketch: "AdaptiveHistogram") -> bool:
        """Copy a same-shaped sketch's state into ``row``; False if it differs."""
        if sketch.n_bins != self.n_bins or sketch.beta != self.beta:
            return False
        bank, other = sketch._bank, sketch._row
        self.load(row, bank.row_edges[other], bank.row_counts[other],
                  sketch.n_rebins, sketch.n_extensions)
        self.row_mass[row] = sketch.total_mass  # the running sum, bit for bit
        return True

    def gains(self, rows: Sequence[int], tau: Optional[float]) -> List[float]:
        """Gains of ``rows`` at ``tau``, evaluating only the stale ones.

        A row is stale after a mutation and when its cached gain is for
        another threshold.  No other row is evaluated ahead of time: one
        :func:`_row_gain` per stale row.
        """
        self._refresh(rows, tau)
        gain = self.row_gain
        return [gain[row] for row in rows]

    def best_rows(self, rows: Sequence[int], tau: Optional[float]) -> List[int]:
        """The ``rows`` whose gain at ``tau`` is within ``1e-15`` of the
        best, in the order given: one layer of a greedy descent.

        The refresh of :meth:`gains`, then the maximum and its ties over
        the cached gains, as ``max`` and one comprehension.
        """
        self._refresh(rows, tau)
        gain = self.row_gain
        values = [gain[row] for row in rows]
        floor = max(values) - 1e-15
        return [row for row, value in zip(rows, values) if value >= floor]

    def greedy_walk(self, row: int, live: Sequence[Sequence[int]],
                    tau: Optional[float], unvisited_first: bool
                    ) -> Tuple[int, Optional[List[int]]]:
        """Descend from ``row`` through ``live`` (per row, its candidate
        children) while each layer has one best child at ``tau``.

        Each layer is the layer :meth:`best_rows` would answer, with its
        stale rows refreshed the same way; a unique best is stepped into.
        The walk stops at, and returns, the first row where the caller
        must decide:

        * ``(row, None)`` — ``row`` has no candidates (a leaf, or
          exhaustion), or, with ``unvisited_first``, one of its candidates
          holds no mass (no gain is evaluated at that layer);
        * ``(row, tied)`` — two or more candidates within ``1e-15`` of the
          best gain, in the order given.

        Two candidates — every layer of a binary dendrogram — are refreshed
        and compared without building a list.
        """
        at, gain, mass = self.row_gain_at, self.row_gain, self.row_mass
        edges, counts = self.row_edges, self.row_counts
        while True:
            candidates = live[row]
            if len(candidates) == 2:
                first, second = candidates
                if unvisited_first and (mass[first] <= 0.0
                                        or mass[second] <= 0.0):
                    return row, None
                if at[first] != tau:
                    gain[first] = _row_gain(edges[first], counts[first], tau)
                    at[first] = tau
                if at[second] != tau:
                    gain[second] = _row_gain(edges[second], counts[second],
                                             tau)
                    at[second] = tau
                one, two = gain[first], gain[second]
                if one >= two:  # max() keeps the first of equals
                    if two >= one - 1e-15:
                        return row, [first, second]
                    row = first
                elif one >= two - 1e-15:
                    return row, [first, second]
                else:
                    row = second
                continue
            if not candidates:
                return row, None
            if unvisited_first:
                for child in candidates:
                    if mass[child] <= 0.0:
                        return row, None
            tied = self.best_rows(candidates, tau)
            if len(tied) > 1:
                return row, tied
            row = tied[0]

    def _refresh(self, rows: Sequence[int], tau: Optional[float]) -> None:
        """Evaluate the stale ones of ``rows`` at ``tau`` into the cache."""
        at, gain = self.row_gain_at, self.row_gain
        edges, counts = self.row_edges, self.row_counts
        for row in rows:
            if at[row] != tau:
                gain[row] = _row_gain(edges[row], counts[row], tau)
                at[row] = tau

    def fold(self, path: Sequence[int], scores: Sequence[float],
             tau: Optional[float]) -> None:
        """Record a batch of scores in every row of ``path``.

        Per row, in order: the Fig. 3a check against ``tau`` (``None``: no
        re-bin), then the scores.  One score goes to the bin holding it,
        after a range extension if it lies above the row's range.  A wider
        batch is sorted once; a row whose range covers its largest score
        takes it in one pass (:func:`_add_sorted`), any other row in
        arrival-order chunks, extending the range where one ``add`` per
        score would.  A bin's count takes its tally in one addition.
        """
        top, rebin_at, stale = self.row_top, self.row_rebin_at, self.row_gain_at
        edges, counts, mass = self.row_edges, self.row_counts, self.row_mass
        size = len(scores)
        if size == 1:
            value = float(scores[0])
            if not 0.0 <= value < math.inf:
                check_scores((value,))  # raises, before any row changes
            last = self.n_bins - 1
            for row in path:
                if tau is not None and tau > rebin_at[row]:
                    self.row(row).maybe_extend_lowest(tau)
                if value > top[row]:
                    self.row(row).extend_range(self.beta * value)
                index = bisect_right(edges[row], value) - 1
                if index > last:  # the top border itself
                    index = last
                elif index < 0:
                    index = 0
                counts[row][index] += 1.0
                mass[row] += 1.0
                stale[row] = STALE
            return
        if not size:
            return
        ordered = sorted(scores)
        # A NaN makes the sum NaN (and the order meaningless); a sum that
        # overflows finite scores is re-checked one by one.
        if not (0.0 <= ordered[0] and sum(ordered) < math.inf):
            check_scores(scores)  # raises, before any row changes
        high = ordered[-1]
        for row in path:
            if tau is not None and tau > rebin_at[row]:
                self.row(row).maybe_extend_lowest(tau)
            if high > top[row]:
                self._fold_chunks(row, scores)
            else:
                counts[row] = _add_sorted(edges[row], counts[row], ordered)
                mass[row] += size
            stale[row] = STALE

    def _fold_chunks(self, row: int, scores: Sequence[float]) -> None:
        """Fold ``scores`` into ``row`` up to each score above its range,
        extending the range there (to ``beta`` times that score)."""
        start, size = 0, len(scores)
        while start < size:
            top, stop = self.row_top[row], start
            while stop < size and scores[stop] <= top:
                stop += 1
            if stop > start:
                self.row_counts[row] = _add_sorted(
                    self.row_edges[row], self.row_counts[row],
                    sorted(scores[start:stop]))
                self.row_mass[row] += stop - start
                start = stop
            if start < size:
                self.row(row).extend_range(self.beta * scores[start])


class AdaptiveHistogram:
    """Histogram sketch of one arm's score distribution (a row of a bank).

    Parameters
    ----------
    n_bins:
        Number of buckets ``B`` (paper default: 8).
    initial_range:
        Initial maximum ``alpha``; the histogram starts equi-width over
        ``[0, alpha]`` (paper default: 0.1).
    beta:
        Range-extension overestimation factor in ``[1, 2]`` (default 1.1).
    """

    __slots__ = ("_bank", "_row")

    def __init__(self, n_bins: int = 8, initial_range: float = 0.1,
                 beta: float = 1.1) -> None:
        self._bank = HistogramBank(1, n_bins, initial_range, beta)
        self._row = 0

    # -- basic accessors ------------------------------------------------------

    n_bins = property(lambda self: self._bank.n_bins)
    beta = property(lambda self: self._bank.beta)
    n_rebins = property(lambda self: self._bank.row_rebins[self._row])
    n_extensions = property(lambda self: self._bank.row_extensions[self._row])

    @property
    def edges(self) -> np.ndarray:
        """The ``B + 1`` bin borders (a copy of the bank's row)."""
        return np.array(self._bank.row_edges[self._row])

    @property
    def counts(self) -> np.ndarray:
        """The ``B`` bin masses (a copy of the bank's row)."""
        return np.array(self._bank.row_counts[self._row])

    @property
    def total_mass(self) -> float:
        """Total (possibly fractional, after maintenance) sample mass."""
        return self._bank.row_mass[self._row]

    @property
    def is_empty(self) -> bool:
        """True iff the sketch holds no mass."""
        return self._bank.row_mass[self._row] <= 0.0

    @property
    def max_range(self) -> float:
        """Current upper border of the highest bin."""
        return self._bank.row_top[self._row]

    def copy(self) -> "AdaptiveHistogram":
        """Return an independent deep copy of this sketch (its own bank)."""
        clone = AdaptiveHistogram(self.n_bins, 1.0, self.beta)  # placeholder
        clone._bank.adopt(0, self)
        return clone

    # -- updates ---------------------------------------------------------------

    def add(self, value: float) -> None:
        """Record one observed score, auto-extending the range if needed."""
        self._bank.fold((self._row,), (value,), None)

    def add_many(self, values: Iterable[float]) -> None:
        """Record each score of ``values`` in order."""
        for value in values:
            self.add(value)

    def add_batch(self, values: Iterable[float]) -> None:
        """Record a batch of scores, like ``add`` in sequence.

        ``values`` is flattened first (a ``(1, n)`` input is ``n`` scores),
        then folded by the bank's :meth:`~HistogramBank.fold`: the range
        grows where element-by-element ``add`` would grow it, at the first
        value above the current maximum, to ``beta`` times that value.
        """
        if not hasattr(values, "__len__"):
            values = list(values)
        flat = np.asarray(values, dtype=float).reshape(-1).tolist()
        self._bank.fold((self._row,), flat, None)

    def extend_range(self, new_max: float) -> None:
        """Grow the covered range to ``[low, new_max]`` (Fig. 3b).

        The new grid is equal-width; existing mass is redistributed by
        interval overlap under the uniform value assumption.
        """
        bank, row = self._bank, self._row
        if new_max <= bank.row_top[row]:
            return
        edges = bank.row_edges[row]
        new_edges = _grid(edges[0], float(new_max), bank.n_bins)
        bank.row_counts[row] = _overlap_redistribute(
            edges, bank.row_counts[row], new_edges)
        bank.row_edges[row] = new_edges
        bank.row_extensions[row] += 1
        bank.resync(row)

    def maybe_extend_lowest(self, threshold: float | None) -> bool:
        """Apply the Fig. 3a re-binning if ``threshold`` passed bin 2's border.

        When the running solution's ``(S)_(k)`` exceeds the upper border of
        the *second* lowest bin, the two lowest bins no longer carry useful
        distinction: they are merged, and the widest remaining bin above the
        merge point is split in half (splitting its mass evenly, per the
        uniform value assumption) so the bucket budget ``B`` is preserved and
        resolution shifts toward the tail.  Returns True iff a re-bin happened.
        """
        bank, row = self._bank, self._row
        # One float compare on the hot path: row_rebin_at is edges[2].
        if threshold is None or threshold <= bank.row_rebin_at[row]:
            return False
        edges, counts = bank.row_edges[row], bank.row_counts[row]
        # Merge bins 0 and 1.
        edges = edges[:1] + edges[2:]
        counts = [counts[0] + counts[1]] + counts[2:]
        # Split the widest bin above the merged one (the first of equals)
        # to restore B bins.
        widths = [high - low for low, high in zip(edges[1:], edges[2:])]
        split = 1 + widths.index(max(widths))
        mid = 0.5 * (edges[split] + edges[split + 1])
        half = counts[split] / 2.0
        bank.row_edges[row] = edges[:split + 1] + [mid] + edges[split + 1:]
        bank.row_counts[row] = counts[:split] + [half, half] + counts[split + 1:]
        bank.row_rebins[row] += 1
        bank.resync(row)
        return True

    def subtract(self, other: "AdaptiveHistogram") -> None:
        """Remove ``other``'s mass from this sketch (Fig. 3c).

        The child's mass is projected onto this histogram's grid by interval
        overlap, then subtracted; any bin that would become negative is
        clamped to zero ("we always round up the histogram's bin counts to
        zero if they become negative").
        """
        if other.is_empty:
            return
        bank, row = self._bank, self._row
        projected = _overlap_redistribute(other._bank.row_edges[other._row],
                                          other._bank.row_counts[other._row],
                                          bank.row_edges[row])
        # Mass of the child falling beyond this sketch's range cannot be
        # located; it is dropped, which the clamp-at-zero rule tolerates.
        left = [count - drop
                for count, drop in zip(bank.row_counts[row], projected)]
        bank.row_counts[row] = [count if count > 0.0 else 0.0
                                for count in left]
        bank.resync(row)

    # -- queries ---------------------------------------------------------------

    def expected_marginal_gain(self, threshold: float | None) -> float:
        """Closed-form ``E[Delta_{t,l}]`` of Equation 2 under the sketch.

        With ``X`` uniform on a bin ``[a, b)`` holding probability ``p``:

        * ``threshold <= a``  ->  ``p * ((a + b)/2 - threshold)``
        * ``threshold >= b``  ->  0
        * otherwise           ->  ``p * (b - threshold)^2 / (2 (b - a))``

        ``threshold=None`` (solution not yet full) means every score is pure
        gain, so the estimate is the sketch's mean.  An empty sketch scores 0.

        Served by the bank's one refresh (:meth:`HistogramBank.gains`): a
        mutation stales the row and a moved threshold misses the cached one,
        so repeated evaluations between observations are a list read.
        """
        tau = None if threshold is None else float(threshold)
        return self._bank.gains((self._row,), tau)[0]

    def tail_mass(self, threshold: float) -> float:
        """Estimated probability that a sample exceeds ``threshold``."""
        mass = self.total_mass
        if mass <= 0.0:
            return 0.0
        edges = self.edges
        lows = edges[:-1]
        highs = edges[1:]
        widths = np.where(highs - lows > 0.0, highs - lows, 1.0)
        frac_above = np.clip((highs - threshold) / widths, 0.0, 1.0)
        return float(np.dot(self.counts / mass, frac_above))

    def survival_curve(self) -> Tuple[Tuple[float, ...], Tuple[float, ...], str]:
        """Breakpoints of ``tau -> tail_mass(tau)`` for the bound layer.

        Under the uniform-in-bin assumption the tail mass is piecewise
        *linear* in the threshold with breakpoints exactly at the bin
        edges, so ``(edges, tail_mass at each edge, "linear")`` lets
        :class:`repro.core.convergence.TailSummary` reproduce
        :meth:`tail_mass` exactly by interpolation.
        """
        mass = self.total_mass
        if mass <= 0.0:
            return (), (), "linear"
        above = np.concatenate(
            (np.cumsum(self.counts[::-1])[::-1], [0.0])
        ) / mass
        return (
            tuple(self._bank.row_edges[self._row]),
            tuple(float(value) for value in above),
            "linear",
        )

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-safe representation of this sketch."""
        bank, row = self._bank, self._row
        return {
            "n_bins": self.n_bins,
            "beta": self.beta,
            "edges": list(bank.row_edges[row]),
            "counts": list(bank.row_counts[row]),
            "n_rebins": self.n_rebins,
            "n_extensions": self.n_extensions,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AdaptiveHistogram":
        """Rebuild a sketch from :meth:`to_dict` output.

        A payload no sketch could hold is a :class:`SerializationError`:
        ``n_bins < 2``, ``beta`` outside ``[1, 2]``, lengths that disagree,
        non-finite or decreasing edges (zero-width bins are legal), and
        negative or non-finite counts.
        """
        try:
            edges = [float(edge) for edge in payload["edges"]]  # type: ignore[union-attr]
            counts = [float(count) for count in payload["counts"]]  # type: ignore[union-attr]
            n_bins = int(payload["n_bins"])  # type: ignore[arg-type]
            beta = float(payload["beta"])  # type: ignore[arg-type]
            n_rebins = int(payload.get("n_rebins", 0))  # type: ignore[arg-type]
            n_extensions = int(payload.get("n_extensions", 0))  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError, OverflowError,
                AttributeError) as exc:
            raise SerializationError(f"malformed histogram payload: {exc}") from exc
        if n_bins < 2:
            problem = f"n_bins must be >= 2, found {n_bins}"
        elif not 1.0 <= beta <= 2.0:
            problem = f"beta must lie in [1, 2], found {beta!r}"
        elif len(edges) != n_bins + 1 or len(counts) != n_bins:
            problem = "inconsistent edges/counts lengths"
        elif (not all(map(math.isfinite, edges))
              or any(high < low for low, high in zip(edges, edges[1:]))):
            problem = f"edges must be finite and non-decreasing, found {edges}"
        elif not all(math.isfinite(count) and count >= 0.0
                     for count in counts):
            problem = f"counts must be finite and non-negative, found {counts}"
        else:
            sketch = cls(n_bins, 1.0, beta)  # placeholder grid, overwritten
            sketch._bank.load(0, edges, counts, n_rebins, n_extensions)
            return sketch
        raise SerializationError(f"malformed histogram payload: {problem}")

    def __repr__(self) -> str:
        bank, row = self._bank, self._row
        return (
            f"AdaptiveHistogram(bins={self.n_bins}, "
            f"range=[{bank.row_edges[row][0]:.4g}, {self.max_range:.4g}], "
            f"mass={self.total_mass:.4g})"
        )
