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
A sketch's numbers live in a :class:`HistogramBank`: an ``(n_rows, B+1)``
edge matrix and an ``(n_rows, B)`` count matrix, plus per-row mass, cached
gain and the threshold that gain was computed at (``STALE`` when out of
date).  The per-row scalars are Python lists: the scalar path reads one
element at a time, and a list read costs 12-25 ns where indexing an ndarray
builds a numpy scalar for 40-85 ns (a write: 28 against 147).  An
:class:`AdaptiveHistogram` *is* a row of a bank — the policy allocates one
bank for all its nodes, a standalone sketch owns a one-row bank — and the
one place the maintenance arithmetic is written.  Every mutator writes its
row in place and marks it stale; nothing else may write the matrices
(``edges`` and ``counts`` are live row views).

:meth:`HistogramBank.gains` is the one refresh path and
:func:`_gain_matrix` the one place Equation 2 is written.  The kernel costs
~20 us of numpy dispatch whether it sees two rows or sixty, so fewer,
larger calls is the lever; it is row-independent bit for bit
(``tests/test_histogram_bank.py``), so which rows share a call can never
change a gain.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError, SerializationError
from repro.utils.validation import check_positive, check_positive_int


def _overlap_redistribute_scalar(
    old_edges: np.ndarray, old_counts: np.ndarray, new_edges: np.ndarray
) -> np.ndarray:
    """Reference (pre-vectorization) implementation of the redistribution.

    Kept as the oracle for the property tests in
    ``tests/test_histogram_vectorized.py``; the production path is the
    vectorized :func:`_overlap_redistribute` below.
    """
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


def _overlap_redistribute(
    old_edges: np.ndarray, old_counts: np.ndarray, new_edges: np.ndarray
) -> np.ndarray:
    """Redistribute ``old_counts`` onto ``new_edges`` by interval overlap.

    Under the uniform value assumption each old bin's mass is spread evenly
    across its interval, so the mass landing in a new bin is proportional to
    the length of the intersection.  Total mass is conserved whenever the new
    grid covers the old one.

    Vectorized as one (old x new) overlap matrix — no Python inner loops;
    degenerate zero-width old bins are routed as point masses at their left
    border, exactly like the scalar reference.
    """
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


def _gain_matrix(edges: np.ndarray, counts: np.ndarray,
                 threshold: Optional[float]) -> np.ndarray:
    """Row-wise closed-form ``E[Delta_{t,l}]`` for stacked histograms.

    ``edges`` has shape ``(m, B+1)`` and ``counts`` shape ``(m, B)``; one
    gain per row.  This is the single arithmetic path for gain evaluation:
    :meth:`AdaptiveHistogram.expected_marginal_gain` calls it with one row
    and :func:`gain_batch` with many, so both produce identical floats.
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


def gain_batch(sketches: Sequence[object],
               threshold: Optional[float]) -> np.ndarray:
    """Expected marginal gains for a list of sketches.

    Rows of one :class:`HistogramBank` are answered together by its
    :meth:`~HistogramBank.gains`; in a mixed or custom list every sketch
    answers ``expected_marginal_gain`` itself.
    """
    bank = getattr(sketches[0], "_bank", None) if len(sketches) else None
    if bank is not None and all(getattr(sketch, "_bank", None) is bank
                                for sketch in sketches):
        tau = None if threshold is None else float(threshold)
        return np.array(bank.gains([sketch._row for sketch in sketches], tau))
    return np.array([sketch.expected_marginal_gain(threshold)
                     for sketch in sketches], dtype=float)


#: ``row_gain_at`` of a row whose cached gain is out of date.
STALE = object()


class HistogramBank:
    """Struct-of-arrays storage for many adaptive histograms of one shape.

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
        grid = np.linspace(0.0, float(initial_range), n_bins + 1)
        self.n_bins = n_bins
        self.beta = float(beta)
        self.edge_matrix = np.tile(grid, (n_rows, 1))
        self.count_matrix = np.zeros((n_rows, n_bins))
        self.row_rebins = [0] * n_rows
        self.row_extensions = [0] * n_rows
        # Cached scalars of each row's grid: total mass, top border, and the
        # border the Fig. 3a check compares against (+inf: never re-bins).
        self.row_mass = [0.0] * n_rows
        self.row_top = [float(grid[-1])] * n_rows
        self.row_rebin_at = [float(grid[2]) if n_bins >= 3
                             else math.inf] * n_rows
        # row_gain[r] is E[Delta] at threshold row_gain_at[r]; STALE there
        # (equal to no threshold, None included) until first evaluated and
        # after every mutation.
        self.row_gain = [0.0] * n_rows
        self.row_gain_at: List[object] = [STALE] * n_rows
        # Rows a mutation staled, and rows read, since the last refresh.
        self.touched_rows: List[int] = []
        self.read_rows: Set[int] = set()

    def row(self, row: int) -> "AdaptiveHistogram":
        """The sketch bound to ``row`` (a view: it owns no numbers)."""
        sketch = AdaptiveHistogram.__new__(AdaptiveHistogram)
        sketch._bank = self
        sketch._row = row
        return sketch

    def touch(self, row: int) -> None:
        """Mark ``row`` stale; the next :meth:`gains` refresh includes it."""
        if self.row_gain_at[row] is not STALE:
            self.row_gain_at[row] = STALE
            self.touched_rows.append(row)

    def resync(self, row: int) -> None:
        """Re-derive ``row``'s cached scalars after its matrices were rewritten."""
        edges = self.edge_matrix[row]
        self.row_top[row] = float(edges[-1])
        if self.n_bins >= 3:
            self.row_rebin_at[row] = float(edges[2])
        self.row_mass[row] = float(self.count_matrix[row].sum())
        self.touch(row)

    def load(self, row: int, edges: np.ndarray, counts: np.ndarray,
             n_rebins: int, n_extensions: int) -> None:
        """Overwrite ``row`` with a serialized sketch's state."""
        self.edge_matrix[row] = edges
        self.count_matrix[row] = counts
        self.row_rebins[row] = n_rebins
        self.row_extensions[row] = n_extensions
        self.resync(row)

    def adopt(self, row: int, sketch: "AdaptiveHistogram") -> bool:
        """Copy a same-shaped sketch's state into ``row``; False if it differs."""
        if sketch.n_bins != self.n_bins or sketch.beta != self.beta:
            return False
        self.load(row, sketch.edges, sketch.counts, sketch.n_rebins,
                  sketch.n_extensions)
        self.row_mass[row] = sketch.total_mass  # the running sum, bit for bit
        return True

    def gains(self, rows: Sequence[int], tau: Optional[float]) -> List[float]:
        """Gains of ``rows`` at ``tau``; at most one kernel call, often none.

        A refresh takes along the rows mutated since the last one and the
        rows read since the last one that sit at another threshold: after a
        threshold move the next descent mostly re-reads the last one's
        sibling sets, so its first layer pays for all of them.
        """
        at, gain = self.row_gain_at, self.row_gain
        need = [row for row in rows if at[row] != tau]
        if need:
            extra = set(self.touched_rows)
            extra.update(row for row in self.read_rows if at[row] != tau)
            need.extend(extra.difference(need))
            self.touched_rows = []
            self.read_rows = set()
            values = _gain_matrix(self.edge_matrix.take(need, 0),
                                  self.count_matrix.take(need, 0), tau)
            for row, value in zip(need, values.tolist()):
                gain[row] = value
                at[row] = tau
        self.read_rows.update(rows)
        return [gain[row] for row in rows]


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
        """The ``B + 1`` bin borders (a live view of the bank's row)."""
        return self._bank.edge_matrix[self._row]

    @property
    def counts(self) -> np.ndarray:
        """The ``B`` bin masses (a live view of the bank's row)."""
        return self._bank.count_matrix[self._row]

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
        bank, row = self._bank, self._row
        value = float(value)
        if value < 0.0:
            raise ConfigurationError(
                f"scores must be non-negative (opaque top-k setting), got {value!r}"
            )
        if value > bank.row_top[row]:
            self.extend_range(bank.beta * value)
        index = int(bank.edge_matrix[row].searchsorted(value, "right")) - 1
        if index >= bank.n_bins:  # the top border itself, and NaN
            index = bank.n_bins - 1
        elif index < 0:
            index = 0
        bank.count_matrix[row, index] += 1.0
        bank.row_mass[row] += 1.0
        bank.touch(row)

    def add_many(self, values: Iterable[float]) -> None:
        """Record each score of ``values`` in order."""
        for value in values:
            self.add(value)

    def add_batch(self, values: Sequence[float]) -> None:
        """Record a batch of scores, equivalent to ``add`` in sequence.

        Values that fit the current range are binned with one
        ``searchsorted``/``bincount`` pass; range extensions replay the
        sequential semantics exactly (the range grows at the first value
        exceeding the current maximum, to ``beta`` times that value), so the
        result is identical to calling :meth:`add` element by element —
        extensions are geometric-rare, so almost all work is vectorized.
        """
        if not hasattr(values, "__len__"):
            values = np.fromiter(values, dtype=float)
        if len(values) == 1:
            # Degenerate batch: the scalar path is cheaper than array setup
            # and identical by definition (add_batch == sequential adds).
            self.add(float(values[0]))
            return
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size == 0:
            return
        if arr.min() < 0.0:
            bad = float(arr[arr < 0.0][0])
            raise ConfigurationError(
                f"scores must be non-negative (opaque top-k setting), got {bad!r}"
            )
        bank, row = self._bank, self._row
        start = 0
        while start < arr.size:
            # ``> max_range`` (not ``<=``-negation) so NaN counts as fitting,
            # exactly like the scalar add(): NaN never triggers an extension
            # and searchsorted clamps it into the top bin.
            over = arr[start:] > bank.row_top[row]
            if not over.any():
                stop = arr.size
            else:
                # First overflowing value triggers the next range extension.
                stop = start + int(np.argmax(over))
            if stop > start:
                chunk = arr[start:stop]
                indices = bank.edge_matrix[row].searchsorted(chunk, "right") - 1
                np.minimum(indices, bank.n_bins - 1, out=indices)
                np.maximum(indices, 0, out=indices)
                bank.count_matrix[row] += np.bincount(indices,
                                                      minlength=bank.n_bins)
                bank.row_mass[row] += float(chunk.size)
                start = stop
            if start < arr.size:
                self.extend_range(bank.beta * float(arr[start]))
        bank.touch(row)

    def extend_range(self, new_max: float) -> None:
        """Grow the covered range to ``[low, new_max]`` (Fig. 3b).

        The new grid is equal-width; existing mass is redistributed by
        interval overlap under the uniform value assumption.
        """
        bank, row = self._bank, self._row
        if new_max <= bank.row_top[row]:
            return
        edges = bank.edge_matrix[row]
        new_edges = np.linspace(float(edges[0]), float(new_max),
                                bank.n_bins + 1)
        bank.count_matrix[row] = _overlap_redistribute(
            edges, bank.count_matrix[row], new_edges)
        edges[:] = new_edges
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
        edges, counts = bank.edge_matrix[row], bank.count_matrix[row]
        # Merge bins 0 and 1 (concatenate beats np.delete/np.insert here).
        merged_edges = np.concatenate((edges[:1], edges[2:]))
        merged_counts = np.concatenate(([counts[0] + counts[1]], counts[2:]))
        # Split the widest bin above the merged one to restore B bins.
        widths = merged_edges[2:] - merged_edges[1:-1]
        split = 1 + int(np.argmax(widths))
        mid = 0.5 * (merged_edges[split] + merged_edges[split + 1])
        half = merged_counts[split] / 2.0
        edges[:] = np.concatenate(
            (merged_edges[:split + 1], [mid], merged_edges[split + 1:])
        )
        counts[:] = np.concatenate(
            (merged_counts[:split], [half, half], merged_counts[split + 1:])
        )
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
        projected = _overlap_redistribute(other.edges, other.counts, self.edges)
        # Mass of the child falling beyond this sketch's range cannot be
        # located; it is dropped, which the clamp-at-zero rule tolerates.
        self.counts[:] = np.maximum(self.counts - projected, 0.0)
        self._bank.resync(self._row)

    def merge(self, other: "AdaptiveHistogram") -> None:
        """Fold ``other``'s mass into this sketch (used when flattening)."""
        if other.is_empty:
            return
        if other.max_range > self.max_range:
            self.extend_range(other.max_range)
        self.counts[:] += _overlap_redistribute(other.edges, other.counts,
                                                self.edges)
        self._bank.resync(self._row)

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

    def mean_estimate(self) -> float:
        """Mean of the sketched distribution under the uniform value assumption."""
        mass = self.total_mass
        if mass <= 0.0:
            return 0.0
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        return float(np.dot(self.counts / mass, mids))

    def tail_mass(self, threshold: float) -> float:
        """Estimated probability that a sample exceeds ``threshold``."""
        mass = self.total_mass
        if mass <= 0.0:
            return 0.0
        lows = self.edges[:-1]
        highs = self.edges[1:]
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
            tuple(float(edge) for edge in self.edges),
            tuple(float(value) for value in above),
            "linear",
        )

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-safe representation of this sketch."""
        return {
            "n_bins": self.n_bins,
            "beta": self.beta,
            "edges": [float(edge) for edge in self.edges],
            "counts": [float(count) for count in self.counts],
            "n_rebins": self.n_rebins,
            "n_extensions": self.n_extensions,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AdaptiveHistogram":
        """Rebuild a sketch from :meth:`to_dict` output."""
        try:
            edges = np.asarray(payload["edges"], dtype=float)
            counts = np.asarray(payload["counts"], dtype=float)
            n_bins = int(payload["n_bins"])  # type: ignore[arg-type]
            beta = float(payload["beta"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed histogram payload: {exc}") from exc
        if len(edges) != len(counts) + 1 or len(counts) != n_bins:
            raise SerializationError(
                "histogram payload has inconsistent edges/counts lengths"
            )
        sketch = cls(n_bins, 1.0, beta)  # placeholder grid, overwritten
        sketch._bank.load(
            0, edges, counts,
            int(payload.get("n_rebins", 0)),  # type: ignore[arg-type]
            int(payload.get("n_extensions", 0)))  # type: ignore[arg-type]
        return sketch

    def __repr__(self) -> str:
        return (
            f"AdaptiveHistogram(bins={self.n_bins}, range=[{self.edges[0]:.4g}, "
            f"{self.max_range:.4g}], mass={self.total_mass:.4g})"
        )
