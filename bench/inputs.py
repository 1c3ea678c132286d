"""Benchmark inputs and the brute-force oracle.

**Inputs.**  ``mix100k`` is the paper's synthetic mixture (Section 5.1.2):
20 generating clusters, per-cluster score law ``max(0, N(mu_c, sigma_c))``,
100 000 rows.  Each row's *feature* vector is its cluster centre plus
noise in ``d = 8`` — the index can find the clusters but learns nothing
about scores from the features.

The table *geometry* (mixture parameters, cluster centres, cluster sizes,
feature rows) is part of the workload definition and never changes: the
k-means + HAC index over it (``index_seed=0``) is therefore the same tree
on every run, so set-up does the same work every time.  ``--seed`` draws
what the program is asked about: the element scores, the rows the live
workload writes, and the order in which query variants are issued.

One cluster is the clear winner (``mu = 20, sigma = 0.3`` against
``mu <= 14, sigma <= 1.5`` elsewhere).  With several near-equal clusters
the bandit settles on a different leaf per random stream, and because
the scalar path costs O(depth) per element the operation time becomes
bimodal (105 ms vs 185 ms measured on an earlier geometry) and
``stk_ratio`` swings 0.69–0.94 — a median over eight variants of such a
distribution does not repeat across seeds.  A clear winner makes both
unimodal, and a small ``sigma`` keeps the exact top-k's sum — the
denominator of ``stk_ratio`` — from moving with the seed (spread over
twelve seeds: 0.39–0.79 % at ``sigma = 1``, 0.21–0.42 % at 0.5).

**Oracle.**  :class:`Oracle` holds the true scores, which the program
never sees (it sees raw element values only through its UDF), mirrors
every live write, and checks each answer by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.builder import IndexConfig

N_ROWS = 100_000
DIM = 8
N_MIXTURE = 20
K = 50
TABLE = "mix"

#: Seeds of the query variants.  Sharded and streaming plans cache one
#: partition index per (seed, workers); the cache holds eight.
QUERY_SEEDS = (11, 23, 37, 41, 53, 67, 79, 83)

_GEOMETRY_SEED = 20250613
_FEATURE_NOISE = 1.0
_CLUSTER_GAP = 8.0


def index_config() -> IndexConfig:
    """32 k-means leaves, Lloyd sweeps capped at 32.

    The cap makes the build do a fixed amount of work (the fit does not
    converge earlier on this geometry): ~2.5 s here, long enough to time
    and short enough to repeat three times per run.
    """
    return IndexConfig(n_clusters=32, max_kmeans_iter=32)


@dataclass(frozen=True)
class Geometry:
    """The fixed part of the table: mixture law and feature rows."""

    mu: np.ndarray          # (20,) score-law means
    sigma: np.ndarray       # (20,) score-law deviations
    centres: np.ndarray     # (20, d) feature-space cluster centres
    cluster: np.ndarray     # (n,) generating cluster of each row
    features: np.ndarray    # (n, d) feature rows


def geometry(n_rows: int = N_ROWS) -> Geometry:
    """Build the fixed geometry for a table of ``n_rows`` rows.

    Clusters are ranked by ``mu`` and laid out along one feature axis
    with nested gaps (neighbours closest, then pairs of neighbours, then
    fours ...), so average-linkage HAC over the k-means centroids yields
    a balanced dendrogram in which the better half at every level holds
    the better clusters — the setting the paper's index is built for.
    """
    rng = np.random.default_rng(_GEOMETRY_SEED)
    mu = np.concatenate([[20.0], np.linspace(14.0, 0.5, N_MIXTURE - 1)])
    sigma = rng.uniform(0.5, 1.5, size=N_MIXTURE)
    sigma[0] = 0.3  # the clear winner: mu = 20, sigma = 0.3
    rank = np.arange(N_MIXTURE)
    axis = _CLUSTER_GAP * (rank + 0.35 * (rank // 2) + 0.7 * (rank // 4)
                           + 1.4 * (rank // 8) + 2.8 * (rank // 16))
    centres = np.zeros((N_MIXTURE, DIM))
    centres[:, 0] = axis
    cluster = np.arange(n_rows) % N_MIXTURE
    features = centres[cluster] + _noise(cluster) * rng.normal(
        size=(n_rows, DIM))
    return Geometry(mu, sigma, centres, cluster, features)


def _noise(cluster: np.ndarray) -> np.ndarray:
    """Feature noise per row, as a column: the winner's cluster is tighter.

    With equal noise k-means split the winner over four leaves at depths
    5–7, and query variants that settled on different ones differed by
    40 % in cost; at half the noise it stays in one leaf.
    """
    return (np.where(cluster == 0, 0.5, 1.0) * _FEATURE_NOISE)[:, np.newaxis]


@dataclass
class TableInputs:
    """One generated table: what is registered with the program."""

    ids: List[str]
    values: List[float]      # the elements; the UDF maps value -> score
    features: np.ndarray


def make_table(seed: int, n_rows: int = N_ROWS) -> TableInputs:
    """The ``mix`` table for ``seed``: fixed geometry, seeded values."""
    geo = geometry(n_rows)
    rng = np.random.default_rng([seed, 1])
    values = rng.normal(geo.mu[geo.cluster], geo.sigma[geo.cluster])
    ids = [f"r{row:07d}" for row in range(n_rows)]
    return TableInputs(ids, values.tolist(), geo.features)


class WriteStream:
    """Seeded live writes: fresh mixture rows, updates and deletes.

    Rows come from the same mixture as the table (uniform over the 20
    clusters), so appended data keeps the table's shape.  Victims of
    updates and deletes are drawn from the ids the stream knows to be
    live; the caller reports nothing back.
    """

    def __init__(self, seed: int, table: TableInputs) -> None:
        self._rng = np.random.default_rng([seed, 2])
        self._geo = geometry(N_MIXTURE)  # law and centres only
        self._live = list(table.ids)
        self._next_row = len(table.ids)

    def _rows(self, count: int) -> Tuple[List[float], np.ndarray]:
        cluster = self._rng.integers(0, N_MIXTURE, size=count)
        values = self._rng.normal(self._geo.mu[cluster],
                                  self._geo.sigma[cluster])
        features = self._geo.centres[cluster] + _noise(
            cluster) * self._rng.normal(size=(count, DIM))
        return values.tolist(), features

    def append(self, count: int) -> Tuple[List[str], List[float],
                                          np.ndarray]:
        ids = [f"r{row:07d}"
               for row in range(self._next_row, self._next_row + count)]
        self._next_row += count
        self._live.extend(ids)
        values, features = self._rows(count)
        return ids, values, features

    def _victims(self, count: int) -> List[int]:
        return sorted(self._rng.choice(len(self._live), size=count,
                                       replace=False).tolist())

    def update(self, count: int) -> Tuple[List[str], List[float],
                                          np.ndarray]:
        ids = [self._live[position] for position in self._victims(count)]
        values, features = self._rows(count)
        return ids, values, features

    def delete(self, count: int) -> List[str]:
        positions = self._victims(count)
        ids = [self._live[position] for position in positions]
        for position in reversed(positions):
            del self._live[position]
        return ids


def variant_order(seed: int, variants: Sequence,
                  caller: int = 0) -> Iterator:
    """Endless seeded order over ``variants``, in shuffled whole cycles.

    Whole cycles keep every window's mix of variants balanced, so a
    median over operations is not pulled by which variants it happened
    to contain.  Concurrent callers each take their own ``caller``
    stream.
    """
    rng = np.random.default_rng([seed, 3, caller])
    while True:
        for position in rng.permutation(len(variants)):
            yield variants[int(position)]


class Oracle:
    """True scores by brute force; mirrors writes version by version."""

    def __init__(self, table: TableInputs) -> None:
        self._score: Dict[str, float] = {
            element_id: max(0.0, value)
            for element_id, value in zip(table.ids, table.values)}

    # -- live writes ---------------------------------------------------------

    def append(self, ids: Sequence[str], values: Sequence[float]) -> None:
        for element_id, value in zip(ids, values):
            self._score[element_id] = max(0.0, value)

    update = append

    def delete(self, ids: Sequence[str]) -> None:
        for element_id in ids:
            del self._score[element_id]

    # -- checks --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._score)

    def exact_topk(self, k: int = K) -> np.ndarray:
        """The ``k`` highest true scores, best first."""
        scores = np.fromiter(self._score.values(), dtype=float,
                             count=len(self._score))
        k = min(k, len(scores))
        return np.sort(np.partition(scores, len(scores) - k)[-k:])[::-1]

    def violations(self, items: Sequence[Sequence], *, k: int = K,
                   exhaustive: bool = False,
                   budget: Optional[int] = None,
                   spent: Optional[int] = None,
                   slack: int = 0) -> List[str]:
        """Everything wrong with one answer (empty list = correct).

        ``items`` are ``(id, score)`` rows.  An answer must be ``k``
        distinct known ids, each with exactly its true score, best
        first; an ``exhaustive`` answer must be the exact top-k.
        ``spent`` must reach ``budget`` and overshoot it by at most
        ``slack`` (the engines' documented final-batch crossing).
        """
        found: List[str] = []
        try:
            ids = [str(row[0]) for row in items]
            scores = [float(row[1]) for row in items]
        except (TypeError, ValueError, IndexError) as exc:
            return [f"malformed answer: {exc!r}"]
        if len(ids) != k:
            found.append(f"{len(ids)} rows, expected {k}")
        if len(set(ids)) != len(ids):
            found.append("duplicate id")
        for element_id, score in zip(ids, scores):
            truth = self._score.get(element_id)
            if truth is None:
                found.append(f"unknown id {element_id!r}")
            elif truth != score:
                found.append(f"wrong score for {element_id!r}: "
                             f"{score!r}, true {truth!r}")
        if any(later > earlier
               for earlier, later in zip(scores, scores[1:])):
            found.append("not best first")
        if exhaustive and not found:
            if not np.array_equal(np.asarray(scores), self.exact_topk(k)):
                found.append("exhaustive answer is not the exact top-k")
        if budget is not None and spent is not None:
            if not budget <= spent <= budget + slack:
                found.append(f"budget_spent {spent}, requested {budget} "
                             f"(slack {slack})")
        return found[:5]

    def stk_ratio(self, items: Sequence[Sequence], k: int = K) -> float:
        """STK(answer) / STK(exact top-k) from the true scores."""
        answer = sum(self._score.get(str(row[0]), 0.0) for row in items)
        return answer / float(self.exact_topk(k).sum())
