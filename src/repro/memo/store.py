"""Cross-query score memo: per-table store, per-UDF views, write-back.

One :class:`MemoStore` serves one registered table.  Inside it, each
UDF fingerprint (:mod:`repro.memo.fingerprint`, which isolates UDFs
from each other) owns one float64 array over the table's *rows*, NaN
where a row is not scored, so no element is ever scored twice across
queries against the same ``(table, udf)`` pair, whatever engine or
backend ran them.

Rows inside, ids at the boundary.  A store that follows a table
(:meth:`MemoStore.follow`, which the table binding calls with the
snapshot it reconciles) numbers its rows as the table does: a static
table's rows are its ids in order, a live table's are the block rows
its snapshot's ``row_ids`` list names.  The single engine draws those
rows and looks its batches up by row (:meth:`MemoView.lookup_rows` /
:meth:`MemoView.record_rows`); everyone else — shard slices, the
coordinators' write-back, ``EXPLAIN``, persistence — speaks ids
(:meth:`MemoView.lookup` / :meth:`MemoView.record`), which a view reads
through the snapshot it was pinned to.  A store that follows no table
(a shard's slice, a restored payload, a scratch store) numbers ids
itself, in the order they are first recorded.

The row rule (live tables).  A live write never rewrites a row: an
update writes the element's new features to a new row and a delete
retires its row.  So a score recorded for a row is right for every
reader that can see that row, whatever version it pinned: a reader
pinned before an update of ``x`` reads ``x``'s old row and its score,
one pinned after reads the new row, which misses until it is scored.
Appends add rows and evict nothing.  Nothing is stamped or checked per
id.  A compaction moves the live rows into fresh storage:
:meth:`MemoStore.follow` carries every array through the commit's old
-> new row map (:attr:`~repro.live.table.WriteDelta.remap`), dropping
the dead rows, and a view pinned to a snapshot of the older storage
(whose ``row_ids`` is not the store's) misses and records nothing — a
miss only costs a UDF call again, never an answer.  Per fingerprint the
store holds 8 bytes a row in use, dead rows included until the next
compaction; no view of an array ever leaves the store, so an array
grows in place (``ndarray.resize``).

The store is concurrency-safe (one re-entrant lock guards every read
and write): a session's forks and inline shard workers on the
``thread`` backend consult it from many threads.  Process children
never touch it — they receive a frozen per-shard dict in their
:class:`~repro.parallel.worker.ShardSpec` and report fresh scores back
through :attr:`~repro.parallel.worker.RoundOutcome.fresh_scores`, which
the coordinator records at merge time (children stay read-only).

Transparency contract (the bit-identity backbone, pinned by
``tests/test_score_memo.py``): a memo hit replaces only the *real UDF
invocation*.  Engine accounting — draws, RNG consumption, ``n_scored``,
and the virtual-clock charge of the full ``batch_cost`` — is identical
to a cold run, so cached answers are bit-identical by construction and
the savings appear where they are real: UDF call counts and wall clock.
This also requires UDFs to be *element-wise pure*: an element's score
must not depend on its batch-mates (every scorer in
:mod:`repro.scoring` qualifies).

The ``repro-memo/1`` document lists scores by id.  Its ``last_write``
stamps (ids rewritten at a version, from the id-keyed store this one
replaced) are still checked on load — integral, at most the document's
``table_version`` — and written back unchanged; no lookup reads them.
"""

from __future__ import annotations

import math
import threading
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.errors import ConfigurationError, SerializationError
from repro.persist import NULL, NUMBER, read, read_score

_FORMAT = "repro-memo/1"


def _checked(fingerprint: str, values: Sequence,
             name_of: Callable[[int], str]) -> List[float]:
    """``values`` as floats, if each is a score ``observe()`` accepts.

    The error is the one :meth:`MemoStore.from_dict` raises, naming the
    id ``name_of(position)``: the memo never holds, nor writes, a score
    its own reader refuses (and NaN is the arrays' "not scored").
    """
    if all(type(value) is float and 0.0 <= value < math.inf
           for value in values):
        return values
    scores = [read_score(value) for value in values]
    for position, score in enumerate(scores):
        if not 0.0 <= score < math.inf:
            raise SerializationError(
                f"expected {_FORMAT} scores that are finite non-negative "
                f"numbers, found {values[position]!r} for "
                f"{name_of(position)!r} under {fingerprint!r}")
    return scores


def _stored_scores(fingerprint: str, shard) -> Tuple[List[str], List[float]]:
    """One fingerprint's ids and scores of a memo payload, checked."""
    if not isinstance(shard, dict):
        raise SerializationError(
            f"expected {_FORMAT} scores as {{id: score}} per fingerprint, "
            f"found a {type(shard).__name__} under {fingerprint!r}")
    element_ids = [str(element_id) for element_id in shard]
    return element_ids, _checked(fingerprint, list(shard.values()),
                                 element_ids.__getitem__)


def _stamp(element_id: str, version) -> int:
    """A ``last_write`` stamp of a memo payload: an integral number."""
    if (isinstance(version, NUMBER) and not isinstance(version, bool)
            and (isinstance(version, int) or version.is_integer())):
        return int(version)
    raise SerializationError(
        f"expected {_FORMAT} last_write stamps that are integral numbers, "
        f"found {version!r} for {element_id!r}")


class MemoStore:
    """Thread-safe score memo for one table, keyed by UDF fingerprint."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: fingerprint -> each row's score, NaN where not scored
        self._scores: Dict[str, np.ndarray] = {}
        #: fingerprint -> rows scored (the array's non-NaN entries)
        self._filled: Dict[str, int] = {}
        #: row -> id: the followed table's ``row_ids``, else the store's own
        self._names: List[str] = []
        #: id -> row of a store that follows no table (``None`` once it does)
        self._own: Optional[Dict[str, int]] = {}
        #: the snapshot last followed
        self._table = None
        #: version of the snapshot last followed
        self.table_version = 0
        self.hits = 0
        self.misses = 0
        #: a loaded document's ``last_write`` stamps, written back as read
        self._stamps: Dict[str, int] = {}

    # -- views ---------------------------------------------------------------

    def view(self, fingerprint: str, rows=None) -> "MemoView":
        """The per-UDF view the engines consume (creates the array lazily).

        ``rows`` is the table snapshot the reader pinned (default: the
        last one followed): the view reads ids through it, and its rows
        are those of that snapshot's storage.
        """
        with self._lock:
            scores = self._array(fingerprint)
            table = self._table if rows is None else rows
            if table is None:
                return MemoView(self, fingerprint, None, self._names)
            space = table.row_ids
            if space is self._names and len(scores) < len(space):
                # Every row the reader can draw is in range.
                self._grow(fingerprint, len(space))
            return MemoView(self, fingerprint, table, space)

    # -- following a table ---------------------------------------------------

    def follow(self, table, remaps: Iterable[np.ndarray] = ()) -> None:
        """Number rows as ``table`` (a table snapshot) does from now on.

        ``remaps`` are the old -> new row maps of the compactions since
        the last call, in log order: each array is carried through them.
        Only a store that numbered no id of its own starts following.
        """
        with self._lock:
            if self._own:
                raise ConfigurationError(
                    "a memo store that keys scores by its own ids cannot "
                    "follow a table")
            self._own = None
            for remap in remaps:
                n_rows = int(np.count_nonzero(remap >= 0))
                for fingerprint, scores in self._scores.items():
                    target = remap[:len(scores)]
                    kept = target >= 0
                    moved = np.full(n_rows, math.nan)
                    moved[target[kept]] = scores[:len(target)][kept]
                    self._scores[fingerprint] = moved
                    self._filled[fingerprint] = int(
                        np.count_nonzero(~np.isnan(moved)))
            self._names, self._table = table.row_ids, table
            self.table_version = int(table.version)

    # -- introspection -------------------------------------------------------

    def fingerprints(self) -> List[str]:
        """Fingerprints with at least one memoized score."""
        with self._lock:
            return [fp for fp, filled in self._filled.items() if filled]

    def n_entries(self, fingerprint: Optional[str] = None) -> int:
        """Memoized scores for one fingerprint (or across all of them);
        a live table's dead rows count until the next compaction."""
        with self._lock:
            if fingerprint is not None:
                return self._filled.get(fingerprint, 0)
            return sum(self._filled.values())

    def stats(self) -> Dict[str, object]:
        """Counters snapshot: hits, misses, entries, per-UDF entry counts."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": sum(self._filled.values()),
                "udfs": {fp: filled
                         for fp, filled in self._filled.items() if filled},
            }

    def count(self, hits: int, misses: int) -> None:
        """Fold externally observed hits/misses into the counters.

        Shard workers consult a *frozen copy* of the memo (never this
        store), so the coordinator reports their hit/miss totals here at
        merge time to keep ``stats()`` meaningful across backends.
        """
        with self._lock:
            self.hits += int(hits)
            self.misses += int(misses)

    def clear(self) -> None:
        """Drop every memoized score (counters are kept)."""
        with self._lock:
            for fingerprint, scores in self._scores.items():
                scores.fill(math.nan)
                self._filled[fingerprint] = 0

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe payload of every memoized score, by id: a followed
        table's live ids at the snapshot last followed."""
        with self._lock:
            scores = {fp: self._scored(self._table, fp)
                      for fp in self._scores}
            payload = {"format": _FORMAT,
                       "scores": {fp: scored for fp, scored in scores.items()
                                  if scored}}
            if self.table_version:
                payload["table_version"] = self.table_version
            if self._stamps:
                payload["last_write"] = dict(self._stamps)
            return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MemoStore":
        """Rebuild a store from :meth:`to_dict` output.

        Refuses a payload with a ``last_write`` stamp above its
        ``table_version``, or one that is not an integral number (a bool
        included), and a score that is not a finite non-negative number:
        the memo must never serve a score ``observe()`` refuses.
        """
        read(payload, _FORMAT, scores=(dict, NULL),
             table_version=(int, NULL), last_write=(dict, NULL))
        store = cls()
        for fingerprint, shard in (payload.get("scores") or {}).items():
            element_ids, scores = _stored_scores(fingerprint, shard)
            store._array(fingerprint)
            store._put(fingerprint, store._own_rows(element_ids), scores)
        store.table_version = payload.get("table_version") or 0
        last_write = payload.get("last_write") or {}
        store._stamps = {str(element_id): _stamp(element_id, version)
                         for element_id, version in last_write.items()}
        newest = max(store._stamps.values(), default=0)
        if newest > store.table_version:
            raise SerializationError(
                f"expected {_FORMAT} with every last_write stamp at most "
                f"its table_version {store.table_version}, found {newest}")
        return store

    # -- internal (MemoView plumbing) ----------------------------------------

    def _array(self, fingerprint: str) -> np.ndarray:
        """One fingerprint's array, created empty on first use."""
        scores = self._scores.get(fingerprint)
        if scores is None:
            scores = self._scores[fingerprint] = np.full(0, math.nan)
            self._filled[fingerprint] = 0
        return scores

    def _grow(self, fingerprint: str, n_rows: int) -> np.ndarray:
        """The array, grown in place to ``n_rows`` with NaN."""
        scores = self._scores[fingerprint]
        have = len(scores)
        scores.resize(n_rows, refcheck=False)
        scores[have:] = math.nan
        return scores

    def _own_rows(self, element_ids: Sequence[str]) -> List[int]:
        """Rows of ids in a store that follows no table, new ids numbered
        at the end."""
        own, names = self._own, self._names
        rows = []
        for element_id in element_ids:
            row = own.get(element_id)
            if row is None:
                row = own[element_id] = len(names)
                names.append(element_id)
            rows.append(row)
        return rows

    def _gather(self, fingerprint: str, rows: Sequence[int]) -> np.ndarray:
        """The scores of ``rows`` (NaN at -1 and past the array)."""
        scores = self._array(fingerprint)
        index = np.asarray(rows, dtype=np.intp)
        inside = (index >= 0) & (index < len(scores))
        if inside.all():
            return scores[index]
        got = np.full(len(index), math.nan)
        got[inside] = scores[index[inside]]
        return got

    def _count(self, looked: int, misses: int) -> None:
        self.hits += looked - misses
        self.misses += misses

    def _put(self, fingerprint: str, rows: Sequence[int],
             scores: Sequence[float]) -> None:
        """Write checked scores at rows (-1 skipped), growing the array."""
        if min(rows, default=0) < 0:
            pairs = [(row, score) for row, score in zip(rows, scores)
                     if row >= 0]
            rows = [row for row, _ in pairs]
            scores = [score for _, score in pairs]
        if not rows:
            return
        array = self._scores[fingerprint]
        top = max(rows)
        if top >= len(array):
            array = self._grow(fingerprint, max(top + 1, len(self._names)))
        was = np.isnan(array[rows]).tolist()
        array[rows] = scores
        self._filled[fingerprint] += len(
            {row for row, empty in zip(rows, was) if empty})

    def _scored(self, table, fingerprint: str) -> Dict[str, float]:
        """One fingerprint's ``{id: score}``, in row order: with
        ``table``, only the rows it reads (a live table's dead rows and
        the rows written after it skipped)."""
        names, scores = self._names, self._scores[fingerprint]
        scored = ~np.isnan(scores)
        if table is not None:
            scored = scored[:len(table.block)]
            if len(table.block) != len(table):
                live = np.zeros(len(table.block), dtype=bool)
                live[table.live_rows()] = True
                scored &= live[:len(scored)]
        rows = np.flatnonzero(scored).tolist()
        return dict(zip(map(names.__getitem__, rows), scores[rows].tolist()))


class MemoView:
    """A :class:`MemoStore` bound to one UDF fingerprint and one reader.

    This is the object the engines thread through execution: it exposes
    exactly the lookup / record / snapshot surface a coordinator needs
    and nothing else, so an engine can never cross UDF shards.  ``table``
    is the snapshot the reader pinned (``None`` for a store that follows
    no table) and ``space`` the list its rows index: ``space[row]`` is a
    row's id, and an engine whose tree slots index the same list looks
    its draws up by row.
    """

    def __init__(self, store: MemoStore, fingerprint: str, table,
                 space: Sequence[str]) -> None:
        self.store = store
        self.fingerprint = str(fingerprint)
        self.table = table
        self.space = space

    def __len__(self) -> int:
        return self.store.n_entries(self.fingerprint)

    def _same_storage(self) -> bool:
        """Whether this reader's rows are the store's (no compaction
        since its snapshot)."""
        return self.space is self.store._names

    def _rows(self, ids: Sequence[str]) -> List[int]:
        """Rows of ``ids`` for this reader (-1: an id a store that
        follows no table has not numbered; a table's stranger raises)."""
        if self.table is None:
            own = self.store._own
            return [own.get(element_id, -1) for element_id in ids]
        return self.table.rows_of(ids)

    # -- by row (the single engine) ------------------------------------------

    def lookup_rows(self, rows: Sequence[int]
                    ) -> Tuple[List[float], List[int]]:
        """``(scores, miss positions)`` for rows of :attr:`space`; a
        miss reads NaN."""
        store = self.store
        with store._lock:
            if self._same_storage():
                # In range: the view grew the array to its storage's rows.
                got = store._scores[self.fingerprint][rows]
                scores = got.tolist()
                misses = np.flatnonzero(np.isnan(got)).tolist()
            else:
                scores = [math.nan] * len(rows)
                misses = list(range(len(rows)))
            store._count(len(rows), len(misses))
        return scores, misses

    def record_rows(self, rows: Sequence[int],
                    scores: Sequence[float]) -> None:
        """Memoize freshly computed scores, row-aligned; dropped if the
        table compacted since this reader's snapshot."""
        store = self.store
        checked = _checked(self.fingerprint, scores,
                           lambda position: self.space[rows[position]])
        with store._lock:
            if self._same_storage():
                store._put(self.fingerprint, rows, checked)

    # -- by id (the boundary) ------------------------------------------------

    def lookup(self, ids: Sequence[str],
               ) -> Tuple[List[Optional[float]], List[int]]:
        """``(scores-with-None-at-misses, miss positions)`` for a batch."""
        store = self.store
        rows = self._rows(ids)
        with store._lock:
            if self.table is None or self._same_storage():
                got = store._gather(self.fingerprint, rows)
            else:
                got = np.full(len(rows), math.nan)
            misses = np.flatnonzero(np.isnan(got)).tolist()
            store._count(len(rows), len(misses))
        scores: List[Optional[float]] = got.tolist()
        for position in misses:
            scores[position] = None
        return scores, misses

    def record(self, ids: Sequence[str], scores: Sequence[float]) -> None:
        """Memoize freshly computed scores (id-aligned)."""
        values = (scores.reshape(-1).tolist()
                  if isinstance(scores, np.ndarray) else list(scores))
        self.record_pairs(zip(ids, values))

    def record_pairs(self, pairs: Iterable[Tuple[str, float]]) -> None:
        """Memoize ``(id, score)`` pairs — the coordinator write-back."""
        pairs = list(pairs)
        ids = [str(element_id) for element_id, _ in pairs]
        checked = _checked(self.fingerprint, [score for _, score in pairs],
                           ids.__getitem__)
        store = self.store
        with store._lock:
            if self.table is None:
                rows = store._own_rows(ids)
            elif self._same_storage():
                rows = self._rows(ids)
            else:
                return
            store._put(self.fingerprint, rows, checked)

    def expected_hit_rate(self, ids: Optional[Sequence[str]] = None,
                          n_candidates: Optional[int] = None) -> float:
        """Fraction of the candidate set already memoized for this UDF.

        With an explicit ``ids`` subset (``WHERE`` pushdown) the overlap
        is counted exactly, through this reader's snapshot; otherwise
        ``n_candidates`` scales the fingerprint's entry count.  This is
        what ``EXPLAIN`` reports — an upper bound on the run's actual
        hit rate, since a budgeted run may not draw every memoized
        element.
        """
        store = self.store
        with store._lock:
            filled = store._filled.get(self.fingerprint, 0)
            if not filled:
                return 0.0
            if ids is not None:
                if not ids or not (self.table is None
                                   or self._same_storage()):
                    # A reader of storage compacted since misses.
                    return 0.0
                scores = store._gather(self.fingerprint, self._rows(ids))
                return int(np.count_nonzero(~np.isnan(scores))) / len(ids)
            if not n_candidates:
                return 0.0
            return min(1.0, filled / n_candidates)

    def count(self, hits: int, misses: int) -> None:
        """Report shard-observed hit/miss totals (coordinator write-back)."""
        self.store.count(hits, misses)

    def snapshot(self) -> Dict[str, float]:
        """Frozen ``{id: score}`` copy of this UDF's memo, as this
        reader sees it (what ships to shard specs)."""
        store = self.store
        with store._lock:
            if self.table is not None and not self._same_storage():
                return {}
            return store._scored(self.table, self.fingerprint)
