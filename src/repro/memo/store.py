"""Cross-query score memo: per-table store, per-UDF views, write-back.

One :class:`MemoStore` maps to one immutable registered table.  Inside
it, scores are keyed by ``(udf fingerprint, element id)`` — the
fingerprint (:mod:`repro.memo.fingerprint`) isolates UDFs from each
other, the element id is the table's own identity — so no element is
ever scored twice across queries against the same ``(table, udf)``
pair, whatever engine or backend ran them.

The store is concurrency-safe (one re-entrant lock guards every read
and write): inline shard workers on the ``thread`` backend may consult
it from many threads, and a future multi-tenant session will share one
store across concurrent queries.  Process children never touch it —
they receive a frozen per-shard dict in their
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

Live tables add a version dimension.  The store tracks, per element id,
the latest ``table_version`` that rewrote the element's features
(:meth:`MemoStore.apply_writes` — called by the table binding when it
reconciles a mutable table's write log).  A write both evicts the
element's memoized scores and stamps ``last_write[id]``; from then on a
reader pinned to an *older* snapshot can neither be served a score
computed against the newer features (its lookups miss) nor poison the
store with a score computed against the older ones (its records are
dropped).  Memo hits are therefore only ever served for the table
version that produced them.  Appends of brand-new ids evict nothing, so
standing queries keep every hit for unchanged elements.  No stamp is
ever above ``table_version``, so a reader at the newest reconciled
version — every query a live binding pins — reads and records with no
per-id check.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SerializationError
from repro.persist import NULL, NUMBER, read, read_score

_FORMAT = "repro-memo/1"


def _stored_scores(fingerprint: str, shard) -> Dict[str, float]:
    """One fingerprint's ``{id: score}`` of a memo payload, checked."""
    if not isinstance(shard, dict):
        raise SerializationError(
            f"expected {_FORMAT} scores as {{id: score}} per fingerprint, "
            f"found a {type(shard).__name__} under {fingerprint!r}")
    stored = {}
    for element_id, value in shard.items():
        score = read_score(value)
        if not 0.0 <= score < math.inf:
            raise SerializationError(
                f"expected {_FORMAT} scores that are finite non-negative "
                f"numbers, found {value!r} for {element_id!r} under "
                f"{fingerprint!r}")
        stored[str(element_id)] = score
    return stored


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
        #: fingerprint -> {element id -> score}
        self._scores: Dict[str, Dict[str, float]] = {}
        #: element id -> latest table_version that rewrote its features
        self._last_write: Dict[str, int] = {}
        #: highest table_version reconciled into this store
        self.table_version = 0
        self.hits = 0
        self.misses = 0

    # -- views ---------------------------------------------------------------

    def view(self, fingerprint: str,
             reader_version: Optional[int] = None) -> "MemoView":
        """The per-UDF view the engines consume (creates the shard lazily).

        ``reader_version`` pins the view to one table snapshot: lookups
        miss on (and records are dropped for) any element rewritten
        after that version.  ``None`` means the table is immutable.
        """
        with self._lock:
            self._scores.setdefault(fingerprint, {})
        return MemoView(self, fingerprint, reader_version=reader_version)

    # -- live-table reconciliation -------------------------------------------

    def apply_writes(self, changed_ids: Iterable[str], version: int) -> None:
        """Fold one committed write batch into the store.

        Evicts every memoized score for ``changed_ids`` (a no-op for
        brand-new ids) and stamps their last-write version, so stale
        snapshots can neither hit on nor re-record those elements.
        """
        version = int(version)
        with self._lock:
            for element_id in changed_ids:
                element_id = str(element_id)
                for shard in self._scores.values():
                    shard.pop(element_id, None)
                self._last_write[element_id] = version
            if version > self.table_version:
                self.table_version = version

    def _current(self, reader_version: Optional[int]) -> bool:
        """Whether every stamp is at or below ``reader_version``, so no
        id needs :meth:`_valid_for` (no stamp exceeds ``table_version``).
        """
        return (reader_version is None or reader_version >= self.table_version
                or not self._last_write)

    def _valid_for(self, element_id: str, reader_version: int) -> bool:
        return self._last_write.get(element_id, 0) <= reader_version

    # -- introspection -------------------------------------------------------

    def fingerprints(self) -> List[str]:
        """Fingerprints with at least one memoized score."""
        with self._lock:
            return [fp for fp, shard in self._scores.items() if shard]

    def n_entries(self, fingerprint: Optional[str] = None) -> int:
        """Memoized scores for one fingerprint (or across all of them)."""
        with self._lock:
            if fingerprint is not None:
                return len(self._scores.get(fingerprint, ()))
            return sum(len(shard) for shard in self._scores.values())

    def expected_hit_rate(self, fingerprint: str,
                          ids: Optional[Sequence[str]] = None,
                          n_candidates: Optional[int] = None) -> float:
        """Fraction of the candidate set already memoized for this UDF.

        With an explicit ``ids`` subset (``WHERE`` pushdown) the overlap
        is counted exactly; otherwise ``n_candidates`` scales the shard's
        size.  This is what ``EXPLAIN`` reports — an upper bound on the
        run's actual hit rate, since a budgeted run may not draw every
        memoized element.
        """
        with self._lock:
            shard = self._scores.get(fingerprint)
            if not shard:
                return 0.0
            if ids is not None:
                if not ids:
                    return 0.0
                return sum(1 for element_id in ids
                           if element_id in shard) / len(ids)
            if not n_candidates:
                return 0.0
            return min(1.0, len(shard) / n_candidates)

    def stats(self) -> Dict[str, object]:
        """Counters snapshot: hits, misses, entries, per-UDF shard sizes."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": sum(len(s) for s in self._scores.values()),
                "udfs": {fp: len(shard)
                         for fp, shard in self._scores.items() if shard},
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
            self._scores.clear()

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe payload of every memoized score."""
        with self._lock:
            payload = {
                "format": _FORMAT,
                "scores": {fp: dict(shard)
                           for fp, shard in self._scores.items() if shard},
            }
            if self.table_version:
                payload["table_version"] = self.table_version
            if self._last_write:
                payload["last_write"] = dict(self._last_write)
            return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MemoStore":
        """Rebuild a store from :meth:`to_dict` output.

        Refuses a payload with a ``last_write`` stamp above its
        ``table_version``: :meth:`apply_writes` never leaves one, and the
        store's current-reader fast path relies on that.  A stamp must be
        an integral number (not a bool), and a score a finite non-negative
        number: the memo must never serve a score ``observe()`` refuses.
        """
        read(payload, _FORMAT, scores=(dict, NULL),
             table_version=(int, NULL), last_write=(dict, NULL))
        store = cls()
        scores = payload.get("scores") or {}
        store._scores = {fingerprint: _stored_scores(fingerprint, shard)
                         for fingerprint, shard in scores.items()}
        store.table_version = payload.get("table_version") or 0
        last_write = payload.get("last_write") or {}
        store._last_write = {str(element_id): _stamp(element_id, version)
                             for element_id, version in last_write.items()}
        newest = max(store._last_write.values(), default=0)
        if newest > store.table_version:
            # A reader at table_version would skip the stamp check and be
            # served a score computed before that write.
            raise SerializationError(
                f"expected {_FORMAT} with every last_write stamp at most "
                f"its table_version {store.table_version}, found {newest}")
        return store

    # -- internal (MemoView plumbing) ----------------------------------------

    def _lookup(self, fingerprint: str, ids: Sequence[str],
                reader_version: Optional[int] = None,
                ) -> Tuple[List[Optional[float]], List[int]]:
        with self._lock:
            shard = self._scores.get(fingerprint, {})
            if self._current(reader_version):
                scores: List[Optional[float]] = [shard.get(element_id)
                                                 for element_id in ids]
            else:
                scores = [shard.get(element_id)
                          if self._valid_for(element_id, reader_version)
                          else None
                          for element_id in ids]
            misses = [position for position, value in enumerate(scores)
                      if value is None]
            self.hits += len(ids) - len(misses)
            self.misses += len(misses)
            return scores, misses

    def _record(self, fingerprint: str,
                pairs: Iterable[Tuple[str, float]],
                reader_version: Optional[int] = None) -> None:
        with self._lock:
            shard = self._scores.setdefault(fingerprint, {})
            current = self._current(reader_version)
            for element_id, score in pairs:
                if current or self._valid_for(element_id, reader_version):
                    shard[element_id] = float(score)

    def _snapshot(self, fingerprint: str,
                  reader_version: Optional[int] = None) -> Dict[str, float]:
        with self._lock:
            shard = self._scores.get(fingerprint, ())
            if self._current(reader_version):
                return dict(shard)
            return {element_id: score
                    for element_id, score in shard.items()
                    if self._valid_for(element_id, reader_version)}


class MemoView:
    """A :class:`MemoStore` bound to one UDF fingerprint.

    This is the object the engines thread through execution: it exposes
    exactly the lookup / record / snapshot surface a coordinator needs
    and nothing else, so an engine can never cross UDF shards.
    """

    def __init__(self, store: MemoStore, fingerprint: str,
                 reader_version: Optional[int] = None) -> None:
        self.store = store
        self.fingerprint = str(fingerprint)
        #: Table snapshot this view reads/writes against (None = immutable).
        self.reader_version = reader_version

    def __len__(self) -> int:
        return self.store.n_entries(self.fingerprint)

    def lookup(self, ids: Sequence[str],
               ) -> Tuple[List[Optional[float]], List[int]]:
        """``(scores-with-None-at-misses, miss positions)`` for a batch."""
        return self.store._lookup(self.fingerprint, ids,
                                  self.reader_version)

    def record(self, ids: Sequence[str],
               scores: Sequence[float]) -> None:
        """Memoize freshly computed scores (id-aligned)."""
        values = np.asarray(scores, dtype=float).reshape(-1).tolist()
        self.store._record(self.fingerprint, zip(ids, values),
                           self.reader_version)

    def record_pairs(self, pairs: Iterable[Tuple[str, float]]) -> None:
        """Memoize ``(id, score)`` pairs — the coordinator write-back."""
        self.store._record(self.fingerprint, pairs, self.reader_version)

    def count(self, hits: int, misses: int) -> None:
        """Report shard-observed hit/miss totals (coordinator write-back)."""
        self.store.count(hits, misses)

    def snapshot(self) -> Dict[str, float]:
        """Frozen copy of this UDF's memo (what ships to shard specs)."""
        return self.store._snapshot(self.fingerprint, self.reader_version)
