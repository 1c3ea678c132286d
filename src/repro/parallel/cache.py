"""Cross-run cache of per-shard partitions and partition indexes.

Sharded (round-based) and streaming runs over the same table rebuild
identical per-partition artefacts whenever they share the partitioning
inputs: partitions are dealt by
``RngFactory(root_entropy).named("partition")`` and each shard's index is
built from ``named(f"index:{w}")`` over the partition's features, so both
are pure functions of ``(root entropy, worker count, index config)`` for a
fixed immutable dataset.  :class:`ShardIndexCache` memoizes the
``(partitions, indexes)`` pair under exactly that key, letting a repeat
query skip the shuffle and every per-shard k-means fit — the ROADMAP's
"sharded runs rebuild per-partition indexes at start" open item.

Sharing rules
-------------
* One cache maps to one immutable dataset.  The session layer keeps one
  cache per registered table; library users who share a cache across
  engines must do the same.
* A cache hit is **bit-identical** to a rebuild: each named RNG stream
  is a generator of its own, so skipping the ``partition`` / ``index:{w}``
  draws never perturbs the ``engine:{w}`` streams.
* Indexes are harvested only from backends whose workers live in the
  coordinator process (``serial``/``thread``); the ``process`` backend's
  indexes are born in child processes and are never reached into.  A warm
  cache still *serves* every backend via
  :attr:`~repro.parallel.worker.ShardSpec.prebuilt_index` (the tree is
  picklable, so it ships to children instead of being rebuilt there).
* Entries are LRU-bounded (default 8) because fresh-entropy runs
  (``seed=None``) can never hit and would otherwise grow the cache without
  bound.

The cluster tree is read-only at query time — the bandit policy
(:mod:`repro.core.hierarchical`) mirrors it into nodes of its own and its
arms copy their member lists — so one cached index may back many
concurrent engines.

The cache itself is **concurrency-safe**: one lock guards the LRU map
and the hit/miss counters, because the multi-tenant service
(:mod:`repro.service`) shares one cache per table across every in-flight
query's coordinator thread.  Without the lock, a ``get`` racing an
evicting ``put`` can ``KeyError`` inside ``move_to_end`` (the entry it
just saw evaporates mid-touch) — ``tests/test_service.py`` hammers
exactly that interleaving.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from repro.index.builder import IndexConfig
from repro.index.tree import ClusterTree

#: (root_entropy, n_workers, index-config fingerprint, n_elements,
#:  candidate-subset fingerprint — "" when the whole table runs,
#:  table_version — 0 for immutable datasets)
CacheKey = Tuple[int, int, str, int, str, int]

#: (partitions, per-worker indexes), id-aligned with worker order.
CacheEntry = Tuple[List[List[str]], List[ClusterTree]]


def subset_fingerprint(ids: Optional[Sequence[str]]) -> str:
    """Stable fingerprint of a candidate-id subset (WHERE pushdown).

    ``""`` when there is no filter; otherwise a digest of the ordered id
    list, so two queries whose predicates select the same candidates (in
    the same table order) share cached partitions and indexes.  Each id
    is length-prefixed before hashing — ids are arbitrary user strings,
    so no join character could be collision-free.
    """
    if ids is None:
        return ""
    digest = hashlib.sha256()
    for element_id in ids:
        encoded = element_id.encode("utf-8")
        digest.update(len(encoded).to_bytes(4, "big"))
        digest.update(encoded)
    return digest.hexdigest()[:16]


def shard_cache_key(root_entropy: int, n_workers: int,
                    index_config: Optional[IndexConfig],
                    n_elements: int,
                    subset: str = "",
                    table_version: int = 0) -> CacheKey:
    """The full determinism fingerprint of one sharded index build.

    ``table_version`` keys live-table builds: a committed write changes
    the dataset, so partitions/indexes built at version ``v`` must never
    serve a query pinned at ``v+1`` (and vice versa).  Immutable
    datasets stay at 0.
    """
    return (int(root_entropy), int(n_workers), repr(index_config),
            int(n_elements), str(subset), int(table_version))


class ShardIndexCache:
    """LRU cache of ``(partitions, shard indexes)`` keyed by build inputs."""

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize!r}")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        # Guards the LRU map and both counters: concurrent sessions (the
        # multi-tenant service) share one cache per table.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> Optional[CacheEntry]:
        """Fetch (and LRU-touch) an entry; count the hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: CacheKey, partitions: List[List[str]],
            indexes: List[ClusterTree]) -> None:
        """Store one build, evicting the least recently used beyond capacity."""
        if len(partitions) != len(indexes):
            raise ValueError(
                f"{len(partitions)} partitions for {len(indexes)} indexes"
            )
        entry = ([list(p) for p in partitions], list(indexes))
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def evict_stale(self, table_version: int) -> int:
        """Drop entries built against any *other* table version.

        Called by the table binding when it reconciles a live table's write
        log: stale-version partitions could only serve queries pinned to
        versions that no longer plan, so holding them just squeezes live
        entries out of the LRU.  Returns the number of entries dropped.
        """
        table_version = int(table_version)
        with self._lock:
            stale = [key for key in self._entries
                     if key[5] != table_version]
            for key in stale:
                del self._entries[key]
            return len(stale)
