"""Warm-start priors: carry learned bandit state across queries.

The score memo (:mod:`repro.memo.store`) removes *repeat UDF calls*; this
module removes *repeat learning*.  After a run, every bandit node's
adaptive histogram summarizes what the engine learned about its
subtree's score distribution.  :func:`harvest_priors` captures those
histograms (JSON-safe, via
:meth:`~repro.core.histogram.AdaptiveHistogram.to_dict`);
:func:`apply_priors` preloads them into a fresh engine before its first
draw, so the epsilon-greedy descent starts from yesterday's posterior
instead of uniform ignorance — the grown-up version of the
incremental-mean warm start in SNIPPETS.md's EpsilonGreedy.

:class:`PriorStore` is the per-table registry, keyed by
``(udf fingerprint, scope)``.  The *scope* pins everything that shapes
node identity and content: the single-engine scope embeds the WHERE
subset fingerprint (a restricted tree keeps node ids but changes leaf
membership), and shard scopes embed worker id, worker count, root
entropy, and subset — priors never cross structurally different trees.

**Warm-starting is opt-in and is NOT bit-identical** — that is its
point: preloaded histograms steer the very first descents, so a
warm-started run explores differently (usually better) than a cold one.
The bit-identity guarantee of the differential matrix covers the score
memo only; ``warm_start=True`` trades exact reproducibility for a
smarter start, deterministically (same priors + same seed = same run).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.errors import SerializationError

_FORMAT = "repro-priors/1"

#: Payloads one :class:`PriorStore` keeps, least recently used dropped
#: first.  Every distinct ``WHERE`` subset, worker count and seed is a
#: scope of its own, so an unbounded store grows with uptime; a dropped
#: payload only costs a later ``warm_start`` run its head start.
MAX_PRIOR_PAYLOADS = 32


def harvest_priors(engine) -> Dict[str, dict]:
    """``{node id -> histogram payload}`` for every node of a run engine.

    Only the default :class:`~repro.core.histogram.AdaptiveHistogram`
    sketch serializes; custom sketch factories yield an empty harvest
    (warm-start silently unavailable, never wrong).
    """
    from repro.core.histogram import AdaptiveHistogram

    return {node_id: sketch.to_dict()
            for node_id, sketch in engine.policy.sketches().items()
            if isinstance(sketch, AdaptiveHistogram)}


def apply_priors(engine, priors: Dict[str, dict]) -> int:
    """Preload harvested histograms into a fresh engine; returns #applied.

    Nodes are matched by id; ids missing from ``priors`` (or vice versa)
    are skipped, so priors harvested before a fallback flatten still
    apply to whatever structure both trees share.  Call before the first
    ``next_batch()`` — preloading after draws would double-count mass.
    """
    from repro.core.histogram import AdaptiveHistogram
    from repro.errors import ConfigurationError

    if engine.n_scored or engine.t_batches:
        raise ConfigurationError(
            "warm-start priors must be applied before the first draw"
        )
    matched = {node_id: AdaptiveHistogram.from_dict(priors[node_id])
               for node_id in engine.policy.sketches() if node_id in priors}
    engine.policy.set_sketches(matched)
    return len(matched)


def single_scope(subset: str = "") -> str:
    """Prior scope of a single-engine run (WHERE subset included)."""
    return f"single:{subset}"


def shard_scope(worker_id: int, n_workers: int, root_entropy: int,
                subset: str = "") -> str:
    """Prior scope of one shard: everything that shapes its local tree."""
    return f"shard:{worker_id}:{n_workers}:{root_entropy}:{subset}"


class PriorStore:
    """Thread-safe per-table registry of harvested histogram priors.

    Holds at most :data:`MAX_PRIOR_PAYLOADS` payloads; :meth:`get` and
    :meth:`put` refresh a payload, the stalest one is evicted.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: (fingerprint, scope) -> {node id -> histogram payload},
        #: least recently used first.
        self._priors: "OrderedDict[tuple, Dict[str, dict]]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._priors)

    def get(self, fingerprint: str,
            scope: str) -> Optional[Dict[str, dict]]:
        """Priors for one ``(udf, scope)`` pair, or ``None``."""
        key = (str(fingerprint), str(scope))
        with self._lock:
            priors = self._priors.get(key)
            if priors is not None:
                self._priors.move_to_end(key)
            return priors

    def put(self, fingerprint: str, scope: str,
            priors: Dict[str, dict]) -> None:
        """Store (replace) the harvest of one finished run."""
        if not priors:
            return
        key = (str(fingerprint), str(scope))
        with self._lock:
            self._priors[key] = dict(priors)
            self._priors.move_to_end(key)
            if len(self._priors) > MAX_PRIOR_PAYLOADS:
                self._priors.popitem(last=False)

    def clear(self) -> None:
        """Drop every stored prior."""
        with self._lock:
            self._priors.clear()

    def drop_nodes(self, node_ids) -> int:
        """Dirty specific tree nodes: remove their histograms everywhere.

        Incremental index maintenance reports which nodes' membership a
        write batch touched; their stored posteriors now describe a
        different subtree, so the session drops exactly those (across
        every ``(udf, scope)`` payload) and keeps the rest warm.
        Payloads emptied by the drop are removed.  Returns the number of
        node histograms dropped.
        """
        doomed = {str(node_id) for node_id in node_ids}
        if not doomed:
            return 0
        dropped = 0
        with self._lock:
            for key in list(self._priors):
                nodes = self._priors[key]
                hit = doomed.intersection(nodes)
                for node_id in hit:
                    del nodes[node_id]
                dropped += len(hit)
                if not nodes:
                    del self._priors[key]
        return dropped

    def to_dict(self) -> dict:
        """JSON-safe payload of every stored prior."""
        with self._lock:
            return {
                "format": _FORMAT,
                "priors": [
                    {"fingerprint": fingerprint, "scope": scope,
                     "nodes": dict(nodes)}
                    for (fingerprint, scope), nodes in self._priors.items()
                ],
            }

    @classmethod
    def from_dict(cls, payload: dict) -> "PriorStore":
        """Rebuild a store from :meth:`to_dict` output."""
        if payload.get("format") != _FORMAT:
            raise SerializationError(
                f"unrecognized priors format {payload.get('format')!r}"
            )
        store = cls()
        for entry in payload.get("priors", ()):
            store.put(entry["fingerprint"], entry["scope"],
                      entry["nodes"])
        return store
