"""Pause/resume support for running queries.

The paper's query model is *anytime*: "the user monitors the running
solution and retrieves the result as soon as satisfied" (Section 2.2).  A
natural companion is pausing: an analyst stops a long-running query, shuts
the notebook, and resumes tomorrow against the same (immutable) index
without re-scoring anything.

:func:`snapshot_engine` captures everything the engine learned — the
priority queue, every node's histogram sketch, each arm's remaining
members, counters, fallback state, and the scan queue if the clustering
fallback already fired — as a JSON-safe dict.  :func:`restore_engine`
rebuilds a live engine from it.

One documented caveat: random-generator state is *not* captured.  A resumed
engine derives fresh streams from ``resume_seed``, so a paused-and-resumed
run is a valid execution of Algorithm 1 but not bit-identical to the
uninterrupted one.

The sharded coordinator nests one of these payloads per shard
(:meth:`repro.parallel.engine.ShardedTopKEngine.snapshot`).  The bandit
tree itself is the policy's to write and read
(:meth:`~repro.core.hierarchical.HierarchicalBanditPolicy.state` /
``load_state``); the restore invariants are documented in
``docs/architecture.md``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import EngineConfig, TopKEngine
from repro.errors import ConfigurationError, SerializationError
from repro.index.tree import ClusterTree

_FORMAT = "repro-engine-snapshot/1"


def snapshot_engine(engine: TopKEngine) -> dict:
    """Capture a running engine's full learned state (JSON-safe)."""
    if engine._pending:
        raise ConfigurationError(
            "cannot snapshot between next_batch() and observe(); finish the "
            "in-flight batch first"
        )
    return {
        "format": _FORMAT,
        "k": engine.config.k,
        "mode": engine.mode,
        "scan_queue": list(engine._scan_queue),
        "buffer": [[score, payload] for score, payload in
                   engine.buffer.items()],
        "tree": engine.policy.state(),
        "flattened": engine.policy.flattened,
        "counters": {
            "t_batches": engine.t_batches,
            "n_scored": engine.n_scored,
            "n_explore": engine.n_explore,
            "n_exploit": engine.n_exploit,
            "n_drops": engine.policy.n_drops,
            "overhead_elapsed": engine.overhead.elapsed,
            "fallback_next_check": engine.fallback.next_check_at,
            "fallback_n_checks": engine.fallback.n_checks,
        },
        "fallback_events": [[t, kind] for t, kind in engine.fallback_events],
        "threshold_floor": engine.threshold_floor,
        "n_total": engine.n_total,
    }


def restore_engine(index: ClusterTree, snapshot: dict,
                   config: Optional[EngineConfig] = None,
                   resume_seed: Optional[int] = None,
                   scoring_latency_hint: float = 2e-3) -> TopKEngine:
    """Rebuild a live engine from :func:`snapshot_engine` output.

    ``index`` must be the same immutable index the original engine ran
    over (node IDs are checked).  ``config`` defaults to paper settings
    with the snapshot's ``k``; ``resume_seed`` seeds the fresh random
    streams of the resumed run.
    """
    if snapshot.get("format") != _FORMAT:
        raise SerializationError(
            f"unrecognized snapshot format {snapshot.get('format')!r}"
        )
    if config is None:
        config = EngineConfig(k=int(snapshot["k"]), seed=resume_seed)
    elif config.k != int(snapshot["k"]):
        raise ConfigurationError("config.k must match the snapshot's k")
    engine = TopKEngine(index, config,
                        scoring_latency_hint=scoring_latency_hint)
    # Rehydrate learned state.
    engine.policy.load_state(snapshot["tree"])
    engine.policy.flattened = bool(snapshot.get("flattened", False))
    for score, payload in snapshot["buffer"]:
        engine.buffer.offer(float(score), payload)
    engine.mode = snapshot["mode"]
    engine._scan_queue = list(snapshot.get("scan_queue", ()))
    counters = snapshot["counters"]
    engine.t_batches = int(counters["t_batches"])
    engine.n_scored = int(counters["n_scored"])
    engine.n_explore = int(counters["n_explore"])
    engine.n_exploit = int(counters["n_exploit"])
    engine.policy.n_drops = int(counters.get("n_drops", 0))
    engine.overhead.elapsed = float(counters.get("overhead_elapsed", 0.0))
    engine.fallback._next_check = int(counters.get("fallback_next_check", 0))
    engine.fallback.n_checks = int(counters.get("fallback_n_checks", 0))
    engine.fallback_events = [
        (int(t), str(kind)) for t, kind in snapshot.get("fallback_events", ())
    ]
    floor = snapshot.get("threshold_floor")
    engine.threshold_floor = None if floor is None else float(floor)
    return engine


_MEMO_FORMAT = "repro-memo-snapshot/1"


def snapshot_memo(memo, priors=None, table_version=None) -> dict:
    """Capture a table's cross-query state (JSON-safe).

    ``memo`` is a :class:`~repro.memo.store.MemoStore`; ``priors`` an
    optional :class:`~repro.memo.store.PriorStore` companion.  Pairs with
    :func:`restore_memo` so warm caches survive a session the same way
    engine state does.  One caveat mirrors the engine snapshot's RNG
    note: UDF *fingerprints* fold function bytecode, so a memo restored
    under a different Python version keys stale fingerprints — entries
    are then simply never hit (never wrong), and the first queries re-pay
    their UDF calls.

    ``table_version`` stamps the payload with the live-table version the
    scores were computed against (defaults to the store's own
    ``table_version`` counter, 0 for immutable tables).  On restore the
    stamp is checked: scores of a table that has since been written to
    would be silently wrong, so a mismatch clears instead of reviving.
    """
    version = (memo.table_version if table_version is None
               else int(table_version))
    return {
        "format": _MEMO_FORMAT,
        "memo": memo.to_dict(),
        "priors": None if priors is None else priors.to_dict(),
        "table_version": int(version),
    }


def restore_memo(payload: dict, expected_table_version=None):
    """Rebuild ``(MemoStore, PriorStore)`` from :func:`snapshot_memo`.

    The prior store is always returned (empty when none was captured), so
    callers can unpack unconditionally.

    When ``expected_table_version`` is given (the current version of the
    live table the memo will serve), it is compared against the
    snapshot's stamp: on mismatch the payload's scores and priors are
    *discarded* and fresh empty stores are returned — a memo carried
    across writes would otherwise serve element scores computed from
    rows that no longer exist.  The returned stores are stamped with the
    expected version so subsequent reconciliation starts clean.
    """
    from repro.memo import MemoStore, PriorStore

    if payload.get("format") != _MEMO_FORMAT:
        raise SerializationError(
            f"unrecognized memo snapshot format {payload.get('format')!r}"
        )
    stamped = int(payload.get("table_version", 0))
    if (expected_table_version is not None
            and stamped != int(expected_table_version)):
        memo = MemoStore()
        memo.table_version = int(expected_table_version)
        return memo, PriorStore()
    memo = MemoStore.from_dict(payload["memo"])
    priors_payload = payload.get("priors")
    priors = (PriorStore() if priors_payload is None
              else PriorStore.from_dict(priors_payload))
    return memo, priors
