"""Pause/resume support: a table's cross-query state, and the RNG caveat.

The paper's query model is *anytime*: "the user monitors the running
solution and retrieves the result as soon as satisfied" (Section 2.2).  A
natural companion is pausing: an analyst stops a long-running query, shuts
the notebook, and resumes tomorrow without re-scoring anything.  All three
engines pause as ``snapshot()`` and resume as ``Cls.restore(...)`` given
the context the snapshot does not carry (the index; or the dataset and
scorer).  This module adds the table's side: :func:`snapshot_memo` /
:func:`restore_memo` bundle the score memo and the warm-start priors with
a table-version stamp.

Random-generator state is *not* captured.  A resumed engine derives fresh
streams from ``resume_seed``, so a paused-and-resumed run is a valid
execution of Algorithm 1 but not bit-identical to the uninterrupted one.
The restore invariants are documented in ``docs/architecture.md``.
"""

from __future__ import annotations

from repro.memo import MemoStore, PriorStore
from repro.persist import NULL, read

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
    return {
        "format": _MEMO_FORMAT,
        "memo": memo.to_dict(),
        "priors": None if priors is None else priors.to_dict(),
        "table_version": int(memo.table_version if table_version is None
                             else table_version),
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
    read(payload, _MEMO_FORMAT, memo=dict, priors=(dict, NULL),
         table_version=(int, NULL))
    stamped = payload.get("table_version") or 0
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
