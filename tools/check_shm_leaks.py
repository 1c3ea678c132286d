#!/usr/bin/env python
"""Fail if any repro shared-memory segment is left behind.

The zero-copy shard bootstrap (``repro.parallel.shm``) promises that no
``/dev/shm/repro-shm-*`` segment survives its owning run — engine
``close()``, failed-start unwinding, ``weakref.finalize`` and the
module's ``atexit`` sweep all converge on unlink.  This check makes that
promise enforceable after any workload (``check.sh`` runs it right after
tier-1): it lists surviving segments and exits non-zero if any exist.

``--exercise service`` first drives the multi-tenant service's
worst-case paths itself — a completed process-backend query, then a
cancelled one — so the service's grant-retire/engine-close unwinding is
exercised in the same process whose exit the check guards.

A segment leaked by a *live* process is still a failure here — segments
are owned per run, not per daemon; nothing in this repo holds one across
process exit.

Usage::

    python tools/check_shm_leaks.py
    PYTHONPATH=src python tools/check_shm_leaks.py --exercise service
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SHM_DIR = Path("/dev/shm")
PREFIX = "repro-shm-"


def leaked_segments() -> list:
    """Surviving repro segments, if POSIX shm is backed by /dev/shm."""
    if not SHM_DIR.is_dir():
        return []
    return sorted(SHM_DIR.glob(PREFIX + "*"))


def exercise_service() -> None:
    """Drive the service's shm-owning paths: complete + cancel a query.

    Uses the process backend with shared-memory feature tables, so both
    a normally retired grant and a cancelled mid-admission query must
    unwind their segments before this function returns.
    """
    import asyncio

    import numpy as np

    from repro.data.dataset import InMemoryDataset
    from repro.errors import QueryCancelledError
    from repro.index.builder import IndexConfig
    from repro.parallel.shm import shm_available
    from repro.scoring.relu import ReluScorer
    from repro.service import QueryService
    from repro.session import OpaqueQuerySession

    if not shm_available():
        print("shm unavailable; skipping the service exercise")
        return

    rng = np.random.default_rng(0)
    n = 2_000
    values = np.maximum(rng.normal(size=n), 0.0)
    dataset = InMemoryDataset([f"e{i}" for i in range(n)], values.tolist(),
                              np.column_stack([values, rng.random(n)]))
    session = OpaqueQuerySession()
    session.register_table("t", dataset,
                           index_config=IndexConfig(n_clusters=8, flat=True))
    session.register_udf("f", ReluScorer())

    SHARDED = " WORKERS 2 BACKEND process"

    async def drive():
        service = QueryService(budget=1_000, session=session)
        done = await service.submit(
            "SELECT TOP 5 FROM t ORDER BY f BUDGET 400 SEED 0" + SHARDED,
            tenant="done", use_cache=False,
        )
        await done.result()
        # A second query queued behind a pool-filling one, cancelled
        # while waiting — its unwinding must not leave segments either.
        blocker = await service.submit(
            "SELECT TOP 5 FROM t ORDER BY f BUDGET 900 SEED 1" + SHARDED,
            tenant="hog", use_cache=False,
        )
        dropped = await service.submit(
            "SELECT TOP 5 FROM t ORDER BY f BUDGET 400 SEED 2" + SHARDED,
            tenant="dropped", use_cache=False,
        )
        dropped.cancel()
        await blocker.result()
        try:
            await dropped.result()
        except QueryCancelledError:
            pass
        await service.close()

    asyncio.run(drive())
    print("service exercise ok (completed + cancelled process-backend "
          "queries)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exercise", choices=("service",), default=None,
                        help="drive a workload first, then check for leaks")
    args = parser.parse_args(argv)
    if args.exercise == "service":
        exercise_service()
    leaks = leaked_segments()
    if leaks:
        print("LEAKED SHARED-MEMORY SEGMENTS:")
        for path in leaks:
            try:
                size = path.stat().st_size
            except OSError:
                size = -1
            print(f"  {path} ({size} bytes)")
        print(f"{len(leaks)} segment(s) survived; the owning run must "
              f"unlink on close (see repro/parallel/shm.py).")
        return 1
    print("shm leak check ok (no /dev/shm/repro-shm-* segments)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
