"""The program under test for ``service-closed``, as a child process.

Builds the ``mix`` table, registers the sleeping UDF behind the
benchmark's counting wrapper, and serves a metered ``QueryService`` over
the line protocol on a free port.  The parent drives it over TCP like
any client and talks to *this file* over the child's stdin/stdout:

    <- {"port": 40123}            once the server accepts connections
    -> stats                      <- one JSON line of counters
    -> quit                       drain, close, <- final counters, exit

With ``--trace 1`` it also times the scheduler's public
``admit_future`` from outside: how long each admission waited, and
whether it had to wait at all.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from time import perf_counter, process_time
from typing import List, Tuple

from repro.data.dataset import InMemoryDataset
from repro.parallel.backends import available_backends
from repro.scoring.blocking import BlockingReluScorer
from repro.service import QueryService, serve
from repro.session import OpaqueQuerySession

from harness import (ROWS, SYNC_INTERVAL, CountedScorer, peak_rss_mb,
                     shm_leaks)
from inputs import K, TABLE, index_config, make_table

#: Scorer calls the service lets be in flight at once: room for the
#: sharded template plus either other one, but not for two sharded.
POOL = 1000


def build_service(seed: int):
    """The session, its counted UDF, and the service over them."""
    table = make_table(seed, ROWS)
    session = OpaqueQuerySession(sync_interval=SYNC_INTERVAL)
    session.register_table(
        TABLE, InMemoryDataset(table.ids, table.values, table.features),
        index_config=index_config())
    slow = CountedScorer(BlockingReluScorer(5e-4))
    session.register_udf("slow", slow)
    session.execute(
        f"SELECT TOP {K} FROM {TABLE} ORDER BY slow BUDGET 10 SEED 0",
        use_cache=False)
    service = QueryService(budget=POOL, policy="fair-share", session=session)
    return service, slow


def time_admissions(service: QueryService) -> List[Tuple[float, bool]]:
    """Wrap ``admit_future``; returns the list it appends waits to."""
    waits: List[Tuple[float, bool]] = []
    admit = service.scheduler.admit_future

    def timed(tenant, demand, deadline=None):
        start = perf_counter()
        future = admit(tenant, demand, deadline)
        waited = not future.done()
        future.add_done_callback(
            lambda _f: waits.append((perf_counter() - start, waited)))
        return future

    service.scheduler.admit_future = timed
    return waits


def counters(service: QueryService, slow: CountedScorer, waits) -> dict:
    stats = service.stats()
    return {
        "udf_calls": slow.calls,
        "udf_busy_s": slow.busy_s,
        "cpu_s": process_time(),
        "scheduler": stats["scheduler"],
        "queries": stats["queries"],
        "peak_rss_mb": peak_rss_mb(),
        "admission_waits": list(waits),
    }


def say(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def run(args: argparse.Namespace) -> None:
    # The first BACKEND clause makes the program probe its process
    # backend by forking a child.  Forced here, while this process has
    # no thread yet: forked under the stdin reader below, the probe's
    # child deadlocks on the stdin lock it inherits held.
    available_backends()
    service, slow = build_service(args.seed)
    slow.timed = bool(args.trace)
    waits = time_admissions(service) if args.trace else []
    server = await serve(service)
    say({"port": server.sockets[0].getsockname()[1]})
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        command = line.strip()
        if command == "stats":
            say(counters(service, slow, waits))
        elif command in ("quit", ""):  # "" is EOF: the parent is gone
            break
    server.close()
    await server.wait_closed()
    await service.drain()
    final = counters(service, slow, waits)
    await service.close()
    final["shm_leaks"] = shm_leaks()
    say(final)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    asyncio.run(run(parser.parse_args()))


if __name__ == "__main__":
    main()
