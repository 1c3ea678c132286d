"""Newline-delimited JSON line protocol over TCP for the query service.

One connection carries one query.  The client sends a single request
line and reads response lines until ``result`` or ``error``:

.. code-block:: text

    -> {"query": "SELECT TOP 5 FROM t ORDER BY f", "tenant": "a",
        "snapshots": true, "workers": 3}
    <- {"type": "snapshot", "data": {"top_k": [...], "stk": ..., ...}}
    <- {"type": "snapshot", "data": {...}}
    <- {"type": "result", "kind": "streaming", "data": {...}}

Request fields: ``query`` (required), ``tenant``, ``deadline``,
``snapshots``, ``use_cache``, ``warm_start``, plus optional clause
defaults (``workers``, ``backend``, ``stream``, ``every``,
``confidence``) that the server folds into the statement with
:meth:`~repro.query.plan.QueryPlan.with_defaults` — an explicit clause
in the text wins.  Responses are ``snapshot`` lines (only when
``snapshots`` was requested; each ``data`` is
:meth:`~repro.streaming.engine.ProgressiveResult.to_json`), then exactly
one terminal line: ``result`` (``data`` is the result's ``to_json()``)
or ``error`` (``error`` message + ``kind`` exception class name;
cancellations arrive as ``kind: "QueryCancelledError"``).

A client that disconnects mid-stream cancels its query: the server
notices EOF (or a failed write), calls
:meth:`~repro.service.service.QueryHandle.cancel`, and the engine
unwinds at its next grant quantum — budget and shared-memory segments
are reclaimed, which ``tests/test_service.py`` fault-injects.

:class:`ServiceClient` is the asyncio client the tests (and the CLI's
``repro query --connect``) use; the protocol is trivially speakable by
``netcat`` too.
"""

from __future__ import annotations

import asyncio
import json
from typing import AsyncIterator, Optional

from repro.errors import ReproError
from repro.query.parser import parse
from repro.service.service import QueryService

#: Request keys folded into the statement as clause defaults.
CLAUSE_KEYS = ("workers", "backend", "stream", "every", "confidence")
#: Request keys forwarded to ``QueryService.submit`` as keyword arguments.
EXECUTE_KEYS = ("use_cache", "warm_start")


def _encode(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


async def _handle_connection(service: QueryService,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    """Serve one connection: one request line, stream the response."""
    handle = None
    try:
        line = await reader.readline()
        if not line:
            return
        try:
            request = json.loads(line)
            # The one parse of this query; the wire's clause defaults
            # are folded in here, so the service dispatches a plan.
            query = parse(request["query"]).with_defaults(**{
                key: request[key] for key in CLAUSE_KEYS
                if request.get(key) is not None})
        except (KeyError, TypeError, ValueError) as exc:
            writer.write(_encode({"type": "error", "kind": "BadRequest",
                                  "error": f"malformed request: {exc}"}))
            await writer.drain()
            return
        execute_kwargs = {key: request[key] for key in EXECUTE_KEYS
                          if request.get(key) is not None}
        handle = await service.submit(
            query,
            tenant=str(request.get("tenant", "default")),
            deadline=request.get("deadline"),
            snapshots=bool(request.get("snapshots", False)),
            **execute_kwargs,
        )
        # A disconnect must cancel the query even while it is still
        # computing between writes, so watch for EOF concurrently.
        eof_watch = asyncio.ensure_future(reader.read())
        try:
            async for snapshot in handle.snapshots():
                if eof_watch.done():
                    raise ConnectionResetError("client went away")
                writer.write(_encode({"type": "snapshot",
                                      "data": snapshot.to_json()}))
                await writer.drain()
            result = await handle.result()
            kind = getattr(result, "kind", type(result).__name__)
            payload = (result.to_json() if hasattr(result, "to_json")
                       else result)
            writer.write(_encode({"type": "result", "kind": str(kind),
                                  "data": payload}))
            await writer.drain()
        finally:
            eof_watch.cancel()
    except (ConnectionError, BrokenPipeError):
        # Client vanished: reclaim the query's budget and resources.
        if handle is not None:
            handle.cancel()
    except ReproError as exc:
        try:
            writer.write(_encode({"type": "error",
                                  "kind": type(exc).__name__,
                                  "error": str(exc)}))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


async def serve(service: QueryService, host: str = "127.0.0.1",
                port: int = 0) -> asyncio.base_events.Server:
    """Start the line-protocol server; ``port=0`` picks a free port.

    Returns the :class:`asyncio.Server`; the bound address is
    ``server.sockets[0].getsockname()``.  Close with ``server.close()``
    + ``await server.wait_closed()`` (in-flight queries keep their
    budget path — cancel them via :meth:`QueryService.close`).
    """

    async def connection(reader, writer):
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(connection, host=host, port=port)


class ServiceError(ReproError):
    """The server answered with an ``error`` line."""


class ServiceClient:
    """Minimal asyncio client for the line protocol (one query per call)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)

    async def _messages(self, payload: dict) -> AsyncIterator[dict]:
        """Send one request; yield the server's lines up to the terminal one.

        An ``error`` line raises :class:`ServiceError`.
        """
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(_encode(payload))
            await writer.drain()
            while True:
                line = await reader.readline()
                if not line:
                    return
                message = json.loads(line)
                if message["type"] == "error":
                    raise ServiceError(
                        f"[{message.get('kind')}] {message.get('error')}"
                    )
                yield message
                if message["type"] == "result":
                    return
        finally:
            writer.close()
            await writer.wait_closed()

    async def execute(self, query: str, *, tenant: str = "default",
                      deadline: Optional[float] = None, **kwargs) -> dict:
        """Run one query to completion; returns the terminal message.

        The returned dict is the server's ``result`` line (``kind`` +
        ``data``); an ``error`` line raises :class:`ServiceError`.
        Extra keyword arguments travel as request keys.
        """
        message = None
        async for message in self._messages(
                {"query": query, "tenant": tenant, "deadline": deadline,
                 **kwargs}):
            pass                      # the last line is the terminal one
        if message is None or message["type"] != "result":
            raise ServiceError("server closed the connection early")
        return message

    async def stream(self, query: str, *, tenant: str = "default",
                     deadline: Optional[float] = None,
                     **kwargs) -> AsyncIterator[dict]:
        """Yield every server message for a snapshot-streaming query.

        Messages arrive as dicts — ``snapshot`` lines first, then the
        terminal ``result`` (or a raised :class:`ServiceError`).
        """
        async for message in self._messages(
                {"query": query, "tenant": tenant, "deadline": deadline,
                 "snapshots": True, **kwargs}):
            yield message
