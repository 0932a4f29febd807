"""Minimal asyncio HTTP/1.1 JSON client used inside the router.

The serve tier speaks a deliberately tiny HTTP dialect
(:mod:`repro.serve.http`); this is its client-side mirror: stdlib
only, every call bounded by a timeout so a hung node (e.g. a
SIGSTOPped process in the chaos harness) turns into
:class:`asyncio.TimeoutError` instead of a wedged router.

A call without a pool is one ``Connection: close`` exchange.  The
router passes its own :class:`ConnectionPool`: the call then asks for
``keep-alive``, reuses an idle connection to that node when there is
one, and hands the connection back only once the whole response has
been read by ``Content-Length`` and the node answered
``Connection: keep-alive``.  A timeout, a cancellation, a malformed
answer or ``Connection: close`` closes it instead.  A reused
connection that fails before the first response byte (EOF or a reset:
the node closed it, or was restarted on the same port) is retried once
on a new connection, inside the same timeout and invisible to the
caller.  The pool also knows which connections an exchange is waiting
on: :meth:`ConnectionPool.abandon` fails every exchange with a node
at once, with :class:`NodeAbandoned`, when the router takes the node
out of rotation.  The blocking
:class:`~repro.serve.client.ServeClient` stays the external client;
this one exists so the router can hold many forwards in flight on one
event loop.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Set, Tuple

from ..serve.http import read_http_headers

#: idle keep-alive connections a pool keeps per node address
MAX_IDLE_PER_NODE = 8

Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]
Address = Tuple[str, int]
Answer = Tuple[int, Dict[str, str], Dict[str, object]]


class ConnectionLost(ConnectionError):
    """The node closed or reset the connection before any response
    byte arrived."""


class NodeAbandoned(OSError):
    """The router gave up on the node while an exchange waited on it
    (:meth:`ConnectionPool.abandon`).  Not a :class:`ConnectionLost`,
    so it is never retried on a new connection to the same node."""


class ConnectionPool:
    """Idle keep-alive connections by node address.

    One router owns one pool and uses it from its own event loop only;
    :meth:`close` runs when the router stops."""

    def __init__(self) -> None:
        self._idle: Dict[Address, List[Connection]] = {}
        #: connections an exchange is using, by node address
        self._busy: Dict[Address, Set[Connection]] = {}
        self._closed = False

    def idle(self, host: str, port: int) -> int:
        """Idle connections kept for ``host:port``."""
        return len(self._idle.get((host, port), ()))

    def take(self, address: Address) -> Optional[Connection]:
        """The most recently returned idle connection, if any."""
        idle = self._idle.get(address)
        return idle.pop() if idle else None

    def give(self, address: Address, connection: Connection) -> bool:
        """Keep ``connection`` for reuse; False when the pool is
        closed or already holds its cap for that address."""
        idle = self._idle.setdefault(address, [])
        if self._closed or len(idle) >= MAX_IDLE_PER_NODE:
            return False
        idle.append(connection)
        return True

    def busy(self, address: Address) -> Set[Connection]:
        """The set an exchange adds its connection to while it uses
        it."""
        return self._busy.setdefault(address, set())

    def abandon(self, host: str, port: int) -> None:
        """Give up on ``host:port``: close its idle connections, and
        abort every connection an exchange is waiting on, so that the
        exchange raises :class:`NodeAbandoned` now instead of waiting
        out its timeout."""
        address = (host, port)
        for _reader, writer in self._idle.pop(address, ()):
            writer.close()
        for reader, writer in self._busy.pop(address, ()):
            reader.set_exception(
                NodeAbandoned(f"{host}:{port} left the rotation"))
            writer.transport.abort()

    def close(self) -> None:
        """Close every idle connection; connections given back later
        are closed instead of kept."""
        self._closed = True
        for idle in self._idle.values():
            for _reader, writer in idle:
                writer.close()
        self._idle.clear()


async def request_json(host: str, port: int, method: str, path: str,
                       body: Optional[bytes] = None,
                       timeout: float = 30.0,
                       headers: Optional[Dict[str, str]] = None,
                       pool: Optional[ConnectionPool] = None) -> Answer:
    """One HTTP request; returns ``(status, headers, decoded_json)``.

    Raises ``OSError`` on connection failure and
    ``asyncio.TimeoutError`` when the whole exchange exceeds
    ``timeout``.  A non-JSON body decodes to ``{"error": <text>}`` so
    callers can treat every answer uniformly.  ``headers`` adds extra
    request headers (the router forwards ``X-Request-Id`` this way).
    With ``pool``, the connection is reused as the module docstring
    describes.
    """
    blob = body if body is not None else b""
    lines = [f"{method} {path} HTTP/1.1",
             f"Host: {host}:{port}",
             f"Connection: {'close' if pool is None else 'keep-alive'}",
             f"Content-Length: {len(blob)}"]
    if blob:
        lines.append("Content-Type: application/json")
    if headers:
        lines.extend(f"{name}: {value}" for name, value in headers.items())
    request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + blob
    return await asyncio.wait_for(
        _request((host, port), request, pool), timeout)


async def _request(address: Address, request: bytes,
                   pool: Optional[ConnectionPool]) -> Answer:
    connection = pool.take(address) if pool is not None else None
    if connection is not None:
        try:
            return await _exchange(address, connection, request, pool)
        except ConnectionLost:
            pass   # stale: the node hung up on its idle end
    connection = await asyncio.open_connection(*address)
    return await _exchange(address, connection, request, pool)


async def _exchange(address: Address, connection: Connection,
                    request: bytes,
                    pool: Optional[ConnectionPool]) -> Answer:
    """Write ``request`` on ``connection`` and read the response; the
    connection then goes back to ``pool`` or is closed."""
    reader, writer = connection
    reusable = False
    busy = pool.busy(address) if pool is not None else set()
    busy.add(connection)
    try:
        try:
            writer.write(request)
            await writer.drain()
            status_line = await reader.readline()
        except ConnectionError as error:
            if reader.exception() is not None:
                # abandon() set it before aborting the connection
                raise reader.exception() from error
            raise ConnectionLost(f"{type(error).__name__}: {error}") \
                from error
        if not status_line:
            raise ConnectionLost("connection closed before a response")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(
                f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers = await read_http_headers(reader)
        length = headers.get("content-length")
        raw = (await reader.readexactly(int(length)) if length
               else await reader.read())
        # not writer.is_closing(): abandon() may have aborted the
        # connection after its last read
        reusable = (pool is not None and bool(length) and
                    headers.get("connection", "").lower() == "keep-alive"
                    and not writer.is_closing())
        try:
            payload = json.loads(raw) if raw else {}
        except ValueError:
            payload = {"error": raw.decode("utf-8", "replace")}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return status, headers, payload
    finally:
        busy.discard(connection)
        if not (reusable and pool.give(address, connection)):
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
