"""Minimal asyncio HTTP/1.1 JSON client used inside the router.

The serve tier speaks a deliberately tiny HTTP dialect
(:mod:`repro.serve.http`); this is its client-side mirror — one
``Connection: close`` request per call, stdlib only, every call bounded
by a timeout so a hung node (e.g. a SIGSTOPped process in the chaos
harness) turns into :class:`asyncio.TimeoutError` instead of a wedged
router.  The blocking :class:`~repro.serve.client.ServeClient` stays
the external client; this one exists so the router can hold many
forwards in flight on one event loop.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from ..serve.http import read_http_headers


async def request_json(host: str, port: int, method: str, path: str,
                       body: Optional[bytes] = None,
                       timeout: float = 30.0,
                       headers: Optional[Dict[str, str]] = None
                       ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
    """One HTTP request; returns ``(status, headers, decoded_json)``.

    Raises ``OSError`` on connection failure and
    ``asyncio.TimeoutError`` when the whole exchange exceeds
    ``timeout``.  A non-JSON body decodes to ``{"error": <text>}`` so
    callers can treat every answer uniformly.  ``headers`` adds extra
    request headers (the router forwards ``X-Request-Id`` this way).
    """
    return await asyncio.wait_for(
        _request(host, port, method, path, body, headers), timeout)


async def _request(host: str, port: int, method: str, path: str,
                   body: Optional[bytes],
                   extra_headers: Optional[Dict[str, str]] = None
                   ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        blob = body if body is not None else b""
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {host}:{port}",
                 "Connection: close",
                 f"Content-Length: {len(blob)}"]
        if blob:
            lines.append("Content-Type: application/json")
        if extra_headers:
            lines.extend(f"{name}: {value}"
                         for name, value in extra_headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + blob)
        await writer.drain()

        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(
                f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers = await read_http_headers(reader)
        length = headers.get("content-length")
        raw = (await reader.readexactly(int(length)) if length
               else await reader.read())
        try:
            payload = json.loads(raw) if raw else {}
        except ValueError:
            payload = {"error": raw.decode("utf-8", "replace")}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return status, headers, payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
