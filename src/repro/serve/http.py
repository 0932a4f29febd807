"""The HTTP service shell shared by the serve node and the cluster router.

Hand-rolled on :func:`asyncio.start_server`: stdlib only, HTTP/1.1
keep-alive.  :class:`HttpService` owns the lifecycle and shutdown
order, the connection loop, endpoint dispatch (404/405), and the
``POST /v1/points`` wrapper: JSON and spec parsing (400), request id,
span, latency histogram and log line.  A backend subclass supplies
``_submit``, ``healthz_payload``, ``stats_payload`` and
``metrics_payload``, plus any background tasks and drain/close steps.
See ``docs/service.md`` ("Service shell").
"""

from __future__ import annotations

import asyncio
import inspect
import json
import signal
import threading
import time
from typing import Coroutine, Dict, List, Optional, Tuple, Union

from ..common.stats import Stats
from ..obs.jsonlog import get_logger
from ..obs.metrics import PROMETHEUS_CONTENT_TYPE
from ..obs.spans import SpanRecorder
from .ops import RetryLater, TimeSlicer, ensure_request_id, tick_forever
from .protocol import PointRequest, ProtocolError, parse_request

#: ``(status, payload, extra headers)``; a ``str`` payload is sent as
#: Prometheus exposition text, anything else as JSON
Response = Tuple[int, Union[Dict[str, object], str], Dict[str, str]]

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            502: "Bad Gateway", 503: "Service Unavailable",
            504: "Gateway Timeout"}

#: request body ceiling — a point spec is small; anything bigger is abuse
MAX_BODY_BYTES = 1 << 20


async def read_http_headers(reader: asyncio.StreamReader
                            ) -> Dict[str, str]:
    """Read a header block up to its blank line; names lowercased."""
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def read_http_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request into ``(method, target, headers,
    body)``; ``None`` at EOF."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise ValueError("malformed request line")
    method, target, _version = parts
    headers = await read_http_headers(reader)
    length = int(headers.get("content-length", 0))
    if not 0 <= length <= MAX_BODY_BYTES:
        raise ValueError("unreasonable content-length")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


async def write_http_response(writer: asyncio.StreamWriter, status: int,
                              payload: Union[Dict[str, object], str, bytes],
                              extra: Dict[str, str],
                              keep_alive: bool) -> None:
    """Serialize one response.

    A dict payload is sent as JSON; a ``str``/``bytes`` payload is
    sent verbatim as text — how ``/metrics`` serves its Prometheus
    exposition text through the same JSON-era plumbing."""
    if isinstance(payload, (str, bytes)):
        blob = payload.encode("utf-8") if isinstance(payload, str) \
            else payload
        content_type = PROMETHEUS_CONTENT_TYPE
    else:
        blob = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(blob)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    lines.extend(f"{name}: {value}" for name, value in extra.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                 + blob)
    await writer.drain()


class HttpService:
    """One asyncio HTTP front-end; subclasses plug in the backend.

    The class attributes name the service on every surface, and stay
    fixed because dashboards, benchmarks and tests read them."""

    #: ``<prefix>.http.*`` counters, ``<prefix>.request.ms`` histogram
    prefix: str
    #: ``<role>.ready`` / ``<role>.stop`` log events
    role: str
    #: ``(category, name)`` of the span around each point request
    request_span: Tuple[str, str]
    #: log event per point request, and the response fields it carries
    request_event: str
    request_log_fields: Tuple[str, ...]

    def __init__(self, host: str, port: int, process_name: str,
                 ready_callback) -> None:
        self.host = host
        self.port = port          # requested; 0 = ephemeral
        self.bound_port: Optional[int] = None
        self.stats = Stats()
        self.spans = SpanRecorder(process_name)
        self.log = get_logger()
        self.slicer = TimeSlicer()
        self._ready_callback = ready_callback
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._busy: set = set()   # connection tasks mid-request

    # -- backend hooks with defaults -----------------------------------
    def _background(self) -> List[Coroutine]:
        """Coroutines to run as tasks beside the ticker until stop."""
        return []

    def _ready_fields(self) -> Dict[str, object]:
        """Extra fields for the ``<role>.ready`` log line."""
        return {}

    async def _drain(self) -> None:
        """Let admitted work finish; runs once accepting has stopped."""

    def _close(self) -> None:
        """Release backend resources; runs last."""

    # -- lifecycle -----------------------------------------------------
    def request_shutdown(self) -> None:
        """Trigger a graceful shutdown; callable from any thread."""
        loop, shutdown = self._loop, self._shutdown
        if loop is None or shutdown is None:
            return
        loop.call_soon_threadsafe(shutdown.set)

    async def run(self, install_signals: bool = True) -> None:
        """Serve until shutdown is requested, then stop in order."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        server = await asyncio.start_server(self._handle_connection,
                                            self.host, self.port)
        self.bound_port = server.sockets[0].getsockname()[1]
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum,
                                                  self._shutdown.set)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # unsupported here; request_shutdown() works
        tasks = [asyncio.create_task(coro) for coro in
                 (tick_forever(self.slicer), *self._background())]
        if self._ready_callback is not None:
            self._ready_callback(self.bound_port)
        self.log.log(f"{self.role}.ready", host=self.host,
                     port=self.bound_port, **self._ready_fields())
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._drain()
            # Idle keep-alive connections see EOF and end; busy
            # handlers answer first, then close (shutdown check in
            # the connection loop).
            for conn_task, conn_writer in list(self._connections.items()):
                if conn_task not in self._busy:
                    conn_writer.close()
            if self._connections:
                await asyncio.wait(set(self._connections), timeout=10)
            for task in tasks:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            self._close()
            self.log.log(f"{self.role}.stop",
                         uptime_seconds=round(
                             self.slicer.uptime_seconds, 3))

    # -- HTTP ----------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                request = await read_http_request(reader)
                if request is None:
                    break
                method, target, headers, body = request
                self.stats.inc(f"{self.prefix}.http.requests")
                keep_alive = headers.get("connection", "").lower() \
                    != "close"
                self._busy.add(task)
                try:
                    status, payload, extra = await self._dispatch(
                        method, target, body, headers)
                    self.stats.inc(f"{self.prefix}.http.{status}")
                    await write_http_response(writer, status, payload,
                                              extra, keep_alive)
                finally:
                    self._busy.discard(task)
                if not keep_alive or self._shutdown.is_set():
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError, ValueError):
            pass  # half-closed or garbage connection: just drop it
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, method: str, target: str, body: bytes,
                        headers: Dict[str, str]) -> Response:
        target = target.split("?", 1)[0]
        if target == "/v1/points":
            if method != "POST":
                return 405, {"error": "use POST"}, {}
            return await self._submit_request(body,
                                              ensure_request_id(headers))
        read = {"/healthz": self.healthz_payload,
                "/stats": self.stats_payload,
                "/metrics": self.metrics_payload,
                "/trace": self.spans.chrome_trace}.get(target)
        if read is None:
            return 404, {"error": f"no such endpoint {target!r}"}, {}
        if method != "GET":
            return 405, {"error": "use GET"}, {}
        payload = read()
        if inspect.isawaitable(payload):
            payload = await payload
        return 200, payload, {}

    async def _submit_request(self, body: bytes,
                              request_id: str) -> Response:
        started = time.perf_counter()
        category, name = self.request_span
        with self.spans.span(category, name,
                             request_id=request_id) as span:
            status, payload, extra = await self._parse_and_submit(
                body, request_id)
            span["status"] = status
            if "key" in payload:
                span["key"] = payload["key"]
        self.stats.hist(f"{self.prefix}.request.ms",
                        (time.perf_counter() - started) * 1000)
        # every waiter (coalesced or not) answers with its *own* id
        payload = dict(payload)
        payload["request_id"] = request_id
        extra = dict(extra)
        extra["X-Request-Id"] = request_id
        self.log.log(self.request_event, request_id=request_id,
                     status=status,
                     **{field: payload.get(field)
                        for field in self.request_log_fields})
        return status, payload, extra

    async def _parse_and_submit(self, body: bytes,
                                request_id: str) -> Response:
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return 400, {"error": "request body is not valid JSON"}, {}
        try:
            request = parse_request(data)
        except ProtocolError as error:
            return 400, {"error": str(error)}, {}
        try:
            return await self._submit(request, body, request_id)
        except RetryLater as error:
            return 503, {"error": str(error),
                         "retry_after": error.retry_after}, \
                {"Retry-After": str(error.retry_after)}

    async def _submit(self, request: PointRequest, body: bytes,
                      request_id: str) -> Response:
        """Answer one parsed ``POST /v1/points``; ``body`` is the raw
        spec as received.  Raise :class:`~repro.serve.ops.RetryLater`
        to refuse for now."""
        raise NotImplementedError


def run_in_thread(service: HttpService) -> Tuple[threading.Thread, int]:
    """Start a service on a daemon thread; returns ``(thread,
    bound_port)`` once the socket is listening.  The test-suite,
    notebook and in-process fleet harness — production uses the
    blocking ``repro serve`` / ``repro cluster run`` entry points."""
    ready = threading.Event()
    ports: List[int] = []
    previous = service._ready_callback

    def on_ready(port: int) -> None:
        ports.append(port)
        ready.set()
        if previous is not None:
            previous(port)

    service._ready_callback = on_ready
    thread = threading.Thread(
        target=lambda: asyncio.run(service.run(install_signals=False)),
        name=f"repro-{service.role}", daemon=True)
    thread.start()
    if not ready.wait(timeout=30):
        raise RuntimeError(f"{service.role} failed to start within 30s")
    return thread, ports[0]
