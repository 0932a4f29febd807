"""repro.serve — the always-on simulation service.

Turns the repo's one-shot experiment pipeline into a long-lived
server: clients POST JSON point specs (the same three point kinds the
batch engine runs) and get cached-or-computed payloads back over a
minimal hand-rolled HTTP/1.1 JSON protocol.  Pieces:

* :mod:`~repro.serve.protocol` — spec parsing/validation; builds the
  exact frozen point dataclasses (and therefore the exact cache keys)
  the batch engine uses,
* :mod:`~repro.serve.scheduler` — admission control (bounded queue,
  load shedding with Retry-After), request coalescing by spec key, and
  a cache-first fast path,
* :mod:`~repro.serve.pool` — the worker fleet: a crash-tolerant
  ``ProcessPoolExecutor`` with bounded exponential-backoff retry,
* :mod:`~repro.serve.ops` — wall-clock time-sliced telemetry (via the
  observability layer's EpochSampler) and request ids,
* :mod:`~repro.serve.http` — the HTTP service shell shared with the
  cluster router: lifecycle, connection loop, dispatch,
* :mod:`~repro.serve.server` — the node: the shell in front of the
  scheduler, with its ops payloads (``repro serve``),
* :mod:`~repro.serve.client` — the small sync client (``repro
  submit``, tests, CI).

See ``docs/service.md`` for the protocol reference and capacity
tuning guidance.
"""

from .._lazy import lazy_exports

# A router imports the shell and the protocol without the node's
# scheduler and pool; see repro._lazy.
_LAZY = {
    "client": ("ServeClient", "ServeError"),
    "http": ("read_http_request", "run_in_thread", "write_http_response"),
    "pool": ("WorkerCrashed", "WorkerFleet"),
    "protocol": ("PointRequest", "ProtocolError", "parse_request"),
    "scheduler": ("DeadlineExpired", "Draining", "QueueFull", "Scheduler"),
    "server": ("ServeService", "serve_forever"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _LAZY)
