"""Operational helpers shared by the serve node and the cluster router.

Wall-clock time-sliced telemetry, request correlation ids, the cache
hit ratio, and the retry-later refusal.

Time slicing reuses the observability layer's
:class:`~repro.obs.sampler.EpochSampler` unchanged: the sampler is
clock-agnostic — it samples registered probes whenever its "advance
hook" crosses an epoch boundary — so the service drives it with
milliseconds-since-start instead of simulated cycles and gets the same
bounded-ring, last-boundary-stamped time series the simulator's tracer
gets.  ``/stats`` exposes the recent series (queue depth, in-flight
points, cache hit ratio) alongside the aggregate counters, answering
"what is the server doing *lately*", not just "since boot".
"""

from __future__ import annotations

import asyncio
import re
import time
import uuid
from typing import Callable, Dict, List, Mapping, Optional

from ..obs.sampler import EpochSampler
from ..obs.tracer import Tracer


#: wall-clock sampling period of the /stats time series
EPOCH_MS = 1000


class TimeSlicer:
    """Wall-clock driver for an :class:`EpochSampler`.

    Probes are zero-argument callables; every :data:`EPOCH_MS` of wall
    time a periodic tick records one value per probe into a bounded
    tracer ring (newest kept), giving /stats a fixed-memory sliding
    window regardless of uptime.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.tracer = Tracer(capacity=capacity)
        self.sampler = EpochSampler(self.tracer, epoch=EPOCH_MS)
        self._start = time.monotonic()

    def add_probe(self, name: str, probe: Callable[[], object]) -> None:
        self.sampler.add_probe("serve", "ops", name, probe)

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._start

    def tick(self) -> None:
        """Advance the sampler to 'now' (milliseconds since start)."""
        self.sampler.on_advance(int(self.uptime_seconds * 1000))

    def series(self) -> Dict[str, List[List[float]]]:
        """name → [[ms_since_start, value], ...], oldest first."""
        out: Dict[str, List[List[float]]] = {}
        for event in self.tracer.events():
            if event.get("ph") != "C":
                continue
            value = event.get("args", {}).get("value", 0)
            out.setdefault(event["name"], []).append(
                [event["ts"], value])
        return out


async def tick_forever(slicer: TimeSlicer) -> None:
    """Drive a :class:`TimeSlicer` on a dedicated periodic task.

    Sampling must not be coupled to traffic or to other periodic work
    (health probes, request handling): a slicer ticked only when
    something else happens leaves holes in the queue-depth/occupancy
    series exactly when the interesting thing is that *nothing* is
    happening.  The service shell (:mod:`repro.serve.http`) runs this
    as its own asyncio task."""
    while True:
        slicer.tick()
        await asyncio.sleep(EPOCH_MS / 1000)


#: accepted caller-supplied request-id shape: opaque but greppable,
#: safe in headers/log lines/trace args, bounded
REQUEST_ID_RE = re.compile(r"[A-Za-z0-9._:-]{1,128}\Z")


def ensure_request_id(headers: Optional[Mapping[str, str]] = None) -> str:
    """The request's correlation id: the caller's ``X-Request-Id``
    when present and well-formed, else a fresh opaque id.  Malformed
    ids are replaced, not rejected — correlation is best-effort
    telemetry and must never fail a request."""
    if headers:
        supplied = headers.get("x-request-id", "")
        if supplied and REQUEST_ID_RE.match(supplied):
            return supplied
    return uuid.uuid4().hex


class RetryLater(Exception):
    """A refusal for now, not a failure: the service shell answers 503
    with the error, a ``retry_after`` field and a ``Retry-After``
    header (seconds)."""

    def __init__(self, message: str, retry_after: int) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def hit_ratio(hits: float, misses: float) -> float:
    """Cache hits over lookups as served on the wire; 0.0 before the
    first lookup."""
    lookups = hits + misses
    return round(hits / lookups, 6) if lookups else 0.0
