"""Admission controller and request batcher for the serve front-end.

Three policies between the socket and the worker fleet:

* **Coalescing** — requests are identified by their engine spec key
  (a content hash of the full point spec), so two clients asking for
  the same point share one computation: the second request attaches to
  the first one's future instead of entering the queue.  The batch
  engine already deduplicates within a batch; this extends the same
  guarantee across concurrent clients.

* **Admission control** — at most ``max_inflight`` points compute at
  once (a semaphore over the fleet) and at most ``max_queue`` distinct
  points may wait for a slot.  A new point past that is *shed* with
  :class:`QueueFull`, carrying a ``Retry-After`` estimate derived from
  the observed mean point time — refusing cheap beats queueing
  expensive, the standard overload posture for a service whose work
  items take seconds.

* **Cache-first fast path** — a warm point is answered straight from
  the shared on-disk :class:`~repro.sim.parallel.ResultCache` without
  touching admission at all, so cache hits stay fast (well under the
  100 ms target) even when the compute queue is saturated.

Every waiter carries its own deadline: expiry raises
:class:`DeadlineExpired` for *that waiter only* — the computation is
shielded and keeps running for the others (and for the cache).  When
the last waiter of a not-yet-started point gives up, the point is
cancelled and its queue slot freed.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Dict, List, Optional

from ..common.stats import Stats
from ..obs.jsonlog import NULL_LOG
from ..obs.spans import NULL_SPANS
from ..sim.parallel import ResultCache
from .ops import RetryLater


class QueueFull(RetryLater):
    """Load shed: the admission queue is full (answer 503)."""

    def __init__(self, retry_after: int) -> None:
        super().__init__(f"queue full, retry after ~{retry_after}s",
                         retry_after)


class Draining(Exception):
    """The service is shutting down; no new work (answer 503)."""


class DeadlineExpired(Exception):
    """This waiter's deadline passed first (answer 504)."""


class _Entry:
    """One admitted point: its task plus everyone waiting on it."""

    __slots__ = ("key", "point", "future", "task", "waiters", "started",
                 "request_ids")

    def __init__(self, key: str, point) -> None:
        self.key = key
        self.point = point
        self.future: asyncio.Future = \
            asyncio.get_running_loop().create_future()
        self.task: Optional[asyncio.Task] = None
        self.waiters = 0
        self.started = False
        # correlation ids of every waiter that joined this point —
        # the first one travels with the computation into the pool
        self.request_ids: List[str] = []


class Scheduler:
    """Coalescing admission controller in front of a worker fleet."""

    def __init__(self, fleet, cache: Optional[ResultCache] = None,
                 max_queue: int = 64, max_inflight: Optional[int] = None,
                 stats: Optional[Stats] = None,
                 spans=None, log=None) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.fleet = fleet
        self.cache = cache
        self.max_queue = max_queue
        self.max_inflight = (max_inflight if max_inflight is not None
                             else fleet.jobs)
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}")
        self.stats = stats if stats is not None else Stats()
        self.spans = spans if spans is not None else NULL_SPANS
        self.log = log if log is not None else NULL_LOG
        # created lazily inside the running loop: on 3.9 asyncio
        # primitives bind their loop at construction time, and the
        # scheduler is built before the service's loop exists
        self._sem: Optional[asyncio.Semaphore] = None
        self._entries: Dict[str, _Entry] = {}
        self._queued = 0
        self._draining = False

    # -- introspection (the /stats endpoint reads these) ---------------
    @property
    def queue_depth(self) -> int:
        """Admitted points still waiting for a compute slot."""
        return self._queued

    @property
    def inflight(self) -> int:
        """Admitted points not yet finished (queued + computing)."""
        return len(self._entries)

    @property
    def draining(self) -> bool:
        return self._draining

    def _retry_after(self) -> int:
        """Seconds a shed client should wait: the backlog divided by
        the fleet width, in units of the observed mean point time."""
        mean = self.stats.mean("serve.point.seconds") or 1.0
        waves = math.ceil((self._queued + 1) / self.max_inflight)
        return max(1, math.ceil(waves * mean))

    # -- the one public entry ------------------------------------------
    async def submit(self, point,
                     deadline: Optional[float] = None,
                     request_id: Optional[str] = None
                     ) -> Dict[str, object]:
        """Resolve one point to its response dict
        (``{"key", "payload", "cached", "seconds"}``), coalescing,
        admitting, computing, and caching as needed.  ``request_id``
        is pure correlation: it tags this waiter's spans/logs (and,
        for the first waiter, the pool execution) without ever
        entering the computation or its cached payload."""
        if self._draining:
            self.stats.inc("serve.rejected.draining")
            raise Draining("service is draining")
        key = point.key

        entry = self._entries.get(key)
        if entry is None:
            # cache-first: warm points bypass admission entirely
            if self.cache is not None:
                with self.spans.span("cache", "cache.get",
                                     request_id=request_id, key=key):
                    cached = self.cache.get(key)
                if cached is not None:
                    self.stats.inc("serve.cache.hits")
                    self.spans.instant("cache", "cache.hit",
                                       request_id=request_id, key=key)
                    return {"key": key, "payload": cached,
                            "cached": True, "seconds": 0.0}
                self.stats.inc("serve.cache.misses")
            if self._queued >= self.max_queue:
                self.stats.inc("serve.shed")
                self.spans.instant("scheduler", "shed",
                                   request_id=request_id, key=key,
                                   queue_depth=self._queued)
                self.log.log("shed", level="warning",
                             request_id=request_id, key=key,
                             queue_depth=self._queued)
                raise QueueFull(self._retry_after())
            entry = self._admit(key, point)
            if request_id is not None:
                entry.request_ids.append(request_id)
        else:
            self.stats.inc("serve.coalesced")
            if request_id is not None:
                entry.request_ids.append(request_id)
            self.spans.instant("scheduler", "coalesce.join",
                               request_id=request_id, key=key,
                               waiters=entry.waiters + 1)
            self.log.log("coalesce.join", request_id=request_id,
                         key=key, waiters=entry.waiters + 1)

        entry.waiters += 1
        try:
            shielded = asyncio.shield(entry.future)
            if deadline is None:
                return await shielded
            try:
                return await asyncio.wait_for(shielded, deadline)
            except asyncio.TimeoutError:
                self.stats.inc("serve.deadline_expired")
                raise DeadlineExpired(
                    f"deadline of {deadline:.3f}s expired for "
                    f"point {key[:12]}…") from None
        finally:
            entry.waiters -= 1
            if (entry.waiters == 0 and not entry.started
                    and not entry.future.done()):
                # nobody is waiting and it never started: cancel it
                # rather than burn a worker on an abandoned request
                entry.task.cancel()

    def _admit(self, key: str, point) -> _Entry:
        entry = _Entry(key, point)
        self._entries[key] = entry
        self._queued += 1
        entry.task = asyncio.create_task(self._run(entry))
        self.stats.inc("serve.admitted")
        return entry

    async def _run(self, entry: _Entry) -> None:
        if self._sem is None:
            self._sem = asyncio.Semaphore(self.max_inflight)
        # the first waiter's id tags the whole computation
        rid = entry.request_ids[0] if entry.request_ids else None
        try:
            wait_start = time.perf_counter()
            with self.spans.span("scheduler", "admission.wait",
                                 request_id=rid, key=entry.key):
                await self._sem.acquire()
            self.stats.hist(
                "serve.admission.wait.ms",
                (time.perf_counter() - wait_start) * 1000)
            try:
                self._queued -= 1
                entry.started = True
                with self.spans.span("pool", "pool.execute",
                                     request_id=rid, key=entry.key):
                    key, payload, seconds = await self.fleet.execute(
                        entry.point, request_id=rid)
                self.stats.inc("serve.executed")
                self.stats.hist("serve.point.seconds", seconds)
                if self.cache is not None:
                    with self.spans.span("cache", "cache.put",
                                         request_id=rid, key=key):
                        self.cache.put(key, entry.point.spec(), payload)
                entry.future.set_result(
                    {"key": key, "payload": payload,
                     "cached": False, "seconds": seconds})
            finally:
                self._sem.release()
        except asyncio.CancelledError:
            self.stats.inc("serve.cancelled")
            if not entry.future.done():
                entry.future.cancel()
            raise
        except Exception as error:  # noqa: BLE001 — report to waiters
            self.stats.inc("serve.errors")
            if not entry.future.done():
                entry.future.set_exception(error)
        finally:
            if not entry.started:
                self._queued -= 1
            self._entries.pop(entry.key, None)
            # an abandoned point's exception has no consumer; mark it
            # retrieved so the loop does not log "never retrieved"
            if entry.waiters == 0 and entry.future.done() \
                    and not entry.future.cancelled():
                entry.future.exception()

    # -- shutdown ------------------------------------------------------
    async def drain(self) -> None:
        """Stop admitting, then wait for every in-flight point.

        Idempotent; after it returns, submit() raises
        :class:`Draining` and the caller may shut the fleet down."""
        self._draining = True
        tasks = [entry.task for entry in list(self._entries.values())
                 if entry.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
