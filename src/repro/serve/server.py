"""The serve node: the service shell in front of the local scheduler.

:class:`ServeService` plugs the admission scheduler, the worker fleet
and the result cache into the shared HTTP shell
(:mod:`repro.serve.http`), which owns the connection loop, dispatch
and lifecycle.  Endpoints:

=====================  ======================================================
``POST /v1/points``    body: one point spec (:mod:`repro.serve.protocol`);
                       200 answers ``{"key", "cached", "seconds",
                       "payload"}`` where ``payload`` is byte-identical
                       to what the batch engine caches for that key
``GET /healthz``       liveness + drain state
``GET /stats``         counters, queue/cache gauges, recent time series
``GET /metrics``       Prometheus exposition text
``GET /trace``         the node's request spans as a Chrome trace
=====================  ======================================================

Error mapping: malformed spec → 400; queue full → 503 with a
``Retry-After`` header; draining → 503; per-request deadline expired →
504; worker crashed past its retry budget (or any execution error) →
500.  Responses are always JSON with an ``"error"`` field on non-200.

Graceful shutdown (SIGTERM/SIGINT or :meth:`ServeService.
request_shutdown`): stop accepting connections, answer in-flight
keep-alive requests with 503, drain the scheduler (every admitted
point finishes and lands in the cache), then stop the fleet.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from ..obs.metrics import stats_to_prometheus
from ..sim.parallel import ResultCache
from .http import HttpService, Response
from .ops import RetryLater, hit_ratio
from .pool import WorkerCrashed, WorkerFleet
from .protocol import PointRequest
from .scheduler import DeadlineExpired, Draining, Scheduler


class ServeService(HttpService):
    """One long-lived simulation service instance."""

    prefix = role = "serve"
    request_span = ("http", "serve.request")
    request_event = "request"
    request_log_fields = ("key", "cached", "error")

    def __init__(self, host: str = "127.0.0.1", port: int = 7341,
                 jobs: int = 2, cache_dir=None,
                 max_queue: int = 64, max_inflight: Optional[int] = None,
                 cache_max_bytes: Optional[int] = None,
                 node_id: Optional[str] = None,
                 ready_callback=None) -> None:
        super().__init__(host, port,
                         f"serve:{node_id}" if node_id else "serve",
                         ready_callback)
        self.node_id = node_id    # cluster identity; None = standalone
        self.fleet = WorkerFleet(jobs=jobs, stats=self.stats)
        cache = (ResultCache(cache_dir, max_bytes=cache_max_bytes)
                 if cache_dir is not None else None)
        self.scheduler = Scheduler(self.fleet, cache=cache,
                                   max_queue=max_queue,
                                   max_inflight=max_inflight,
                                   stats=self.stats,
                                   spans=self.spans, log=self.log)
        self.slicer.add_probe("queue_depth",
                              lambda: self.scheduler.queue_depth)
        self.slicer.add_probe("inflight",
                              lambda: self.scheduler.inflight)
        self.slicer.add_probe("cache_hit_ratio", lambda: hit_ratio(
            self.stats.counter("serve.cache.hits"),
            self.stats.counter("serve.cache.misses")))

    # -- ops payloads --------------------------------------------------
    def healthz_payload(self) -> Dict[str, object]:
        """Liveness *and* readiness in one probe.

        ``live`` is unconditional — answering at all proves the event
        loop is turning.  ``ready`` means "send me new work": a
        draining node (SIGTERM received, scheduler finishing its
        in-flight points) is still live but *not* ready, which is what
        tells the cluster router to fail its keys over to the next
        replica instead of feeding a dying node.
        """
        draining = self.scheduler.draining
        return {
            "status": "draining" if draining else "ok",
            "live": True,
            "ready": not draining,
            "node": self.node_id,
            "uptime_seconds": round(self.slicer.uptime_seconds, 3),
        }

    def stats_payload(self) -> Dict[str, object]:
        """The /stats JSON: aggregate counters + queue/cache gauges +
        recent time series."""
        stats = self.stats
        scheduler = self.scheduler
        hits = stats.counter("serve.cache.hits")
        misses = stats.counter("serve.cache.misses")
        cache: Dict[str, object] = {
            "configured": scheduler.cache is not None,
            "hits": hits,
            "misses": misses,
            "hit_ratio": hit_ratio(hits, misses),
        }
        if scheduler.cache is not None:
            cache["entries"] = len(scheduler.cache)
            cache["size_bytes"] = scheduler.cache.size_bytes()
            cache["max_bytes"] = scheduler.cache.max_bytes
            # the store's own view: lookups it served (hits/misses of
            # every get(), scheduler or engine) and entries evicted by
            # the size cap — per-node cache effectiveness for the
            # cluster's merged /stats
            cache["store_hits"] = scheduler.cache.hits
            cache["store_misses"] = scheduler.cache.misses
            cache["evictions"] = scheduler.cache.evictions
        return {
            "node": self.node_id,
            "uptime_seconds": round(self.slicer.uptime_seconds, 3),
            "draining": scheduler.draining,
            "queue_depth": scheduler.queue_depth,
            "inflight": scheduler.inflight,
            "max_queue": scheduler.max_queue,
            "max_inflight": scheduler.max_inflight,
            "jobs": self.fleet.jobs,
            "cache": cache,
            "counters": stats.dump(),
            "timeseries": self.slicer.series(),
        }

    def metrics_payload(self) -> str:
        """The node's ``/metrics`` exposition text: every Stats counter
        and histogram plus point-in-time gauges, labelled with the node
        id so fleet scrapes stay distinguishable."""
        scheduler = self.scheduler
        gauges: Dict[str, float] = {
            "queue_depth": scheduler.queue_depth,
            "inflight": scheduler.inflight,
            "draining": 1 if scheduler.draining else 0,
            "uptime_seconds": round(self.slicer.uptime_seconds, 3),
        }
        if scheduler.cache is not None:
            gauges["cache_entries"] = len(scheduler.cache)
            gauges["cache_size_bytes"] = scheduler.cache.size_bytes()
        labels = {"node": self.node_id} if self.node_id else {}
        return stats_to_prometheus(self.stats, namespace="repro",
                                   labels=labels, gauges=gauges)

    # -- backend -------------------------------------------------------
    async def _drain(self) -> None:
        self.log.log("serve.drain.begin",
                     queue_depth=self.scheduler.queue_depth,
                     inflight=self.scheduler.inflight)
        await self.scheduler.drain()

    def _close(self) -> None:
        self.fleet.shutdown()

    async def _submit(self, request: PointRequest, body: bytes,
                      request_id: str) -> Response:
        try:
            result = await self.scheduler.submit(request.point,
                                                 deadline=request.deadline,
                                                 request_id=request_id)
        except Draining:
            return 503, {"error": "service is draining"}, \
                {"Retry-After": "5"}
        except DeadlineExpired as error:
            return 504, {"error": str(error)}, {}
        except WorkerCrashed as error:
            return 500, {"error": str(error)}, {}
        except RetryLater:
            raise                 # QueueFull: the shell answers 503
        except Exception as error:  # noqa: BLE001 — surface, don't die
            return 500, {"error": f"{type(error).__name__}: {error}"}, {}
        result = dict(result)
        result["kind"] = request.point.kind
        return 200, result, {}


def serve_forever(host: str = "127.0.0.1", port: int = 7341,
                  jobs: int = 2, cache_dir=None, max_queue: int = 64,
                  max_inflight: Optional[int] = None,
                  cache_max_bytes: Optional[int] = None,
                  node_id: Optional[str] = None,
                  announce=None, log_json: bool = False) -> int:
    """Blocking entry point for ``repro serve``: build a service, run
    it until SIGTERM/SIGINT, drain, and return 0.  ``log_json``
    switches the process (and its forked pool workers) to structured
    one-JSON-object-per-line logs (:mod:`repro.obs.jsonlog`)."""
    if log_json:
        from ..obs import jsonlog
        jsonlog.enable(node_id=node_id)

    service = ServeService(host=host, port=port, jobs=jobs,
                           cache_dir=cache_dir, max_queue=max_queue,
                           max_inflight=max_inflight,
                           cache_max_bytes=cache_max_bytes,
                           node_id=node_id,
                           ready_callback=announce)
    asyncio.run(service.run())
    return 0
