"""The cluster front-end: consistent-hash routing with failover.

One :class:`RouterService` sits in front of N ``repro.serve`` nodes
and turns them into a degradable fleet:

* **Placement** — a request's sha256 spec key is consistent-hashed
  onto the ring (:mod:`repro.cluster.placement`); its first
  ``replication`` distinct nodes are the *home set*, so repeats of a
  key land on the same nodes and hit their warm on-disk caches.
* **Failover** — candidates are tried in preference order, filtered by
  live readiness (:mod:`repro.cluster.membership`): home replicas
  first, then ready non-home nodes as spillover (any node can compute
  any point — homes are warm, not authoritative), then the raw home
  set as a last ditch.  A shed (503), a 5xx, a timeout, or a
  connection failure moves to the next candidate; a connection-level
  failure also marks the node, so a SIGKILLed process leaves the
  rotation on the very next request.  A forward still waiting on a
  node when the health loop takes it out of rotation (a hung node), or
  sent to it as a last ditch while it is out, is abandoned at the
  node's next failed probe and moves on as a connection failure,
  without waiting out its timeout.
* **Retry discipline** — after one full pass over the candidates the
  router sleeps the repo's one shared backoff curve
  (:func:`repro.faults.exponential_backoff`), stretched to the largest
  ``Retry-After`` any replica answered, re-resolves candidates
  (membership may have changed under it — that is the point) and tries
  again, a bounded number of times.  Deterministic rejections
  (400/404/405) are returned immediately, never retried.
* **Coalescing** — concurrent requests for one key share a single
  forward, so a thundering herd on a cold key charges one replica
  once, not R replicas N times.  (Each node's scheduler coalesces its
  own clients too; this extends the guarantee across the fleet.)
* **Kept connections** — forwards, health probes and the ``/stats``
  and ``/metrics`` fan-outs share the router's pool of keep-alive
  connections (:class:`~repro.cluster.transport.ConnectionPool`), so
  a warm request pays for no TCP connect; ``_close`` closes the idle
  ones.
* **One cluster view** — ``/stats`` folds every reachable node's
  counters into a single registry via :meth:`Stats.merge
  <repro.common.stats.Stats.merge>`, both summed (``cluster``) and
  per-node-prefixed (``nodes.<id>.*``), alongside the router's own
  routing counters.

The router runs on the same HTTP service shell as a node
(:mod:`repro.serve.http`): same endpoints, same wire contract, same
lifecycle.  It plugs in forward-with-failover as its submit step, the
health loop as a background task, and the fleet-wide payloads, so a
:class:`~repro.serve.client.ServeClient` pointed at a router needs no
changes at all.
"""

from __future__ import annotations

import asyncio
from typing import Coroutine, Dict, List, Optional, Sequence, Tuple

from ..common.stats import Stats
from ..faults import exponential_backoff
from ..obs.metrics import stats_to_prometheus
from ..serve.http import HttpService, Response
from ..serve.ops import RetryLater, hit_ratio
from ..serve.protocol import PointRequest
from .membership import Membership, NodeInfo
from .placement import HashRing
from .transport import ConnectionPool, request_json

#: node answers that mean "try the next replica" (shed, crashed point,
#: node-side deadline); anything else 4xx/2xx is final
_FAILOVER_STATUSES = frozenset({500, 502, 503, 504})


class ReplicasExhausted(RetryLater):
    """Every candidate failed on every attempt (router answers 503)."""

    def __init__(self, key: str, attempts: int,
                 retry_after: int) -> None:
        super().__init__(
            f"point {key[:12]}…: all replicas failed over "
            f"{attempts} attempt(s), retry after ~{retry_after}s",
            retry_after)


class RouterService(HttpService):
    """Sharded, replicated front-end over a fixed node list."""

    prefix = "cluster"
    role = "router"
    request_span = ("route", "route")
    request_event = "route"
    request_log_fields = ("key", "node")

    def __init__(self, nodes: Sequence[NodeInfo], replication: int = 2,
                 host: str = "127.0.0.1", port: int = 8341,
                 retries: int = 3,
                 retry_backoff_seconds: float = 0.05,
                 health_interval_seconds: float = 0.5,
                 fail_threshold: int = 2,
                 probe_timeout: float = 2.0,
                 request_timeout: float = 120.0,
                 ready_callback=None) -> None:
        nodes = list(nodes)
        if replication < 1:
            raise ValueError(
                f"replication must be >= 1, got {replication}")
        if replication > len(nodes):
            raise ValueError(
                f"replication {replication} exceeds fleet size "
                f"{len(nodes)}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        super().__init__(host, port, "router", ready_callback)
        self.replication = replication
        self.retries = retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.health_interval_seconds = health_interval_seconds
        self.request_timeout = request_timeout
        self.ring = HashRing(info.node_id for info in nodes)
        self.pool = ConnectionPool()
        self.membership = Membership(nodes,
                                     fail_threshold=fail_threshold,
                                     probe_timeout=probe_timeout,
                                     stats=self.stats, pool=self.pool)
        self._inflight: Dict[str, asyncio.Future] = {}
        self.slicer.add_probe("ready_nodes",
                              lambda: len(self.membership.ready_ids()))
        self.slicer.add_probe("inflight", lambda: len(self._inflight))

    # -- backend -------------------------------------------------------
    def _background(self) -> List[Coroutine]:
        return [self._health_forever()]

    def _ready_fields(self) -> Dict[str, object]:
        return {"nodes": len(self.membership.node_ids)}

    def _close(self) -> None:
        self.pool.close()

    async def _health_forever(self) -> None:
        while True:
            await self.membership.check_once()
            await asyncio.sleep(self.health_interval_seconds)

    def healthz_payload(self) -> Dict[str, object]:
        ready = self.membership.ready_ids()
        return {
            "status": "ok" if ready else "degraded",
            "live": True,
            "ready": bool(ready),
            "role": "router",
            "replication": self.replication,
            "ready_nodes": len(ready),
            "nodes": self.membership.snapshot(),
            "uptime_seconds": round(self.slicer.uptime_seconds, 3),
        }

    # -- routing -------------------------------------------------------
    async def _submit(self, request: PointRequest, body: bytes,
                      request_id: str) -> Response:
        # The shell parsed at the edge: a malformed spec was a 400
        # there, never a wasted forward.  The original body is
        # forwarded verbatim so the node builds the byte-identical
        # point.
        key = request.key

        future = self._inflight.get(key)
        if future is not None:
            # duplicate key in flight: ride the existing forward so
            # replicas are never double-charged for one point
            self.stats.inc("cluster.coalesced")
            self.spans.instant("route", "coalesce.join",
                               request_id=request_id, key=key)
            return await asyncio.shield(future)

        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            response = await self._forward_with_retries(key, body,
                                                        request_id)
            future.set_result(response)
            return response
        except BaseException as error:
            future.set_exception(error)
            raise
        finally:
            self._inflight.pop(key, None)
            if future.done() and not future.cancelled():
                future.exception()   # absorb if nobody coalesced

    def candidates(self, key: str) -> List[str]:
        """Failover order for a key: ready home replicas, then ready
        spillover nodes, then the unfiltered home set (a node may have
        recovered since its last probe)."""
        preference = self.ring.preference(key)
        home = preference[:self.replication]
        ready = [node_id for node_id in preference
                 if self.membership.is_ready(node_id)]
        ready_home = [n for n in ready if n in home]
        spill = [n for n in ready if n not in home]
        order = ready_home + spill
        for node_id in home:
            if node_id not in order:
                order.append(node_id)
        return order

    async def _forward_with_retries(
            self, key: str, body: bytes,
            request_id: Optional[str] = None) -> Response:
        attempts = 0
        retry_after = 0
        forward_headers = ({"X-Request-Id": request_id}
                           if request_id else None)
        for round_number in range(1, self.retries + 2):
            candidates = self.candidates(key)
            in_home = set(self.ring.replicas(key, self.replication))
            for node_id in candidates:
                attempts += 1
                if node_id not in in_home:
                    self.stats.inc("cluster.spillover")
                info = self.membership.node(node_id)
                with self.spans.span("forward", "forward",
                                     request_id=request_id, key=key,
                                     node=node_id,
                                     round=round_number) as span:
                    try:
                        status, headers, payload = await request_json(
                            info.host, info.port, "POST", "/v1/points",
                            body, timeout=self.request_timeout,
                            headers=forward_headers, pool=self.pool)
                    except (OSError, asyncio.TimeoutError,
                            ValueError) as error:
                        span["outcome"] = type(error).__name__
                        self.stats.inc("cluster.forward.errors")
                        self.membership.mark_failure(
                            node_id, f"{type(error).__name__}: {error}")
                        continue
                    span["status"] = status
                if status == 200:
                    self.stats.inc("cluster.forward.ok")
                    self.membership.mark_success(node_id)
                    payload = dict(payload)
                    payload["node"] = node_id
                    return 200, payload, {}
                if status in _FAILOVER_STATUSES:
                    self.stats.inc(f"cluster.forward.{status}")
                    if status == 503:
                        # shed: the node is alive but saturated or
                        # draining — honor its own estimate
                        hint = headers.get("retry-after")
                        if hint and hint.isdigit():
                            retry_after = max(retry_after, int(hint))
                    continue
                # deterministic rejection (400/404/405): final
                self.stats.inc("cluster.forward.rejected")
                return status, dict(payload), {}
            if round_number <= self.retries:
                self.stats.inc("cluster.retries")
                self.spans.instant("forward", "retry.round",
                                   request_id=request_id, key=key,
                                   round=round_number)
                self.log.log("retry.round", level="warning",
                             request_id=request_id, key=key,
                             round=round_number)
                delay = exponential_backoff(
                    self.retry_backoff_seconds, round_number)
                await asyncio.sleep(max(delay, retry_after))
                retry_after = 0
        raise ReplicasExhausted(key, attempts,
                                retry_after=max(retry_after, 1))

    # -- the merged cluster view ---------------------------------------
    async def _fleet_stats(self) -> Tuple[
            Stats, Dict[str, Optional[Tuple[Dict[str, object], Stats]]]]:
        """Every node's ``/stats``, fetched concurrently: the fleet's
        summed counters, and node id → ``(payload, counters)``, or
        ``None`` for an unreachable node."""
        async def fetch(info: NodeInfo):
            try:
                status, _headers, payload = await request_json(
                    info.host, info.port, "GET", "/stats",
                    timeout=self.membership.probe_timeout,
                    pool=self.pool)
            except (OSError, asyncio.TimeoutError, ValueError):
                return None
            if status != 200:
                return None
            counters = payload.get("counters", {})
            return payload, Stats.from_flat(
                counters if isinstance(counters, dict) else {})

        node_ids = self.membership.node_ids
        fetched = await asyncio.gather(
            *(fetch(self.membership.node(node_id)) for node_id in node_ids))
        totals = Stats()
        for row in fetched:
            if row is not None:
                totals.merge(row[1])
        return totals, dict(zip(node_ids, fetched))

    async def stats_payload(self) -> Dict[str, object]:
        """``/stats``: every reachable node's registry folded into one
        via :meth:`Stats.merge` — ``cluster.counters`` sums the fleet,
        ``nodes.<id>.*`` keeps the per-node split, and the cache block
        aggregates hit/miss/eviction effectiveness."""
        totals, rows = await self._fleet_stats()
        by_node = Stats()
        nodes: Dict[str, object] = {}
        cache = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0,
                 "size_bytes": 0}
        for node_id, row in rows.items():
            if row is None:
                nodes[node_id] = {"reachable": False}
                continue
            payload, flat = row
            by_node.merge(flat, prefix=f"{node_id}.")
            node_cache = payload.get("cache", {})
            if isinstance(node_cache, dict):
                for name in cache:
                    value = node_cache.get(name, 0)
                    if isinstance(value, (int, float)) \
                            and not isinstance(value, bool):
                        cache[name] += value
            nodes[node_id] = {
                "reachable": True,
                "ready": self.membership.is_ready(node_id),
                "draining": payload.get("draining"),
                "queue_depth": payload.get("queue_depth"),
                "inflight": payload.get("inflight"),
                "uptime_seconds": payload.get("uptime_seconds"),
                "cache": node_cache,
            }
        cache["hit_ratio"] = hit_ratio(cache["hits"], cache["misses"])
        return {
            "role": "router",
            "replication": self.replication,
            "ready_nodes": len(self.membership.ready_ids()),
            "inflight": len(self._inflight),
            "router": {"counters": self.stats.dump(),
                       "timeseries": self.slicer.series()},
            "cluster": {"counters": totals.dump(), "cache": cache},
            "nodes": nodes,
            "counters_by_node": by_node.dump(),
        }

    async def metrics_payload(self) -> str:
        """``/metrics``: the router's own registry (``repro_*``,
        labelled ``role="router"``) followed by the fleet's summed
        counters rebuilt via :meth:`Stats.from_flat` + :meth:`merge`
        under the ``repro_fleet_*`` namespace — one scrape answers
        both "how is routing going" and "what is the fleet doing"."""
        own = stats_to_prometheus(
            self.stats, namespace="repro",
            labels={"role": "router"},
            gauges={
                "ready_nodes": len(self.membership.ready_ids()),
                "nodes_total": len(self.membership.node_ids),
                "inflight": len(self._inflight),
                "uptime_seconds": round(self.slicer.uptime_seconds, 3),
            })
        totals, rows = await self._fleet_stats()
        reachable = sum(row is not None for row in rows.values())
        fleet = stats_to_prometheus(
            totals, namespace="repro_fleet",
            labels={"role": "router"},
            gauges={"reachable_nodes": reachable})
        return own + fleet
