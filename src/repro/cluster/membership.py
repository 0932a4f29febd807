"""Cluster membership: who the nodes are and which are ready.

The member list is static for a router's lifetime (nodes are addressed
by ``node_id`` and a fixed host:port — the local fleet restarts a dead
node on the same address), but *readiness* is live state fed from two
directions:

* **actively** — a periodic probe of each node's ``/healthz``.  The
  serve tier distinguishes liveness from readiness: a draining node
  answers ``{"live": true, "ready": false}``, and the prober marks it
  unready so the router stops handing it new work while its in-flight
  points finish;
* **passively** — every failed forward (connection refused, timeout,
  garbage response) counts against the node, so a SIGKILLed node stops
  receiving traffic on the very next request instead of waiting out a
  probe interval.

Transitions are asymmetric by design: ``fail_threshold`` consecutive
failures take a node out of rotation, one successful ``ready: true``
probe puts it back.  A failure that takes a node out, or that befalls
a node already out, also abandons the forwards still waiting on it, so
they fail over at once; a node that reports itself draining is only
left out of new routing, and finishes the work it holds.  Flapping costs little — the ring's preference
order is stable, so a wrongly-unready node only shifts keys one
replica down, and every node can compute any point (caches make homes
*warm*, not *authoritative*).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..common.stats import Stats
from .transport import ConnectionPool, request_json


@dataclass(frozen=True)
class NodeInfo:
    """Address of one serve node."""

    node_id: str
    host: str
    port: int

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


class _Health:
    """Mutable readiness record for one node."""

    __slots__ = ("info", "ready", "failures", "probes", "last_error")

    def __init__(self, info: NodeInfo) -> None:
        self.info = info
        # optimistic start: the fleet boots nodes before the router,
        # and a wrong guess self-corrects on the first forward/probe
        self.ready = True
        self.failures = 0
        self.probes = 0
        self.last_error = ""


class Membership:
    """Live readiness view over a fixed node list.

    Probes go through ``pool`` when one is given (the router's own)."""

    def __init__(self, nodes: Iterable[NodeInfo], fail_threshold: int = 2,
                 probe_timeout: float = 2.0,
                 stats: Optional[Stats] = None,
                 pool: Optional[ConnectionPool] = None) -> None:
        if fail_threshold < 1:
            raise ValueError(
                f"fail_threshold must be >= 1, got {fail_threshold}")
        self._health: Dict[str, _Health] = {}
        for info in nodes:
            if info.node_id in self._health:
                raise ValueError(f"duplicate node id {info.node_id!r}")
            self._health[info.node_id] = _Health(info)
        if not self._health:
            raise ValueError("membership needs at least one node")
        self.fail_threshold = fail_threshold
        self.probe_timeout = probe_timeout
        self.stats = stats if stats is not None else Stats()
        self.pool = pool

    # -- lookups -------------------------------------------------------
    def node(self, node_id: str) -> NodeInfo:
        return self._health[node_id].info

    @property
    def node_ids(self) -> List[str]:
        return list(self._health)

    def is_ready(self, node_id: str) -> bool:
        return self._health[node_id].ready

    def ready_ids(self) -> List[str]:
        return [node_id for node_id, health in self._health.items()
                if health.ready]

    # -- state transitions ---------------------------------------------
    def mark_success(self, node_id: str, ready: bool = True) -> None:
        """A probe (or forward) reached the node.  ``ready`` is the
        node's own claim — a draining node is alive but not ready."""
        health = self._health[node_id]
        health.failures = 0
        health.last_error = ""
        if ready and not health.ready:
            self.stats.inc("cluster.node.recovered")
        if not ready and health.ready:
            self.stats.inc("cluster.node.unready")
        health.ready = ready

    def mark_failure(self, node_id: str, error: str = "") -> None:
        """A probe or forward failed; past the threshold the node
        leaves the routing rotation until a probe succeeds.  Every
        failure of a node out of rotation abandons the exchanges still
        waiting on it through ``pool``: a hung node's forwards fail
        over now, not at their timeout, including a last-ditch forward
        sent to it after it left the rotation."""
        health = self._health[node_id]
        health.failures += 1
        health.last_error = error
        self.stats.inc("cluster.node.failures")
        if health.ready and health.failures >= self.fail_threshold:
            health.ready = False
            self.stats.inc("cluster.node.unready")
        if not health.ready and self.pool is not None:
            self.pool.abandon(health.info.host, health.info.port)

    # -- active probing ------------------------------------------------
    async def probe(self, node_id: str) -> bool:
        """One ``/healthz`` round trip; updates state, returns
        readiness."""
        health = self._health[node_id]
        health.probes += 1
        info = health.info
        try:
            status, _headers, payload = await request_json(
                info.host, info.port, "GET", "/healthz",
                timeout=self.probe_timeout, pool=self.pool)
        except (OSError, asyncio.TimeoutError, ValueError) as error:
            self.mark_failure(node_id,
                              f"{type(error).__name__}: {error}")
            return False
        if status != 200:
            self.mark_failure(node_id, f"healthz answered {status}")
            return False
        self.mark_success(node_id, ready=bool(payload.get("ready", True)))
        return health.ready

    async def check_once(self) -> Dict[str, bool]:
        """Probe every node concurrently; node id → ready."""
        node_ids = self.node_ids
        ready = await asyncio.gather(
            *(self.probe(node_id) for node_id in node_ids))
        return dict(zip(node_ids, ready))

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-node state for the router's ``/healthz``."""
        return {
            node_id: {
                "address": health.info.address,
                "ready": health.ready,
                "consecutive_failures": health.failures,
                "probes": health.probes,
                "last_error": health.last_error,
            }
            for node_id, health in self._health.items()
        }
