"""repro.cluster — the sharded, replicated, chaos-tested serving tier.

``repro.serve`` (one process) becomes a degradable fleet: a
consistent-hash router front-end over N serve nodes with R-way
replication, active health checking, failover + bounded-backoff retry,
cross-fleet request coalescing, and one merged ``/stats`` view.  The
same resilience discipline the NVM model applies at cycle scale —
write-verify-retry, idempotent reissue of lossy acks — lifted to the
request path: requests are content-keyed and idempotent, so the router
may retry and fail over freely without ever double-charging or
diverging from the batch engine's byte-exact payloads.

Pieces:

* :mod:`~repro.cluster.placement` — the consistent-hash ring mapping
  sha256 spec keys to home sets of R nodes,
* :mod:`~repro.cluster.membership` — node identity plus live readiness
  (active ``/healthz`` probes + passive forward failures),
* :mod:`~repro.cluster.router` — the asyncio front-end: routing,
  failover, retry, coalescing, merged cluster stats,
* :mod:`~repro.cluster.transport` — the minimal async HTTP client the
  router forwards through,
* :mod:`~repro.cluster.fleet` — a local N-process fleet with real
  SIGKILL / SIGSTOP / SIGTERM chaos hooks,
* :mod:`~repro.cluster.chaos` — the chaos harness: seeded kill/
  restart/hang plans under live traffic, checked for zero failures and
  byte-identity against the batch engine.

See ``docs/cluster.md`` for topology and failover semantics.
"""

from .._lazy import lazy_exports

# ``repro cluster run`` imports the fleet and the router, not the chaos
# harness; see repro._lazy.
_LAZY = {
    "chaos": ("ChaosAction", "ClusterChaosReport", "default_grid",
              "make_plan", "run_chaos"),
    "fleet": ("LocalFleet", "NodeProcess"),
    "membership": ("Membership", "NodeInfo"),
    "placement": ("HashRing",),
    "router": ("ReplicasExhausted", "RouterService"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _LAZY)
