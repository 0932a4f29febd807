"""Cluster chaos: kill, hang, and restart nodes under live traffic.

The simulator-level chaos harness (:mod:`repro.sim.chaos`) proves the
*modelled* hardware recovers from faults; this one proves the *serving
tier* does.  It boots a real :class:`~repro.cluster.fleet.LocalFleet`
plus a :class:`~repro.cluster.router.RouterService`, drives a grid of
point specs through the router while a seeded plan SIGKILLs, SIGSTOPs,
and restarts nodes mid-grid, and then holds the run to the same two
standards the memory model is held to:

1. **zero client-visible failures** — every request eventually
   succeeds through failover + retry (the request-path analogue of
   write-verify-retry and lossy-ack reissue);
2. **byte-identical payloads** — each routed answer must serialize
   exactly as the batch engine's payload for the same spec key, no
   matter which replica computed it or how many died along the way.

Plans are deterministic: an explicit list of :class:`ChaosAction`, or
:func:`make_plan` derived from a seed.  Actions fire *between*
requests ("after request i"), so a given (specs, plan) pair replays
the same schedule every run.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..serve.client import ServeClient, ServeError
from ..serve.http import run_in_thread
from ..serve.protocol import parse_request
from ..sim.parallel import execute_point
from .fleet import LocalFleet
from .router import RouterService

#: what a plan may do to a node
ACTIONS = ("kill", "restart", "hang", "resume")


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled disturbance: before request ``after_request``
    (0-based) is submitted, apply ``action`` to node ``node``."""

    after_request: int
    action: str
    node: int

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"action must be one of {ACTIONS}, "
                             f"got {self.action!r}")


@dataclass
class RequestOutcome:
    """How one spec fared through the router."""

    index: int
    key: str
    node: Optional[str] = None
    cached: Optional[bool] = None
    payload: Optional[Dict[str, object]] = None
    error: str = ""
    payload_matches: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class ClusterChaosReport:
    """Outcome of one chaos run."""

    nodes: int
    replication: int
    plan: List[ChaosAction]
    outcomes: List[RequestOutcome] = field(default_factory=list)
    seconds: float = 0.0
    verified: bool = False

    @property
    def failures(self) -> List[RequestOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def mismatches(self) -> List[RequestOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.payload_matches is False]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.mismatches

    def format(self) -> str:
        lines = [
            f"cluster chaos: {len(self.outcomes)} requests over "
            f"{self.nodes} nodes (replication {self.replication}), "
            f"{len(self.plan)} chaos action(s), {self.seconds:.1f}s",
        ]
        for action in self.plan:
            lines.append(f"  plan: {action.action} node{action.node} "
                         f"before request {action.after_request}")
        for outcome in self.outcomes:
            state = "FAIL" if outcome.error else (
                "MISMATCH" if outcome.payload_matches is False else "ok")
            where = outcome.node or "-"
            cached = {True: " warm", False: " cold",
                      None: ""}[outcome.cached]
            detail = f" ({outcome.error})" if outcome.error else ""
            lines.append(f"  [{outcome.index:>3}] {outcome.key[:12]}… "
                         f"-> {where}{cached}: {state}{detail}")
        lines.append(
            f"  failures={len(self.failures)} "
            f"mismatches={len(self.mismatches)} "
            f"verified={'yes' if self.verified else 'no'} "
            f"-> {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def default_grid(points: int = 9, operations: int = 8,
                 workloads: Sequence[str] = ("sps", "hashtable",
                                             "queue")
                 ) -> List[Dict[str, object]]:
    """A small deterministic spec grid: distinct keys (different seeds
    and workloads) so routing spreads across the ring."""
    return [
        {"workload": workloads[index % len(workloads)],
         "scheme": "txcache", "operations": operations,
         "seed": 1000 + index, "config": {"num_cores": 1}}
        for index in range(points)
    ]


def make_plan(seed: int, requests: int, nodes: int,
              hangs: bool = False) -> List[ChaosAction]:
    """Seeded deterministic plan: one SIGKILL mid-grid on a random
    node, its restart ~two-thirds through, and (optionally) a
    hang/resume pair on a different node.  At most one node is down at
    any moment, so a replication-2 fleet must see zero failures."""
    rng = random.Random(seed)
    victim = rng.randrange(nodes)
    kill_at = max(1, requests // 3)
    restart_at = max(kill_at + 1, (2 * requests) // 3)
    plan = [ChaosAction(kill_at, "kill", victim),
            ChaosAction(restart_at, "restart", victim)]
    if hangs and nodes > 1:
        other = rng.choice([index for index in range(nodes)
                            if index != victim])
        hang_at = max(restart_at + 1, requests - 2)
        plan.append(ChaosAction(hang_at, "hang", other))
        plan.append(ChaosAction(min(hang_at + 1, requests), "resume",
                                other))
    return plan


def run_chaos(specs: Sequence[Dict[str, object]], *,
              cache_root, nodes: int = 3, replication: int = 2,
              jobs: int = 1, plan: Optional[Sequence[ChaosAction]] = None,
              seed: int = 0, hangs: bool = False,
              client_retries: int = 6,
              retry_backoff_seconds: float = 0.1,
              request_timeout: float = 30.0,
              health_interval_seconds: float = 0.25,
              verify: bool = True,
              progress=None) -> ClusterChaosReport:
    """Boot fleet + router, run the grid under the plan, verify.

    Every spec is submitted sequentially through the router with
    client-side bounded retry; due chaos actions fire between
    submissions.  With ``verify=True`` each unique key's payload is
    recomputed in-process via the batch engine's
    :func:`~repro.sim.parallel.execute_point` and compared
    byte-for-byte (``json.dumps``) against the routed answer.
    """
    specs = list(specs)
    if plan is None:
        plan = make_plan(seed, len(specs), nodes, hangs=hangs)
    plan = sorted(plan, key=lambda action: action.after_request)
    due = list(plan)

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    report = ClusterChaosReport(nodes=nodes, replication=replication,
                                plan=list(plan))
    start = time.monotonic()
    fleet = LocalFleet(nodes=nodes, jobs=jobs, cache_root=cache_root)
    router_thread = None
    router = None
    try:
        note(f"booting {nodes} node(s)...")
        fleet.start()
        router = RouterService(
            fleet.infos(), replication=replication, port=0,
            retries=client_retries,
            retry_backoff_seconds=retry_backoff_seconds,
            health_interval_seconds=health_interval_seconds,
            probe_timeout=1.0,
            request_timeout=request_timeout)
        router_thread, router_port = run_in_thread(router)
        client = ServeClient(port=router_port,
                             timeout=request_timeout * 4)
        note(f"router on :{router_port}; submitting "
             f"{len(specs)} request(s)")

        for index, spec in enumerate(specs):
            while due and due[0].after_request <= index:
                action = due.pop(0)
                node = fleet.nodes[action.node]
                note(f"chaos: {action.action} {node.node_id}")
                getattr(node, action.action)()
            key = parse_request(spec).key
            outcome = RequestOutcome(index=index, key=key)
            try:
                response = client.submit(
                    spec, retries=client_retries,
                    retry_backoff_seconds=retry_backoff_seconds)
                outcome.node = response.get("node")
                outcome.cached = response.get("cached")
                outcome.payload = response.get("payload")
            except (ServeError, OSError) as error:
                outcome.error = f"{type(error).__name__}: {error}"
            report.outcomes.append(outcome)

        # anything the plan left killed or hung comes back before the
        # drain, so shutdown exercises the graceful path everywhere
        for action_node in fleet.nodes:
            action_node.resume()

        if verify:
            note("verifying payloads against the batch engine...")
            oracle: Dict[str, str] = {}
            for spec in specs:
                request = parse_request(spec)
                if request.key not in oracle:
                    _key, payload, _seconds = \
                        execute_point(request.point)
                    oracle[request.key] = json.dumps(payload)
            for outcome in report.outcomes:
                if outcome.error:
                    continue
                outcome.payload_matches = \
                    json.dumps(outcome.payload) == oracle[outcome.key]
            report.verified = True
    finally:
        if router is not None:
            router.request_shutdown()
        if router_thread is not None:
            router_thread.join(timeout=30)
        fleet.shutdown()
    report.seconds = time.monotonic() - start
    return report
