"""Tests for the sharded serving tier (repro.cluster).

Three layers, matched to the subsystem's structure:

* **placement / membership / stats-folding** — deterministic unit
  tests: the ring's preference order, readiness transitions under the
  failure threshold, and rebuilding additive counters from a node's
  wire-format ``/stats`` dump;
* **router against scripted stub nodes** — failover on sheds and dead
  sockets, bounded retry rounds honoring ``Retry-After``, deterministic
  rejections never retried, cross-fleet coalescing, and the merged
  cluster ``/stats`` view — all over the real wire protocol, with the
  node side scripted so every schedule is reproducible;
* **acceptance chaos** — a real 3-process fleet with replication 2, a
  deterministic kill + restart mid-grid, and the two hard promises:
  zero client-visible failures and payloads byte-identical to the
  batch engine's.
"""

import asyncio
import json
import socket
import time

import pytest

from repro.cluster import (
    ChaosAction,
    HashRing,
    LocalFleet,
    Membership,
    NodeInfo,
    RouterService,
    default_grid,
    make_plan,
    run_chaos,
)
from repro.cluster.transport import request_json
from repro.common.stats import Stats
from repro.serve import (
    ServeClient,
    ServeError,
    ServeService,
    parse_request,
    read_http_request,
    run_in_thread,
    write_http_response,
)
from repro.sim.parallel import execute_point


def run_async(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# placement
# ---------------------------------------------------------------------------
class TestHashRing:
    def test_preference_is_deterministic(self):
        a = HashRing(["node0", "node1", "node2"])
        b = HashRing(["node2", "node0", "node1"])   # insertion order moot
        for key in ("k1", "k2", "deadbeef" * 8):
            assert a.preference(key) == b.preference(key)

    def test_preference_covers_every_node_once(self):
        ring = HashRing([f"node{i}" for i in range(5)])
        order = ring.preference("some-key")
        assert sorted(order) == [f"node{i}" for i in range(5)]

    def test_replicas_are_distinct_prefix(self):
        ring = HashRing(["a", "b", "c", "d"])
        for key in ("x", "y", "z"):
            homes = ring.replicas(key, 3)
            assert len(set(homes)) == 3
            assert homes == ring.preference(key)[:3]

    def test_limit_truncates(self):
        ring = HashRing(["a", "b", "c"])
        assert ring.preference("k", limit=2) == ring.preference("k")[:2]

    def test_removal_only_moves_orphaned_keys(self):
        ring = HashRing(["node0", "node1", "node2"])
        keys = [f"key{i}" for i in range(200)]
        before = {key: ring.preference(key)[0] for key in keys}
        ring.remove("node1")
        for key in keys:
            if before[key] != "node1":
                # consistent hashing's whole point: survivors keep
                # their keys when someone else leaves
                assert ring.preference(key)[0] == before[key]

    def test_spread_is_roughly_balanced(self):
        ring = HashRing(["node0", "node1", "node2"])
        counts = {"node0": 0, "node1": 0, "node2": 0}
        for i in range(3000):
            counts[ring.preference(f"key{i}")[0]] += 1
        for count in counts.values():
            assert 600 <= count <= 1400   # ±40% of the 1000 ideal

    def test_duplicate_and_missing_nodes_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(ValueError):
            ring.remove("b")

    def test_empty_ring_has_no_preference(self):
        assert HashRing([]).preference("k") == []


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------
def _infos(n):
    return [NodeInfo(f"node{i}", "127.0.0.1", 9000 + i)
            for i in range(n)]


class TestMembership:
    def test_starts_optimistically_ready(self):
        membership = Membership(_infos(3))
        assert membership.ready_ids() == ["node0", "node1", "node2"]

    def test_failures_below_threshold_keep_node_ready(self):
        membership = Membership(_infos(2), fail_threshold=3)
        membership.mark_failure("node0")
        membership.mark_failure("node0")
        assert membership.is_ready("node0")
        membership.mark_failure("node0")
        assert not membership.is_ready("node0")

    def test_one_success_restores_readiness(self):
        membership = Membership(_infos(2), fail_threshold=1)
        membership.mark_failure("node1", "boom")
        assert not membership.is_ready("node1")
        membership.mark_success("node1")
        assert membership.is_ready("node1")
        assert membership.stats.counter("cluster.node.recovered") == 1

    def test_draining_node_reports_unready_via_success(self):
        # a drain is a *successful* probe that claims ready: false
        membership = Membership(_infos(2))
        membership.mark_success("node0", ready=False)
        assert not membership.is_ready("node0")
        assert membership.stats.counter("cluster.node.unready") == 1

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError):
            Membership([NodeInfo("x", "h", 1), NodeInfo("x", "h", 2)])

    def test_snapshot_carries_last_error(self):
        membership = Membership(_infos(1), fail_threshold=1)
        membership.mark_failure("node0", "ConnectionRefusedError: nope")
        snap = membership.snapshot()["node0"]
        assert snap["ready"] is False
        assert "ConnectionRefusedError" in snap["last_error"]


# ---------------------------------------------------------------------------
# Stats.from_flat (wire-format counter folding)
# ---------------------------------------------------------------------------
class TestStatsFromFlat:
    def test_keeps_additive_drops_sample_expansions(self):
        flat = {"serve.executed": 3, "latency.count": 5,
                "latency.mean": 12.5, "latency.min": 1,
                "latency.max": 40, "queue.out": 2.5}
        stats = Stats.from_flat(flat)
        dump = stats.dump()
        assert dump["serve.executed"] == 3
        assert dump["latency.count"] == 5
        assert dump["queue.out"] == 2.5
        assert not any(name.endswith((".mean", ".min", ".max"))
                       for name in dump)

    def test_non_numeric_and_bool_values_skipped(self):
        stats = Stats.from_flat({"a": True, "b": "three", "c": None,
                                 "d": 7})
        assert stats.dump() == {"d": 7}

    def test_merges_additively_across_nodes(self):
        total = Stats()
        for flat in ({"serve.executed": 2}, {"serve.executed": 5}):
            total.merge(Stats.from_flat(flat))
        assert total.counter("serve.executed") == 7


# ---------------------------------------------------------------------------
# router vs scripted stub nodes
# ---------------------------------------------------------------------------
SPEC = {"workload": "sps", "scheme": "txcache", "operations": 4,
        "config": {"num_cores": 1}}


class StubNode:
    """A scripted fake serve node speaking the real wire protocol.

    ``behaviors`` is a queue consumed one entry per ``POST /v1/points``:
    ``("ok",)``, ``("shed", retry_after)``, ``("error", status)``,
    ``("gate", asyncio.Event)`` (answer ok once the event is set), or
    ``("hang",)``: from then on the node answers nothing, probes
    included, as a SIGSTOPped process (``stop`` releases it).
    When the queue runs dry, ``default`` applies.  ``keep_alive=False``
    answers every request with ``Connection: close`` and hangs up.
    ``accepted`` counts the connections accepted, ``open`` holds the
    writers of those still open.
    """

    def __init__(self, behaviors=(), default=("ok",), ready=True,
                 stats_payload=None, keep_alive=True):
        self.behaviors = list(behaviors)
        self.default = default
        self.ready = ready
        self.stats_payload = stats_payload or {}
        self.point_requests = []
        self.point_headers = []      # lowercased, one dict per POST
        self.keep_alive = keep_alive
        self.accepted = 0
        self.open = set()
        self.server = None
        self.port = None
        self.hung = False
        self.released = asyncio.Event()

    async def start(self, port=0):
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", port)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def stop(self):
        self.released.set()
        self.server.close()
        await self.server.wait_closed()

    async def kill(self):
        """Stop like a killed process: the listener and every open
        connection close."""
        for writer in list(self.open):
            writer.close()
        await self.stop()

    def info(self, node_id):
        return NodeInfo(node_id, "127.0.0.1", self.port)

    async def _handle(self, reader, writer):
        self.accepted += 1
        self.open.add(writer)
        try:
            while True:
                request = await read_http_request(reader)
                if request is None:
                    break
                method, target, headers, body = request
                status, payload, extra = await self._respond(
                    method, target.split("?", 1)[0], body,
                    headers=headers)
                await write_http_response(writer, status, payload,
                                          extra,
                                          keep_alive=self.keep_alive)
                if not self.keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                ValueError):
            pass
        finally:
            self.open.discard(writer)
            writer.close()

    async def _respond(self, method, target, body, headers=None):
        if self.hung:
            await self.released.wait()
        if target == "/healthz":
            return 200, {"status": "ok", "live": True,
                         "ready": self.ready}, {}
        if target == "/stats":
            return 200, self.stats_payload, {}
        self.point_requests.append(body)
        self.point_headers.append(dict(headers or {}))
        behavior = (self.behaviors.pop(0) if self.behaviors
                    else self.default)
        if behavior[0] == "hang":
            self.hung = True
            await self.released.wait()
            behavior = ("ok",)
        if behavior[0] == "gate":
            await behavior[1].wait()
            behavior = ("ok",)
        if behavior[0] == "ok":
            return 200, {"kind": "experiment", "cached": False,
                         "payload": {"cycles": 1}}, {}
        if behavior[0] == "shed":
            return 503, {"error": "shed"}, \
                {"Retry-After": str(behavior[1])}
        return behavior[1], {"error": "scripted rejection"}, {}


async def _start_router(infos, **kwargs):
    kwargs.setdefault("retry_backoff_seconds", 0.01)
    kwargs.setdefault("health_interval_seconds", 0.1)
    kwargs.setdefault("probe_timeout", 1.0)
    kwargs.setdefault("request_timeout", 10.0)
    router = RouterService(infos, host="127.0.0.1", port=0, **kwargs)
    task = asyncio.create_task(router.run(install_signals=False))
    while router.bound_port is None:
        await asyncio.sleep(0.005)
    return router, task


async def _stop_router(router, task):
    router.request_shutdown()
    await asyncio.wait_for(task, timeout=10)


async def _post(router, spec):
    body = json.dumps(spec).encode("utf-8")
    return await request_json("127.0.0.1", router.bound_port, "POST",
                              "/v1/points", body, timeout=10.0)


def _free_dead_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestRouter:
    def test_replication_must_fit_fleet(self):
        with pytest.raises(ValueError):
            RouterService(_infos(2), replication=3)
        with pytest.raises(ValueError):
            RouterService(_infos(2), replication=0)

    def test_routes_to_first_home_replica(self):
        async def scenario():
            stubs = [await StubNode().start() for _ in range(3)]
            infos = [stub.info(f"node{i}")
                     for i, stub in enumerate(stubs)]
            router, task = await _start_router(infos, replication=2)
            try:
                key = parse_request(SPEC).key
                first = router.candidates(key)[0]
                status, _headers, payload = await _post(router, SPEC)
                assert status == 200
                assert payload["node"] == first
                assert payload["payload"] == {"cycles": 1}
            finally:
                await _stop_router(router, task)
                for stub in stubs:
                    await stub.stop()
        run_async(scenario())

    def test_shed_fails_over_to_next_replica(self):
        async def scenario():
            stubs = [await StubNode().start() for _ in range(2)]
            infos = [stub.info(f"node{i}")
                     for i, stub in enumerate(stubs)]
            router, task = await _start_router(infos, replication=2)
            try:
                key = parse_request(SPEC).key
                order = router.candidates(key)
                by_id = dict(zip([info.node_id for info in infos],
                                 stubs))
                by_id[order[0]].behaviors = [("shed", 1)]
                status, _headers, payload = await _post(router, SPEC)
                assert status == 200
                assert payload["node"] == order[1]
                assert router.stats.counter("cluster.forward.503") == 1
            finally:
                await _stop_router(router, task)
                for stub in stubs:
                    await stub.stop()
        run_async(scenario())

    def test_dead_node_fails_over_and_leaves_rotation(self):
        async def scenario():
            live = await StubNode().start()
            dead_port = _free_dead_port()
            infos = [NodeInfo("dead", "127.0.0.1", dead_port),
                     live.info("live")]
            router, task = await _start_router(
                infos, replication=2, fail_threshold=1,
                health_interval_seconds=30)   # passive marking only
            try:
                status, _headers, payload = await _post(router, SPEC)
                assert status == 200
                assert payload["node"] == "live"
                assert not router.membership.is_ready("dead")
                # next request routes straight past the corpse
                spec2 = dict(SPEC, seed=77)
                status, _headers, payload = await _post(router, spec2)
                assert status == 200
                assert payload["node"] == "live"
            finally:
                await _stop_router(router, task)
                await live.stop()
        run_async(scenario())

    def test_retry_rounds_recover_a_full_shed(self):
        async def scenario():
            stub = await StubNode(
                behaviors=[("shed", 0)]).start()
            router, task = await _start_router(
                [stub.info("only")], replication=1, retries=2)
            try:
                status, _headers, payload = await _post(router, SPEC)
                assert status == 200
                assert payload["node"] == "only"
                assert router.stats.counter("cluster.retries") == 1
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())

    def test_deterministic_rejection_is_never_retried(self):
        async def scenario():
            stub = await StubNode(behaviors=[("error", 400)],
                                  default=("ok",)).start()
            router, task = await _start_router(
                [stub.info("only")], replication=1, retries=3)
            try:
                status, _headers, payload = await _post(router, SPEC)
                assert status == 400
                assert len(stub.point_requests) == 1
                assert router.stats.counter("cluster.retries") == 0
                assert router.stats.counter(
                    "cluster.forward.rejected") == 1
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())

    def test_malformed_spec_is_400_with_no_forward(self):
        async def scenario():
            stub = await StubNode().start()
            router, task = await _start_router(
                [stub.info("only")], replication=1)
            try:
                status, _headers, payload = await _post(
                    router, {"workload": "nope"})
                assert status == 400
                assert "workload" in payload["error"]
                assert stub.point_requests == []
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())

    def test_exhaustion_answers_503_with_retry_after(self):
        async def scenario():
            stub = await StubNode(default=("shed", 4)).start()
            router, task = await _start_router(
                [stub.info("only")], replication=1, retries=1)
            try:
                status, headers, payload = await _post(router, SPEC)
                assert status == 503
                assert int(headers["retry-after"]) >= 1
                assert payload["retry_after"] >= 1
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())

    def test_concurrent_duplicates_coalesce_to_one_forward(self):
        async def scenario():
            gate = asyncio.Event()
            stub = await StubNode(behaviors=[("gate", gate)]).start()
            router, task = await _start_router(
                [stub.info("only")], replication=1)
            try:
                first = asyncio.create_task(_post(router, SPEC))
                while not router._inflight:
                    await asyncio.sleep(0.005)
                second = asyncio.create_task(_post(router, SPEC))
                while router.stats.counter("cluster.coalesced") < 1:
                    await asyncio.sleep(0.005)
                gate.set()
                results = await asyncio.gather(first, second)
                assert all(status == 200 for status, _h, _p in results)
                assert len(stub.point_requests) == 1
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())

    def test_cluster_stats_merges_node_counters(self):
        async def scenario():
            stubs = [
                await StubNode(stats_payload={
                    "counters": {"serve.executed": 2,
                                 "lat.mean": 9.0,
                                 "lat.count": 2},
                    "cache": {"store_hits": 3, "store_misses": 1,
                              "evictions": 0, "entries": 4,
                              "size_bytes": 100, "hits": 3,
                              "misses": 1},
                    "queue_depth": 0}).start(),
                await StubNode(stats_payload={
                    "counters": {"serve.executed": 5,
                                 "lat.count": 5},
                    "cache": {"hits": 1, "misses": 3, "evictions": 2,
                              "entries": 2, "size_bytes": 50},
                    "queue_depth": 1}).start(),
            ]
            infos = [stub.info(f"node{i}")
                     for i, stub in enumerate(stubs)]
            router, task = await _start_router(infos, replication=2)
            try:
                status, _headers, stats = await request_json(
                    "127.0.0.1", router.bound_port, "GET", "/stats",
                    timeout=10.0)
                assert status == 200
                merged = stats["cluster"]["counters"]
                assert merged["serve.executed"] == 7
                assert merged["lat.count"] == 7
                assert "lat.mean" not in merged     # non-additive
                per_node = stats["counters_by_node"]
                assert per_node["node0.serve.executed"] == 2
                assert per_node["node1.serve.executed"] == 5
                cache = stats["cluster"]["cache"]
                assert cache["hits"] == 4
                assert cache["misses"] == 4
                assert cache["evictions"] == 2
                assert cache["hit_ratio"] == 0.5
                assert stats["nodes"]["node1"]["reachable"] is True
            finally:
                await _stop_router(router, task)
                for stub in stubs:
                    await stub.stop()
        run_async(scenario())

    def test_unreachable_node_shows_in_stats_not_an_error(self):
        async def scenario():
            live = await StubNode().start()
            infos = [live.info("live"),
                     NodeInfo("gone", "127.0.0.1", _free_dead_port())]
            router, task = await _start_router(infos, replication=1)
            try:
                status, _headers, stats = await request_json(
                    "127.0.0.1", router.bound_port, "GET", "/stats",
                    timeout=10.0)
                assert status == 200
                assert stats["nodes"]["gone"] == {"reachable": False}
                assert stats["nodes"]["live"]["reachable"] is True
            finally:
                await _stop_router(router, task)
                await live.stop()
        run_async(scenario())

    def test_router_healthz_reports_fleet_view(self):
        async def scenario():
            stub = await StubNode(ready=False).start()
            router, task = await _start_router(
                [stub.info("only")], replication=1,
                health_interval_seconds=0.05)
            try:
                while router.membership.is_ready("only"):
                    await asyncio.sleep(0.01)
                status, _headers, health = await request_json(
                    "127.0.0.1", router.bound_port, "GET", "/healthz",
                    timeout=10.0)
                assert status == 200
                assert health["live"] is True
                assert health["ready"] is False   # no ready nodes left
                assert health["status"] == "degraded"
                assert health["nodes"]["only"]["ready"] is False
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())


# ---------------------------------------------------------------------------
# the router's pool of keep-alive connections to its nodes
# ---------------------------------------------------------------------------
async def _until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


def _idle(router, info):
    return router.pool.idle(info.host, info.port)


def _forward_spans(router):
    return [event for event in router.spans.events()
            if event["name"] == "forward"]


class TestRouterConnectionPool:
    def test_forwards_and_probes_share_one_connection(self):
        async def scenario():
            stub = await StubNode().start()
            info = stub.info("only")
            router, task = await _start_router(
                [info], replication=1, health_interval_seconds=30)
            try:
                # the health loop probes once at start-up
                await _until(lambda: _idle(router, info) == 1)
                for seed in (1, 2):
                    status, _headers, _payload = await _post(
                        router, dict(SPEC, seed=seed))
                    assert status == 200
                assert await router.membership.probe("only")
                assert len(stub.point_requests) == 2
                assert stub.accepted == 1
                assert _idle(router, info) == 1
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())

    def test_connection_close_answer_is_not_pooled(self):
        async def scenario():
            stub = await StubNode(keep_alive=False).start()
            info = stub.info("only")
            router, task = await _start_router(
                [info], replication=1, health_interval_seconds=30)
            try:
                for seed in (1, 2):
                    status, _headers, _payload = await _post(
                        router, dict(SPEC, seed=seed))
                    assert status == 200
                    assert _idle(router, info) == 0
                # the start-up probe and each forward had their own
                assert stub.accepted == 3
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())

    def test_timed_out_forward_closes_its_connection(self):
        async def scenario():
            gate = asyncio.Event()
            stub = await StubNode(behaviors=[("gate", gate)]).start()
            info = stub.info("only")
            router, task = await _start_router(
                [info], replication=1, retries=0, request_timeout=0.3,
                health_interval_seconds=30)
            try:
                await _until(lambda: _idle(router, info) == 1)
                status, _headers, _payload = await _post(router, SPEC)
                assert status == 503
                assert router.stats.counter("cluster.forward.errors") == 1
                assert _idle(router, info) == 0
                gate.set()      # the node wakes up, as after SIGCONT
                status, _headers, payload = await _post(router, SPEC)
                assert status == 200
                assert payload["node"] == "only"
                assert stub.accepted == 2
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())

    def test_restarted_node_answers_on_first_candidate(self):
        async def scenario():
            stubs = [await StubNode().start() for _ in range(2)]
            infos = [stub.info(f"node{i}")
                     for i, stub in enumerate(stubs)]
            router, task = await _start_router(
                infos, replication=2, health_interval_seconds=30)
            restarted = None
            try:
                await _until(lambda: all(_idle(router, info) == 1
                                         for info in infos))
                first = router.candidates(parse_request(SPEC).key)[0]
                index = [info.node_id for info in infos].index(first)
                # same port, new process: the pooled connection is stale
                await stubs[index].kill()
                restarted = await StubNode().start(port=stubs[index].port)
                status, _headers, payload = await _post(router, SPEC)
                assert status == 200
                assert payload["node"] == first
                assert len(restarted.point_requests) == 1
                assert router.stats.counter("cluster.forward.errors") == 0
                assert router.membership.snapshot()[first][
                    "consecutive_failures"] == 0
                assert len(_forward_spans(router)) == 1
            finally:
                await _stop_router(router, task)
                for stub in stubs:
                    await stub.stop()
                if restarted is not None:
                    await restarted.stop()
        run_async(scenario())

    def test_router_shutdown_closes_pooled_connections(self):
        async def scenario():
            stub = await StubNode().start()
            router, task = await _start_router(
                [stub.info("only")], replication=1)
            try:
                status, _headers, _payload = await _post(router, SPEC)
                assert status == 200
                assert stub.open
            finally:
                await _stop_router(router, task)
            await _until(lambda: not stub.open)
            await stub.stop()
        run_async(scenario())


class TestHungNodeFailover:
    """A forward waiting on a node that the health loop takes out of
    rotation is abandoned and fails over; a draining node keeps its
    in-flight work; a healthy forward is untouched by either."""

    def test_hung_node_fails_over_well_inside_request_timeout(self):
        async def scenario():
            stubs = [await StubNode().start() for _ in range(2)]
            infos = [stub.info(f"node{i}")
                     for i, stub in enumerate(stubs)]
            router, task = await _start_router(
                infos, replication=2, health_interval_seconds=0.05,
                probe_timeout=0.2, request_timeout=30.0)
            try:
                order = router.candidates(parse_request(SPEC).key)
                by_id = dict(zip([info.node_id for info in infos],
                                 stubs))
                by_id[order[0]].behaviors = [("hang",)]
                began = time.monotonic()
                status, _headers, payload = await _post(router, SPEC)
                assert status == 200
                assert payload["node"] == order[1]
                assert time.monotonic() - began < 5.0
                assert not router.membership.is_ready(order[0])
                assert router.stats.counter("cluster.forward.errors") == 1
                assert router.stats.counter("cluster.forward.ok") == 1
                outcomes = [event["args"].get("outcome")
                            for event in _forward_spans(router)]
                assert outcomes == ["NodeAbandoned", None]
                hung = router.membership.node(order[0])
                assert _idle(router, hung) == 0
                assert not router.pool.busy((hung.host, hung.port))
            finally:
                await _stop_router(router, task)
                for stub in stubs:
                    await stub.stop()
        run_async(scenario())

    def test_last_ditch_forward_to_unready_home_fails_over(self):
        """The first home is hung and already out of rotation, the
        other sheds: the request's last-ditch forward to the hung home
        is abandoned at its next failed probe, and the retry round
        lands on the shedding node, long before request_timeout."""
        async def scenario():
            stubs = [await StubNode().start() for _ in range(2)]
            infos = [stub.info(f"node{i}")
                     for i, stub in enumerate(stubs)]
            router, task = await _start_router(
                infos, replication=2, health_interval_seconds=0.05,
                probe_timeout=0.2, request_timeout=8.0)
            try:
                order = router.candidates(parse_request(SPEC).key)
                by_id = dict(zip([info.node_id for info in infos],
                                 stubs))
                hung, shedding = by_id[order[0]], by_id[order[1]]
                hung.hung = True
                await _until(lambda: not router.membership.is_ready(
                    order[0]))
                shedding.behaviors = [("shed", 0)]
                began = time.monotonic()
                status, _headers, payload = await _post(router, SPEC)
                assert status == 200
                assert payload["node"] == order[1]
                assert time.monotonic() - began < 4.0
                outcomes = [(event["args"]["node"],
                             event["args"].get("outcome"))
                            for event in _forward_spans(router)]
                assert outcomes == [(order[1], None),
                                    (order[0], "NodeAbandoned"),
                                    (order[1], None)]
                assert router.stats.counter("cluster.forward.503") == 1
                assert router.stats.counter("cluster.forward.ok") == 1
                assert not hung.point_requests
            finally:
                await _stop_router(router, task)
                for stub in stubs:
                    await stub.stop()
        run_async(scenario())

    def test_draining_node_finishes_its_inflight_forward(self):
        async def scenario():
            gate = asyncio.Event()
            stubs = [await StubNode().start() for _ in range(2)]
            infos = [stub.info(f"node{i}")
                     for i, stub in enumerate(stubs)]
            router, task = await _start_router(
                infos, replication=2, health_interval_seconds=0.05,
                probe_timeout=0.2)
            try:
                first = router.candidates(parse_request(SPEC).key)[0]
                stub = dict(zip([info.node_id for info in infos],
                                stubs))[first]
                stub.behaviors = [("gate", gate)]
                post = asyncio.create_task(_post(router, SPEC))
                await _until(lambda: stub.point_requests)
                stub.ready = False          # the node starts draining
                await _until(lambda: not router.membership.is_ready(first))
                await asyncio.sleep(0.3)    # several more probes
                gate.set()
                status, _headers, payload = await post
                assert status == 200
                assert payload["node"] == first
                assert router.stats.counter("cluster.forward.errors") == 0
                assert len(_forward_spans(router)) == 1
            finally:
                await _stop_router(router, task)
                for stub in stubs:
                    await stub.stop()
        run_async(scenario())

    def test_healthy_forward_records_unchanged_spans_and_counters(self):
        async def scenario():
            stub = await StubNode().start()
            info = stub.info("only")
            router, task = await _start_router(
                [info], replication=1, health_interval_seconds=30)
            try:
                await _until(lambda: _idle(router, info) == 1)
                status, _headers, _payload = await _post_with_id(
                    router, SPEC, "req-1")
                assert status == 200
                counters = {name: value for name, value
                            in router.stats.dump().items()
                            if not name.startswith("cluster.request.ms.")}
                assert counters == {"cluster.forward.ok": 1,
                                    "cluster.http.200": 1,
                                    "cluster.http.requests": 1}
                spans = {event["name"]: event["args"]
                         for event in router.spans.events()}
                assert spans == {
                    "forward": {"request_id": "req-1",
                                "key": parse_request(SPEC).key,
                                "node": "only", "round": 1,
                                "status": 200},
                    "route": {"request_id": "req-1", "status": 200}}
                assert _idle(router, info) == 1
                assert not router.pool.busy((info.host, info.port))
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())


# ---------------------------------------------------------------------------
# chaos plans
# ---------------------------------------------------------------------------
class TestChaosPlans:
    def test_same_seed_same_plan(self):
        assert make_plan(7, 12, 3) == make_plan(7, 12, 3)
        assert make_plan(7, 12, 3, hangs=True) == \
            make_plan(7, 12, 3, hangs=True)

    def test_kill_precedes_restart_of_same_node(self):
        for seed in range(10):
            plan = make_plan(seed, 9, 3)
            kill, restart = plan[0], plan[1]
            assert kill.action == "kill"
            assert restart.action == "restart"
            assert kill.node == restart.node
            assert kill.after_request < restart.after_request

    def test_hang_targets_a_different_node(self):
        plan = make_plan(3, 12, 3, hangs=True)
        victim = plan[0].node
        hangs = [action for action in plan
                 if action.action in ("hang", "resume")]
        assert len(hangs) == 2
        assert all(action.node != victim for action in hangs)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            ChaosAction(0, "explode", 0)

    def test_default_grid_keys_are_distinct(self):
        specs = default_grid(points=9)
        keys = {parse_request(spec).key for spec in specs}
        assert len(keys) == 9


# ---------------------------------------------------------------------------
# acceptance: real fleet, real kills, byte-identical answers
# ---------------------------------------------------------------------------
class TestClusterChaosAcceptance:
    def test_kill_and_restart_mid_grid_loses_nothing(self, tmp_path):
        specs = default_grid(points=6, operations=6)
        report = run_chaos(specs, cache_root=tmp_path, nodes=3,
                           replication=2, seed=0)
        assert report.verified
        assert report.failures == [], report.format()
        assert report.mismatches == [], report.format()
        assert all(outcome.payload_matches for outcome in
                   report.outcomes), report.format()
        # the plan actually did violence mid-grid
        actions = [action.action for action in report.plan]
        assert actions == ["kill", "restart"]
        assert 0 < report.plan[0].after_request < len(specs)


class TestMistypedOverrideAtTheRouter:
    @pytest.mark.parametrize("overrides,path", [
        ({"nvm": {"timing": {"read_ns": "1"}}}, "nvm.timing.read_ns"),
        ({"core": {"issue_width": True}}, "core.issue_width"),
        ({"faults": {"seed": 1.5}}, "faults.seed"),
        ({"faults": {"seed": "x"}}, "faults.seed"),
    ], ids=["str-for-float", "bool-for-int", "float-for-int",
            "str-for-int"])
    def test_is_a_400_that_never_reaches_the_node(self, tmp_path,
                                                  overrides, path):
        node = ServeService(port=0, jobs=1, cache_dir=tmp_path)
        node_thread, node_port = run_in_thread(node)
        router = RouterService([NodeInfo("node0", "127.0.0.1", node_port)],
                               replication=1, port=0, retries=2,
                               health_interval_seconds=30)
        router_thread, router_port = run_in_thread(router)
        try:
            client = ServeClient(port=router_port, timeout=60)
            spec = dict(SPEC, config={"num_cores": 1,
                                      "overrides": overrides})
            with pytest.raises(ServeError) as excinfo:
                client.submit(spec)
            assert excinfo.value.status == 400
            assert excinfo.value.payload["error"].startswith(
                f"config.{path}: expected ")
            for name in ("forward.ok", "forward.errors", "forward.500",
                         "forward.503", "forward.rejected", "retries"):
                assert router.stats.counter(f"cluster.{name}") == 0
            assert node.stats.counter("serve.executed") == 0
            assert node.stats.counter("serve.admitted") == 0
        finally:
            router.request_shutdown()
            router_thread.join(timeout=30)
            node.request_shutdown()
            node_thread.join(timeout=30)


class TestPooledConnectionsOnRealNodes:
    def test_killed_then_restarted_node_answers_next_request(
            self, tmp_path):
        specs = default_grid(points=2, operations=6)
        fleet = LocalFleet(nodes=1, cache_root=tmp_path)
        fleet.start()
        router = thread = None
        try:
            router = RouterService(fleet.infos(), replication=1, port=0,
                                   health_interval_seconds=30,
                                   request_timeout=60.0)
            thread, port = run_in_thread(router)
            client = ServeClient(port=port, timeout=60)
            assert client.submit(specs[0])["node"] == "node0"
            node = fleet.nodes[0]
            node.kill()
            node.restart()
            answer = client.submit(specs[1])
            _key, payload, _seconds = execute_point(
                parse_request(specs[1]).point)
            assert json.dumps(answer["payload"]) == json.dumps(payload)
            assert router.stats.counter("cluster.forward.errors") == 0
            assert router.membership.snapshot()["node0"][
                "consecutive_failures"] == 0
        finally:
            if router is not None:
                router.request_shutdown()
            if thread is not None:
                thread.join(timeout=30)
            fleet.shutdown()

    def test_crash_and_litmus_points_match_the_in_process_engine(
            self, tmp_path):
        """A real node boots without the simulator (see
        tests/test_cli.py::TestImport), so its pool worker imports the
        model on its first point; the crash and litmus kinds must still
        answer byte-identically to in-process ``execute_point``."""
        from repro.litmus import default_suite

        specs = [
            {"kind": "crash", "workload": "sps", "scheme": "txcache",
             "operations": 6, "fractions": [0.75, 0.25, 0.75],
             "config": {"num_cores": 1}},
            {"kind": "litmus", "program": default_suite(0)[0].to_dict(),
             "scheme": "txcache"},
        ]
        fleet = LocalFleet(nodes=1, cache_root=tmp_path)
        fleet.start()
        router = thread = None
        try:
            router = RouterService(fleet.infos(), replication=1, port=0,
                                   health_interval_seconds=30,
                                   request_timeout=60.0)
            thread, port = run_in_thread(router)
            client = ServeClient(port=port, timeout=60)
            for spec in specs:
                answer = client.submit(spec)
                assert answer["cached"] is False
                _key, payload, _seconds = execute_point(
                    parse_request(spec).point)
                assert json.dumps(answer["payload"]) == json.dumps(payload)
        finally:
            if router is not None:
                router.request_shutdown()
            if thread is not None:
                thread.join(timeout=30)
            fleet.shutdown()


# ---------------------------------------------------------------------------
# observability: request-id forwarding, /metrics, /trace
# ---------------------------------------------------------------------------
async def _post_with_id(router, spec, request_id):
    body = json.dumps(spec).encode("utf-8")
    return await request_json(
        "127.0.0.1", router.bound_port, "POST", "/v1/points", body,
        timeout=10.0, headers={"X-Request-Id": request_id})


class TestRouterObservability:
    def test_request_id_forwarded_across_failover_hops(self):
        async def scenario():
            stubs = [await StubNode().start() for _ in range(2)]
            infos = [stub.info(f"node{i}")
                     for i, stub in enumerate(stubs)]
            router, task = await _start_router(infos, replication=2)
            try:
                key = parse_request(SPEC).key
                order = router.candidates(key)
                by_id = dict(zip([info.node_id for info in infos],
                                 stubs))
                by_id[order[0]].behaviors = [("shed", 0)]
                status, headers, payload = await _post_with_id(
                    router, SPEC, "hop-req-3")
                assert status == 200
                assert payload["node"] == order[1]
                assert payload["request_id"] == "hop-req-3"
                assert headers["x-request-id"] == "hop-req-3"
                # both the shedding home and the fallback saw the id
                for stub in stubs:
                    assert [h.get("x-request-id")
                            for h in stub.point_headers] == ["hop-req-3"]
            finally:
                await _stop_router(router, task)
                for stub in stubs:
                    await stub.stop()
        run_async(scenario())

    def test_request_id_generated_when_absent(self):
        async def scenario():
            stub = await StubNode().start()
            router, task = await _start_router(
                [stub.info("only")], replication=1)
            try:
                status, _headers, payload = await _post(router, SPEC)
                assert status == 200
                rid = payload["request_id"]
                assert isinstance(rid, str) and len(rid) == 32
                assert stub.point_headers[0]["x-request-id"] == rid
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())

    def test_coalesced_waiters_answer_with_their_own_ids(self):
        async def scenario():
            gate = asyncio.Event()
            stub = await StubNode(behaviors=[("gate", gate)]).start()
            router, task = await _start_router(
                [stub.info("only")], replication=1)
            try:
                first = asyncio.create_task(
                    _post_with_id(router, SPEC, "leader-id"))
                while not router._inflight:
                    await asyncio.sleep(0.005)
                second = asyncio.create_task(
                    _post_with_id(router, SPEC, "rider-id"))
                while router.stats.counter("cluster.coalesced") < 1:
                    await asyncio.sleep(0.005)
                gate.set()
                (s1, _h1, p1), (s2, _h2, p2) = await asyncio.gather(
                    first, second)
                assert (s1, s2) == (200, 200)
                assert {p1["request_id"], p2["request_id"]} == \
                    {"leader-id", "rider-id"}
                assert len(stub.point_requests) == 1   # still one forward
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())

    def test_router_metrics_exposes_own_and_fleet_families(self):
        from repro.obs import parse_prometheus
        async def scenario():
            stub = await StubNode(stats_payload={
                "counters": {"serve.executed": 5, "lat.mean": 2.0}
            }).start()
            router, task = await _start_router(
                [stub.info("only")], replication=1)
            try:
                await _post(router, SPEC)
                status, headers, payload = await request_json(
                    "127.0.0.1", router.bound_port, "GET", "/metrics",
                    timeout=10.0)
                assert status == 200
                assert "0.0.4" in headers["content-type"]
                text = payload["error"]     # non-JSON body passthrough
                families = parse_prometheus(text)
                own = families["repro_cluster_http_200_total"]
                (_n, labels, _v) = own["samples"][0]
                assert labels["role"] == "router"
                assert families["repro_fleet_serve_executed_total"][
                    "samples"][0][2] == 5
                # non-additive sample derivatives never become counters
                assert not any("lat_mean" in name for name in families)
                assert "repro_ready_nodes" in families
                assert "repro_fleet_reachable_nodes" in families
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())

    def test_router_trace_validates_and_correlates(self):
        from repro.obs import validate_chrome_trace
        async def scenario():
            stub = await StubNode().start()
            router, task = await _start_router(
                [stub.info("only")], replication=1)
            try:
                await _post_with_id(router, SPEC, "trace-req-77")
                status, _headers, trace = await request_json(
                    "127.0.0.1", router.bound_port, "GET", "/trace",
                    timeout=10.0)
                assert status == 200
                assert validate_chrome_trace(trace) == []
                tagged = {event["name"]
                          for event in trace["traceEvents"]
                          if event.get("args", {}).get("request_id")
                          == "trace-req-77"}
                assert "route" in tagged
                assert "forward" in tagged
                forward = [event for event in trace["traceEvents"]
                           if event["name"] == "forward"
                           and event.get("args", {}).get("request_id")
                           == "trace-req-77"]
                assert forward[0]["args"]["node"] == "only"
                assert forward[0]["args"]["status"] == 200
            finally:
                await _stop_router(router, task)
                await stub.stop()
        run_async(scenario())


# ---------------------------------------------------------------------------
# one wire contract for node and router
# ---------------------------------------------------------------------------
async def _start_service(role):
    """A serve node, or a router over one stub node, on an ephemeral
    port; returns ``(service, run_task, stub)``."""
    stub = await StubNode().start()
    if role == "router":
        service, task = await _start_router([stub.info("only")],
                                            replication=1)
        return service, task, stub
    service = ServeService(port=0, jobs=1)
    task = asyncio.create_task(service.run(install_signals=False))
    while service.bound_port is None:
        await asyncio.sleep(0.005)
    return service, task, stub


async def _exchange(reader, writer, method, target, body=b"",
                    headers=()):
    """One raw HTTP/1.1 exchange on an open connection; returns
    ``(status, lowercased headers, body bytes)``."""
    lines = [f"{method} {target} HTTP/1.1", "Host: 127.0.0.1",
             f"Content-Length: {len(body)}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                 + body)
    await writer.drain()
    status_line = await asyncio.wait_for(reader.readline(), 10)
    status = int(status_line.split()[1])
    response_headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        response_headers[name.strip().lower()] = value.strip()
    blob = await reader.readexactly(
        int(response_headers["content-length"]))
    return status, response_headers, blob


def _on_one_connection(role, exchange):
    """Run ``exchange(reader, writer)`` against a fresh service of the
    given role, closing the connection before the service stops."""
    async def scenario():
        service, task, stub = await _start_service(role)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.bound_port)
        try:
            await exchange(reader, writer)
        finally:
            writer.close()
            await writer.wait_closed()
            service.request_shutdown()
            await asyncio.wait_for(task, timeout=15)
            await stub.stop()
    run_async(scenario())


@pytest.mark.parametrize("role", ["node", "router"])
class TestServiceWireContract:
    def test_wrong_method_is_405_on_every_route(self, role):
        async def exchange(reader, writer):
            for target, wrong, right in (
                    ("/healthz", "POST", "GET"),
                    ("/stats", "POST", "GET"),
                    ("/metrics", "POST", "GET"),
                    ("/trace", "DELETE", "GET"),
                    ("/v1/points", "GET", "POST")):
                status, _headers, blob = await _exchange(
                    reader, writer, wrong, target)
                assert status == 405, target
                assert json.loads(blob) == {"error": f"use {right}"}
        _on_one_connection(role, exchange)

    def test_unknown_path_is_404(self, role):
        async def exchange(reader, writer):
            status, _headers, blob = await _exchange(
                reader, writer, "GET", "/nope")
            assert status == 404
            assert json.loads(blob) == {
                "error": "no such endpoint '/nope'"}
        _on_one_connection(role, exchange)

    def test_non_json_body_is_400(self, role):
        async def exchange(reader, writer):
            status, headers, blob = await _exchange(
                reader, writer, "POST", "/v1/points", b"{not json")
            payload = json.loads(blob)
            assert status == 400
            assert payload["error"] == "request body is not valid JSON"
            assert payload["request_id"] == headers["x-request-id"]
        _on_one_connection(role, exchange)

    def test_request_id_round_trips_in_header_and_body(self, role):
        async def exchange(reader, writer):
            body = json.dumps({"workload": "nope",
                               "scheme": "txcache"}).encode("utf-8")
            status, headers, blob = await _exchange(
                reader, writer, "POST", "/v1/points", body,
                headers=[("X-Request-Id", "wire-rid-1")])
            payload = json.loads(blob)
            assert status == 400
            assert "workload" in payload["error"]
            assert payload["request_id"] == "wire-rid-1"
            assert headers["x-request-id"] == "wire-rid-1"
        _on_one_connection(role, exchange)

    def test_two_requests_share_one_keep_alive_connection(self, role):
        async def exchange(reader, writer):
            for _ in range(2):
                status, headers, blob = await _exchange(
                    reader, writer, "GET", "/healthz")
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert headers["content-type"] == "application/json"
                assert json.loads(blob)["live"] is True
        _on_one_connection(role, exchange)

    def test_connection_close_is_honoured(self, role):
        async def exchange(reader, writer):
            status, headers, _blob = await _exchange(
                reader, writer, "GET", "/healthz",
                headers=[("Connection", "close")])
            assert status == 200
            assert headers["connection"] == "close"
            assert await asyncio.wait_for(reader.read(), 5) == b""
        _on_one_connection(role, exchange)


@pytest.mark.parametrize("role", ["node", "router"])
def test_idle_keep_alive_connection_does_not_stall_shutdown(role):
    async def scenario():
        service, task, stub = await _start_service(role)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.bound_port)
        try:
            status, headers, _blob = await _exchange(
                reader, writer, "GET", "/healthz")
            assert status == 200
            assert headers["connection"] == "keep-alive"
            started = time.monotonic()
            service.request_shutdown()
            done, _pending = await asyncio.wait({task}, timeout=2.0)
            assert task in done, (
                f"run() still going {time.monotonic() - started:.2f}s "
                "after request_shutdown()")
            task.result()
            # the service hung up on the idle connection
            assert await asyncio.wait_for(reader.read(), 2) == b""
        finally:
            writer.close()
            await asyncio.wait_for(task, timeout=15)
            await stub.stop()
    run_async(scenario())
