"""Tests for the simulation service (repro.serve).

Three layers, matched to the subsystem's structure:

* **protocol** — a wire spec builds the *identical* frozen point (and
  therefore the identical cache key) the batch engine builds, and every
  malformed spec is a :class:`ProtocolError`, never a crashed worker;
* **scheduler/pool** — coalescing, load shedding, deadline expiry,
  cancellation, drain, and crash-retry are tested deterministically
  against stub fleets (no timing races);
* **end-to-end over HTTP** — a real service on an ephemeral port: the
  served payload is byte-identical to the batch engine's for the same
  spec key, concurrent duplicates coalesce to one execution, and a warm
  cache hit answers in under 100 ms.
"""

import asyncio
import inspect
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.common.config import (
    config_from_dict,
    config_to_dict,
    paper_machine_config,
    small_machine_config,
)
from repro.serve import (
    DeadlineExpired,
    Draining,
    ProtocolError,
    QueueFull,
    Scheduler,
    ServeClient,
    ServeError,
    ServeService,
    WorkerCrashed,
    WorkerFleet,
    parse_request,
    run_in_thread,
)
from repro.serve.protocol import _SIZE_PARAMS, MAX_CORES, MAX_WORKLOAD_PARAM
from repro.sim.parallel import (
    CrashPoint,
    ExperimentEngine,
    ExperimentPoint,
    ResultCache,
)
from repro.workloads import WORKLOADS, create_workload, workload_param_defaults

CONFIG = small_machine_config(num_cores=1)

#: override leaves of the wrong type, and the dotted path each 400 names
MISTYPED = [
    ({"nvm": {"timing": {"read_ns": "1"}}}, "nvm.timing.read_ns"),
    ({"core": {"issue_width": True}}, "core.issue_width"),
    ({"faults": {"seed": 1.5}}, "faults.seed"),
    ({"faults": {"seed": "x"}}, "faults.seed"),
]


#: hashtable workload params of the wrong type or out of range
BAD_PARAM_VALUES = [{"buckets": "x"}, {"buckets": 0}, {"buckets": 10 ** 12},
                    {"insert_ratio": "a"}, {"buckets": True}]


#: (workload, int param) for every int-defaulted constructor parameter
INT_PARAMS = [(workload, name)
              for workload in sorted(WORKLOADS)
              for name, default in workload_param_defaults(workload).items()
              if type(default) is int]


@pytest.fixture
def no_workload_builds(monkeypatch):
    """Fail the test if anything constructs a workload."""
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} was constructed")

    for cls in WORKLOADS.values():
        monkeypatch.setattr(cls, "__init__", refuse)


@pytest.fixture(params=MISTYPED, ids=[path for _, path in MISTYPED])
def mistyped(request):
    return request.param


def run_async(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# config dict round trip
# ---------------------------------------------------------------------------
class TestConfigDict:
    def test_round_trip_is_exact(self):
        for config in (small_machine_config(num_cores=2),
                       paper_machine_config()):
            assert config_from_dict(config_to_dict(config)) == config

    def test_partial_dict_takes_defaults(self):
        config = config_from_dict({"num_cores": 3})
        assert config.num_cores == 3
        assert config.txcache == paper_machine_config().txcache

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ValueError, match="config.txcache"):
            config_from_dict({"txcache": {"sise_bytes": 1024}})

    def test_invalid_value_surfaces_as_value_error(self):
        with pytest.raises(ValueError, match="overflow_threshold"):
            config_from_dict(
                {"txcache": {"overflow_threshold": 2.0}})

    @pytest.mark.parametrize("data,path", [
        ({"num_cores": True}, "config.num_cores"),
        ({"num_cores": 2.0}, "config.num_cores"),
        ({"core": {"freq_ghz": True}}, "config.core.freq_ghz"),
        ({"core": {"freq_ghz": "2"}}, "config.core.freq_ghz"),
        ({"txcache": {"coalesce_writes": 1}}, "config.txcache.coalesce_writes"),
        ({"txcache": {"organization": 0}}, "config.txcache.organization"),
        ({"l1": {"name": None}}, "config.l1.name"),
    ])
    def test_mistyped_leaf_rejected_with_path(self, data, path):
        with pytest.raises(ValueError, match=f"^{path}: expected "):
            config_from_dict(data)

    def test_int_for_a_float_is_kept_as_an_int(self):
        config = config_from_dict({"core": {"freq_ghz": 3}})
        assert config.core.freq_ghz == 3
        assert type(config.core.freq_ghz) is int
        assert config_from_dict(config_to_dict(config)) == config


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_round_trip_builds_engine_identical_point(self):
        request = parse_request({
            "kind": "experiment", "workload": "sps", "scheme": "txcache",
            "operations": 20, "seed": 7,
            "config": {"preset": "small", "num_cores": 1},
        })
        direct = ExperimentPoint("sps", "txcache", CONFIG,
                                 operations=20, seed=7)
        assert request.point == direct
        assert request.key == direct.key

    @pytest.mark.parametrize("preset", ["small", "paper"])
    def test_override_free_config_is_the_shared_preset(self, preset):
        shared = {"small": small_machine_config,
                  "paper": paper_machine_config}[preset]
        for config, expected in (({"num_cores": 2}, shared(2)),
                                 ({}, shared())):
            request = parse_request({
                "workload": "sps", "scheme": "txcache",
                "config": dict(config, preset=preset)})
            assert request.point.config is expected

    def test_defaults_match_point_defaults(self):
        request = parse_request({"workload": "sps", "scheme": "txcache"})
        assert request.point.kind == "experiment"
        assert request.point.operations == 300
        assert request.point.seed == 42
        assert request.deadline is None

    def test_overrides_reach_nested_knobs(self):
        request = parse_request({
            "workload": "sps", "scheme": "txcache",
            "config": {"num_cores": 1,
                       "overrides": {"txcache": {"size_bytes": 8192}}},
        })
        assert request.point.config.txcache.size_bytes == 8192
        # everything else still the small preset
        assert request.point.config.l1 == CONFIG.l1

    def test_crash_kind_takes_optional_fractions(self):
        base = {"kind": "crash", "workload": "sps", "scheme": "txcache",
                "config": {"num_cores": 1}}
        request = parse_request(base)
        assert request.point.kind == "crash"
        assert request.point == CrashPoint("sps", "txcache", CONFIG)
        request = parse_request(dict(base, fractions=[0.9, 1, 0.9]))
        assert request.point.fractions == (0.9, 1.0, 0.9)
        assert request.key == CrashPoint("sps", "txcache", CONFIG,
                                         (0.9, 1.0, 0.9)).key

    @pytest.mark.parametrize("fractions", [
        [], ["0.5"], [True], [0.5, False], 0.5, "0.5", None, {"a": 1},
        [float("nan")], [float("inf")]])
    def test_bad_fractions_rejected(self, fractions):
        with pytest.raises(ProtocolError, match="fractions"):
            parse_request({"kind": "crash", "workload": "sps",
                           "scheme": "txcache", "fractions": fractions})

    @pytest.mark.parametrize("request_", [
        {"workload": "sps", "scheme": "txcache", "fractions": [0.5]},
        {"kind": "litmus", "program": {}, "scheme": "txcache",
         "fractions": [0.5]}])
    def test_fractions_rejected_off_crash_points(self, request_):
        with pytest.raises(ProtocolError, match="fractions"):
            parse_request(request_)

    @pytest.mark.parametrize("kind", ["run_length", "chaos"])
    def test_deleted_kinds_rejected(self, kind):
        with pytest.raises(ProtocolError, match="kind must be one of"):
            parse_request({"kind": kind, "workload": "sps",
                           "scheme": "txcache"})

    @pytest.mark.parametrize("name", ["crash_cycle", "total_cycles"])
    def test_cycle_fields_are_unknown_keys(self, name):
        with pytest.raises(ProtocolError, match="unknown keys"):
            parse_request({"kind": "crash", "workload": "sps",
                           "scheme": "txcache", name: 5})

    def test_deadline_ms_converts_to_seconds(self):
        request = parse_request({"workload": "sps", "scheme": "txcache",
                                 "deadline_ms": 1500})
        assert request.deadline == pytest.approx(1.5)

    @pytest.mark.parametrize("bad", [
        {"workload": "nope", "scheme": "txcache"},
        {"workload": "sps", "scheme": "nope"},
        {"workload": "sps", "scheme": "txcache", "kind": "nope"},
        {"workload": "sps", "scheme": "txcache", "operations": 0},
        {"workload": "sps", "scheme": "txcache", "operations": True},
        {"workload": "sps", "scheme": "txcache", "typo_key": 1},
        {"workload": "sps", "scheme": "txcache",
         "config": {"preset": "huge"}},
        {"workload": "sps", "scheme": "txcache",
         "config": {"overrides": {"txcache": {"typo": 1}}}},
        {"workload": "sps", "scheme": "txcache",
         "workload_params": {"x": [1, 2]}},
        "not an object",
    ])
    def test_malformed_requests_rejected(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(bad)

    @pytest.mark.parametrize("scheme", ["broken_commit", "Broken_Commit"])
    @pytest.mark.parametrize("kind", ["experiment", "crash"])
    def test_negative_control_is_not_served(self, kind, scheme):
        request = {"kind": kind, "workload": "sps", "scheme": scheme}
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(request)
        assert str(excinfo.value) == (
            "scheme must be one of ['optimal', 'sp', 'kiln', 'txcache', "
            f"'undo_log', 'redo_log', 'hybrid_dram'], got {scheme!r}")

    @pytest.mark.parametrize("overrides", [
        {"llc": {"size_bytes": 1000}},
        {"txcache": {"organization": "foo"}},
        {"nvm": {"interleave": "hash"}},
        {"txcache": {"organization": "set_assoc", "assoc": 3}},
        {"core": {"issue_width": 0}},
        {"nvm": {"read_queue_entries": 0}},
    ], ids=["llc-sets", "tc-organization", "interleave", "tc-set-assoc",
            "issue-width", "read-queue"])
    def test_invalid_config_values_are_protocol_errors(self, overrides):
        # every value the config types reject is a 400 at parse time,
        # never a point that fails inside a worker
        with pytest.raises(ProtocolError):
            parse_request({
                "workload": "sps", "scheme": "txcache",
                "config": {"overrides": overrides},
            })

    def test_mistyped_override_leaf_is_a_protocol_error(self,
                                                         mistyped):
        overrides, path = mistyped
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"workload": "sps", "scheme": "txcache",
                           "config": {"overrides": overrides}})
        assert str(excinfo.value).startswith(f"config.{path}: expected ")

    @pytest.mark.parametrize("overrides", [
        {"core": {"mlp": 4}},
        {"nvm": {"log_banks": 4}},
        {"l1": {"line_size": 64}},
    ], ids=["core.mlp", "nvm.log_banks", "l1.line_size"])
    def test_removed_knobs_are_unknown_keys(self, overrides):
        with pytest.raises(ProtocolError, match="unknown key"):
            parse_request({
                "workload": "sps", "scheme": "txcache",
                "config": {"overrides": overrides},
            })

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_unknown_workload_param_names_its_path(self, workload):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"workload": workload, "scheme": "txcache",
                           "workload_params": {"bogus": 1}})
        assert str(excinfo.value).startswith("workload_params.bogus: ")

    @pytest.mark.parametrize("name", ["seed", "core_id"])
    def test_generator_arguments_are_not_workload_params(self, name):
        with pytest.raises(ProtocolError,
                           match=f"^workload_params.{name}: "):
            parse_request({"workload": "sps", "scheme": "txcache",
                           "workload_params": {name: 1}})

    @pytest.mark.parametrize("params", BAD_PARAM_VALUES,
                             ids=[repr(p) for p in BAD_PARAM_VALUES])
    def test_bad_workload_param_value_names_its_path(self, params):
        # a value of the wrong type or out of range is a 400 at parse
        # time, never a worker crash
        (name,) = params
        with pytest.raises(ProtocolError,
                           match=f"^workload_params.{name}[ :]"):
            parse_request({"workload": "hashtable", "scheme": "txcache",
                           "workload_params": params})

    @pytest.mark.parametrize("workload,name", INT_PARAMS,
                             ids=[f"{w}.{n}" for w, n in INT_PARAMS])
    def test_int_workload_param_range_is_checked_without_a_build(
            self, workload, name, no_workload_builds):
        # the parser checks values; it never builds the workload, whose
        # memory grows with them (graph keeps a dict per vertex)
        minimum = 1 if name in _SIZE_PARAMS else 0
        for value in (minimum - 1, MAX_WORKLOAD_PARAM + 1, 2 ** 24):
            with pytest.raises(ProtocolError,
                               match=f"^workload_params.{name} must be "):
                parse_request({"workload": workload, "scheme": "txcache",
                               "workload_params": {name: value}})
        for value in (minimum, MAX_WORKLOAD_PARAM):
            request = parse_request({"workload": workload,
                                     "scheme": "txcache",
                                     "workload_params": {name: value}})
            assert request.point.workload_params == ((name, value),)

    @pytest.mark.parametrize("workload,name", INT_PARAMS,
                             ids=[f"{w}.{n}" for w, n in INT_PARAMS])
    def test_int_workload_param_range_is_what_constructs(self, workload,
                                                         name):
        # every in-range value builds, and a size param's 0 does not,
        # so the parser's range is the constructor's
        minimum = 1 if name in _SIZE_PARAMS else 0
        create_workload(workload, 0, 42, **{name: minimum})
        create_workload(workload, 0, 42, **{name: MAX_WORKLOAD_PARAM})
        if minimum:
            with pytest.raises(ValueError, match="allocation size"):
                create_workload(workload, 0, 42, **{name: 0})

    @pytest.mark.parametrize("workload,params", [
        ("hashtable", {"insert_ratio": 1}),
        ("hashtable", {"buckets": 64, "insert_ratio": 0.25}),
        ("synthetic", {"sequential": True, "footprint_lines": 8}),
    ], ids=["int-for-float", "two-params", "bool"])
    def test_typed_workload_param_values_parse(self, workload, params):
        request = parse_request({"kind": "crash", "workload": workload,
                                 "scheme": "txcache",
                                 "workload_params": params})
        assert request.point.workload_params == tuple(sorted(params.items()))

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_workload_param_keys_as_the_engine_does(self, workload):
        names = workload_param_defaults(workload)
        assert names
        for name in names:
            value = inspect.signature(
                WORKLOADS[workload]).parameters[name].default
            request = parse_request({
                "workload": workload, "scheme": "txcache",
                "operations": 20, "workload_params": {name: value}})
            assert request.key == ExperimentPoint(
                workload, "txcache", small_machine_config(),
                operations=20, workload_params=((name, value),)).key

    @pytest.mark.parametrize("config,path", [
        ({"num_cores": MAX_CORES + 1}, "config.num_cores"),
        ({"num_cores": 10 ** 9}, "config.num_cores"),
        ({"overrides": {"num_cores": MAX_CORES + 1}},
         "config.overrides.num_cores"),
        ({"preset": "paper", "overrides": {"num_cores": 10 ** 9}},
         "config.overrides.num_cores"),
    ], ids=["shortcut", "shortcut-huge", "override", "paper-override"])
    def test_num_cores_above_the_maximum_names_its_path(self, config, path):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"workload": "sps", "scheme": "txcache",
                           "config": config})
        assert str(excinfo.value) == (
            f"{path} must be <= {MAX_CORES}, "
            f"got {config.get('num_cores') or config['overrides']['num_cores']}")

    def test_num_cores_at_the_maximum_is_served(self):
        shortcut = parse_request({"workload": "sps", "scheme": "txcache",
                                  "config": {"num_cores": MAX_CORES}})
        override = parse_request({
            "workload": "sps", "scheme": "txcache",
            "config": {"overrides": {"num_cores": MAX_CORES}}})
        assert shortcut.point.config.num_cores == MAX_CORES
        assert override.key == shortcut.key
        assert MAX_CORES >= 4  # the largest machine the repository runs


# ---------------------------------------------------------------------------
# deterministic fleet stubs
# ---------------------------------------------------------------------------
class GatedFleet:
    """Async fleet whose executions block on an event; counts calls."""

    jobs = 4

    def __init__(self):
        self.calls = 0
        self.gate = asyncio.Event()

    async def execute(self, point, request_id=None):
        self.calls += 1
        await self.gate.wait()
        return point.key, {"total_cycles": self.calls}, 0.01


class FailingFleet:
    jobs = 1

    async def execute(self, point, request_id=None):
        raise RuntimeError("simulated execution bug")


def _point(operations=20, seed=42):
    return ExperimentPoint("sps", "txcache", CONFIG,
                           operations=operations, seed=seed)


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------
class TestScheduler:
    def test_identical_concurrent_requests_coalesce_to_one_execution(self):
        async def scenario():
            fleet = GatedFleet()
            scheduler = Scheduler(fleet, max_queue=8)
            submits = [asyncio.create_task(scheduler.submit(_point()))
                       for _ in range(5)]
            while fleet.calls == 0:      # first request reached the fleet
                await asyncio.sleep(0)
            fleet.gate.set()
            results = await asyncio.gather(*submits)
            return fleet.calls, results, scheduler.stats

        calls, results, stats = run_async(scenario())
        assert calls == 1
        assert all(result == results[0] for result in results)
        assert stats.counter("serve.coalesced") == 4
        assert stats.counter("serve.admitted") == 1
        assert stats.counter("serve.executed") == 1

    def test_distinct_points_do_not_coalesce(self):
        async def scenario():
            fleet = GatedFleet()
            fleet.gate.set()
            scheduler = Scheduler(fleet, max_queue=8)
            a = await scheduler.submit(_point(seed=1))
            b = await scheduler.submit(_point(seed=2))
            return fleet.calls, a, b

        calls, a, b = run_async(scenario())
        assert calls == 2
        assert a["key"] != b["key"]

    def test_queue_full_sheds_with_retry_after(self):
        async def scenario():
            fleet = GatedFleet()
            scheduler = Scheduler(fleet, max_queue=2, max_inflight=1)
            first = asyncio.create_task(scheduler.submit(_point(seed=1)))
            while fleet.calls == 0:      # seed=1 now holds the one slot
                await asyncio.sleep(0)
            queued = [asyncio.create_task(scheduler.submit(_point(seed=s)))
                      for s in (2, 3)]
            await asyncio.sleep(0)
            assert scheduler.queue_depth == 2
            with pytest.raises(QueueFull) as excinfo:
                await scheduler.submit(_point(seed=4))
            assert excinfo.value.retry_after >= 1
            # coalescing onto an in-flight point is NOT shed
            rider = asyncio.create_task(scheduler.submit(_point(seed=1)))
            await asyncio.sleep(0)
            fleet.gate.set()
            await asyncio.gather(first, rider, *queued)
            return scheduler.stats

        stats = run_async(scenario())
        assert stats.counter("serve.shed") == 1
        assert stats.counter("serve.coalesced") == 1

    def test_deadline_expiry_is_per_waiter(self):
        async def scenario():
            fleet = GatedFleet()
            scheduler = Scheduler(fleet, max_queue=8)
            patient = asyncio.create_task(scheduler.submit(_point()))
            while fleet.calls == 0:
                await asyncio.sleep(0)
            with pytest.raises(DeadlineExpired):
                await scheduler.submit(_point(), deadline=0.01)
            # the shared computation survived the impatient waiter
            fleet.gate.set()
            result = await patient
            return result, scheduler.stats

        result, stats = run_async(scenario())
        assert result["cached"] is False
        assert stats.counter("serve.deadline_expired") == 1
        assert stats.counter("serve.executed") == 1

    def test_abandoned_queued_point_is_cancelled(self):
        async def scenario():
            fleet = GatedFleet()
            scheduler = Scheduler(fleet, max_queue=8, max_inflight=1)
            blocker = asyncio.create_task(scheduler.submit(_point(seed=1)))
            while fleet.calls == 0:
                await asyncio.sleep(0)
            # sole waiter on a *queued* (never started) point times out
            with pytest.raises(DeadlineExpired):
                await scheduler.submit(_point(seed=2), deadline=0.01)
            await asyncio.sleep(0)       # let the cancellation land
            fleet.gate.set()
            await blocker
            return fleet.calls, scheduler.stats

        calls, stats = run_async(scenario())
        assert calls == 1                # seed=2 never burned a worker
        assert stats.counter("serve.cancelled") == 1

    def test_cache_hit_bypasses_admission(self, tmp_path):
        async def scenario():
            fleet = GatedFleet()
            cache = ResultCache(tmp_path)
            scheduler = Scheduler(fleet, cache=cache, max_queue=1,
                                  max_inflight=1)
            point = _point()
            cache.put(point.key, point.spec(), {"total_cycles": 9})
            # saturate the queue with a different point
            blocker = asyncio.create_task(
                scheduler.submit(_point(seed=99)))
            while fleet.calls == 0:
                await asyncio.sleep(0)
            queued = asyncio.create_task(scheduler.submit(_point(seed=98)))
            await asyncio.sleep(0)
            # the warm point answers despite the full queue
            result = await scheduler.submit(point)
            fleet.gate.set()
            await asyncio.gather(blocker, queued)
            return result

        result = run_async(scenario())
        assert result["cached"] is True
        assert result["payload"] == {"total_cycles": 9}

    def test_execution_writes_through_to_cache(self, tmp_path):
        async def scenario():
            fleet = GatedFleet()
            fleet.gate.set()
            cache = ResultCache(tmp_path)
            scheduler = Scheduler(fleet, cache=cache, max_queue=8)
            first = await scheduler.submit(_point())
            second = await scheduler.submit(_point())
            return fleet.calls, first, second

        calls, first, second = run_async(scenario())
        assert calls == 1
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["payload"] == first["payload"]

    def test_execution_error_propagates_to_every_waiter(self):
        async def scenario():
            scheduler = Scheduler(FailingFleet(), max_queue=8)
            submits = [asyncio.create_task(scheduler.submit(_point()))
                       for _ in range(3)]
            results = await asyncio.gather(*submits,
                                           return_exceptions=True)
            return results, scheduler.stats

        results, stats = run_async(scenario())
        assert all(isinstance(result, RuntimeError)
                   for result in results)
        assert stats.counter("serve.errors") == 1

    def test_drain_rejects_new_and_finishes_inflight(self):
        async def scenario():
            fleet = GatedFleet()
            scheduler = Scheduler(fleet, max_queue=8)
            inflight = asyncio.create_task(scheduler.submit(_point()))
            while fleet.calls == 0:
                await asyncio.sleep(0)
            drain = asyncio.create_task(scheduler.drain())
            await asyncio.sleep(0)
            with pytest.raises(Draining):
                await scheduler.submit(_point(seed=2))
            fleet.gate.set()
            await drain
            result = await inflight
            return result, scheduler.inflight

        result, inflight = run_async(scenario())
        assert result["payload"] == {"total_cycles": 1}
        assert inflight == 0


# ---------------------------------------------------------------------------
# worker fleet
# ---------------------------------------------------------------------------
class BrokenPoolFleet(WorkerFleet):
    """Fleet whose first ``failures`` submissions break the pool."""

    def __init__(self, failures, **kwargs):
        super().__init__(retry_backoff_seconds=0.001, **kwargs)
        self.failures = failures
        self.submissions = 0

    def _submit(self, point, request_id=None):
        self.submissions += 1
        if self.submissions <= self.failures:
            future = Future()
            future.set_exception(
                BrokenProcessPool("worker died"))
            return future
        future = Future()
        future.set_result((point.key, {"ok": 1}, 0.0))
        return future


class TestWorkerFleet:
    def test_recovers_within_retry_budget(self):
        fleet = BrokenPoolFleet(failures=2, jobs=1, max_retries=2)
        key, payload, _seconds = run_async(fleet.execute(_point()))
        assert payload == {"ok": 1}
        assert fleet.stats.counter("pool.retries") == 2
        assert fleet.stats.counter("pool.broken") == 2

    def test_crash_past_budget_raises_worker_crashed(self):
        fleet = BrokenPoolFleet(failures=10, jobs=1, max_retries=1)
        with pytest.raises(WorkerCrashed):
            run_async(fleet.execute(_point()))
        assert fleet.stats.counter("pool.broken") == 2  # 1 try + 1 retry

    def test_real_pool_executes_points(self):
        fleet = WorkerFleet(jobs=1)
        try:
            key, payload, seconds = run_async(
                fleet.execute(_point(operations=5)))
            assert key == _point(operations=5).key
            assert payload["cycles"] > 0
            assert seconds > 0
        finally:
            fleet.shutdown()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="crash helper pickles by reference; needs fork")
    def test_real_worker_crash_returns_500_error(self):
        fleet = WorkerFleet(jobs=1, max_retries=1,
                            retry_backoff_seconds=0.001)
        try:
            with pytest.raises(WorkerCrashed):
                run_async(fleet.execute(KamikazePoint()))
            assert fleet.stats.counter("pool.broken") == 2
        finally:
            fleet.shutdown()


class KamikazePoint:
    """A 'point' that kills its worker process mid-execution."""

    kind = "kamikaze"

    @property
    def key(self):
        return "kamikaze" * 8

    def spec(self):
        return {"kind": self.kind}

    def execute(self):
        os._exit(13)


# ---------------------------------------------------------------------------
# end to end over HTTP
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    svc = ServeService(port=0, jobs=1, cache_dir=cache_dir,
                       max_queue=8)
    thread, port = run_in_thread(svc)
    client = ServeClient(port=port, timeout=120)
    yield svc, client, cache_dir
    svc.request_shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


SPEC = {"workload": "sps", "scheme": "txcache", "operations": 20,
        "config": {"num_cores": 1}}


class TestServiceEndToEnd:
    def test_healthz(self, service):
        _svc, client, _cache = service
        health = client.healthz()
        assert health["status"] == "ok"

    def test_round_trip_and_warm_hit_under_100ms(self, service):
        _svc, client, _cache = service
        cold = client.submit(SPEC)
        assert cold["cached"] is False
        assert cold["kind"] == "experiment"
        assert cold["payload"]["cycles"] > 0
        best = float("inf")
        for _ in range(3):               # best-of-3 absorbs CI noise
            start = time.perf_counter()
            warm = client.submit(SPEC)
            best = min(best, time.perf_counter() - start)
            assert warm["cached"] is True
            assert warm["payload"] == cold["payload"]
        assert best < 0.1, f"warm hit took {best * 1000:.1f} ms"

    def test_served_payload_byte_identical_to_engine(self, service,
                                                     tmp_path):
        _svc, client, _cache = service
        served = client.submit(SPEC)
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        point = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        engine.run([point])
        assert served["key"] == point.key
        with open(engine.cache.path(point.key)) as fp:
            engine_payload = json.load(fp)["payload"]
        assert json.dumps(served["payload"]) == \
            json.dumps(engine_payload)

    def test_served_point_warms_the_shared_batch_cache(self, service):
        svc, client, _cache = service
        client.submit(SPEC)
        engine = ExperimentEngine(jobs=1,
                                  cache_dir=svc.scheduler.cache.root)
        point = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        engine.run([point])
        assert engine.stats.counter("engine.cache.hits") == 1
        assert engine.stats.counter("engine.executed") == 0

    def test_concurrent_duplicates_coalesce(self, service):
        svc, client, _cache = service
        spec = dict(SPEC, operations=40, seed=4242)  # fresh point
        executed_before = svc.stats.counter("serve.executed")
        coalesced_before = svc.stats.counter("serve.coalesced")
        results = [None] * 4
        errors = []

        def worker(index):
            try:
                results[index] = client.submit(spec)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        payloads = [json.dumps(result["payload"]) for result in results]
        assert len(set(payloads)) == 1
        executed = svc.stats.counter("serve.executed") - executed_before
        coalesced = svc.stats.counter("serve.coalesced") - coalesced_before
        cached = sum(result["cached"] for result in results)
        # every duplicate either joined the in-flight computation or
        # arrived after it finished and hit the cache — never recomputed
        assert executed == 1
        assert coalesced + cached == 3

    def test_bad_request_is_400(self, service):
        _svc, client, _cache = service
        with pytest.raises(ServeError) as excinfo:
            client.submit({"workload": "nope", "scheme": "txcache"})
        assert excinfo.value.status == 400
        assert "workload" in str(excinfo.value)

    @pytest.mark.parametrize("spec,path", [
        ({"workload_params": {"bogus": 1}}, "workload_params.bogus"),
        ({"workload_params": {"buckets": "x"}}, "workload_params.buckets"),
        ({"workload_params": {"buckets": 10 ** 12}},
         "workload_params.buckets"),
        ({"workload": "graph",
          "workload_params": {"vertices": MAX_WORKLOAD_PARAM + 1}},
         "workload_params.vertices"),
        ({"config": {"num_cores": 10 ** 9}}, "config.num_cores"),
    ], ids=["workload-param", "param-type", "param-value", "param-size",
            "num-cores"])
    def test_unservable_spec_is_400_before_any_worker(self, service, spec,
                                                       path,
                                                       no_workload_builds):
        svc, client, _cache = service
        executed = svc.stats.counter("serve.executed")
        with pytest.raises(ServeError) as excinfo:
            client.submit({"workload": "hashtable", "scheme": "txcache",
                           **spec})
        assert excinfo.value.status == 400
        assert path in str(excinfo.value)
        assert svc.stats.counter("serve.executed") == executed

    def test_queue_full_is_503_with_retry_after(self, tmp_path):
        svc = ServeService(port=0, jobs=1, cache_dir=tmp_path)

        async def shed(*_args, **_kwargs):
            raise QueueFull(3)

        svc.scheduler.submit = shed
        thread, port = run_in_thread(svc)
        try:
            with pytest.raises(ServeError) as excinfo:
                ServeClient(port=port, timeout=30).submit(SPEC)
        finally:
            svc.request_shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == 3
        assert excinfo.value.payload["error"] == \
            "queue full, retry after ~3s"
        assert excinfo.value.payload["retry_after"] == 3

    def test_unknown_endpoint_is_404(self, service):
        _svc, client, _cache = service
        status, _headers, payload = client._request("GET", "/nope")
        assert status == 404
        assert "error" in payload

    def test_stats_endpoint_reports_cache_and_series(self, service):
        svc, client, _cache = service
        client.submit(SPEC)
        # probes sample on epoch boundaries; make sure one has passed
        while svc.slicer.uptime_seconds < 1.05:
            time.sleep(0.05)
        svc.slicer.tick()                # force one sample
        stats = client.stats()
        assert stats["cache"]["hits"] >= 1
        assert 0 < stats["cache"]["hit_ratio"] <= 1
        assert stats["queue_depth"] == 0
        assert stats["counters"]["serve.http.200"] >= 1
        assert "queue_depth" in stats["timeseries"]

    def test_graceful_drain_finishes_inflight_request(self, tmp_path):
        svc = ServeService(port=0, jobs=1, cache_dir=tmp_path / "c",
                           max_queue=4)
        thread, port = run_in_thread(svc)
        client = ServeClient(port=port, timeout=120)
        spec = {"workload": "sps", "scheme": "txcache",
                "operations": 60, "seed": 777,
                "config": {"num_cores": 1}}
        box = {}

        def submit():
            box["response"] = client.submit(spec)

        submitter = threading.Thread(target=submit)
        submitter.start()
        # wait until the point is actually admitted, then pull the plug
        deadline = time.time() + 30
        while svc.scheduler.inflight == 0 and time.time() < deadline:
            time.sleep(0.005)
        svc.request_shutdown()
        submitter.join(timeout=60)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert box["response"]["payload"]["cycles"] > 0
        # ...and the drained point made it into the cache
        assert svc.scheduler.cache.get(box["response"]["key"]) \
            is not None


# ---------------------------------------------------------------------------
# liveness vs readiness
# ---------------------------------------------------------------------------
class TestLivenessReadiness:
    def test_fresh_service_is_live_and_ready(self, tmp_path):
        svc = ServeService(port=0, jobs=1, cache_dir=tmp_path)
        health = svc.healthz_payload()
        assert health["live"] is True
        assert health["ready"] is True
        assert health["status"] == "ok"

    def test_draining_service_is_live_but_not_ready(self, tmp_path):
        svc = ServeService(port=0, jobs=1, cache_dir=tmp_path)
        run_async(svc.scheduler.drain())
        health = svc.healthz_payload()
        # live: the loop still turns, in-flight points still finish;
        # ready: false, so the cluster router fails new keys over
        assert health["live"] is True
        assert health["ready"] is False
        assert health["status"] == "draining"

    def test_node_identity_travels_in_health_and_stats(self, tmp_path):
        svc = ServeService(port=0, jobs=1, cache_dir=tmp_path,
                           node_id="node7")
        assert svc.healthz_payload()["node"] == "node7"
        assert svc.stats_payload()["node"] == "node7"

    def test_standalone_service_has_no_node_identity(self, tmp_path):
        svc = ServeService(port=0, jobs=1, cache_dir=tmp_path)
        assert svc.healthz_payload()["node"] is None


# ---------------------------------------------------------------------------
# client-side bounded retry
# ---------------------------------------------------------------------------
class SheddingStub:
    """Async stub endpoint scripted like a saturated node: answers
    503 + Retry-After ``sheds`` times, then 200s forever."""

    def __init__(self, sheds, retry_after=0):
        self.sheds = sheds
        self.retry_after = retry_after
        self.calls = 0
        self.server = None
        self.port = None

    async def start(self):
        self.server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()

    async def _handle(self, reader, writer):
        from repro.serve import read_http_request, write_http_response
        try:
            while True:
                request = await read_http_request(reader)
                if request is None:
                    break
                self.calls += 1
                if self.calls <= self.sheds:
                    await write_http_response(
                        writer, 503, {"error": "shed"},
                        {"Retry-After": str(self.retry_after)}, True)
                else:
                    await write_http_response(
                        writer, 200,
                        {"key": "k", "cached": False,
                         "payload": {"cycles": 1}}, {}, True)
        except (asyncio.IncompleteReadError, ConnectionError,
                ValueError):
            pass
        finally:
            writer.close()


class TestClientRetries:
    def _submit_through(self, sheds, retries, retry_after=0):
        async def scenario():
            stub = await SheddingStub(sheds,
                                      retry_after=retry_after).start()
            client = ServeClient(port=stub.port, timeout=10)
            loop = asyncio.get_running_loop()
            try:
                result = await loop.run_in_executor(
                    None, lambda: client.submit(
                        SPEC, retries=retries,
                        retry_backoff_seconds=0.01))
                return result, stub.calls
            finally:
                await stub.stop()
        return run_async(scenario())

    def test_retries_through_sheds_to_success(self):
        result, calls = self._submit_through(sheds=2, retries=3)
        assert result["payload"] == {"cycles": 1}
        assert calls == 3

    def test_exhausted_retries_raise_the_last_shed(self):
        with pytest.raises(ServeError) as excinfo:
            self._submit_through(sheds=5, retries=1)
        assert excinfo.value.status == 503

    def test_zero_retries_raise_immediately(self):
        with pytest.raises(ServeError):
            self._submit_through(sheds=1, retries=0)

    def test_negative_retries_rejected(self):
        client = ServeClient(port=1)
        with pytest.raises(ValueError):
            client.submit(SPEC, retries=-1)

    def test_retry_waits_at_least_retry_after(self):
        start = time.monotonic()
        result, calls = self._submit_through(sheds=1, retries=2,
                                             retry_after=1)
        elapsed = time.monotonic() - start
        assert calls == 2
        assert elapsed >= 1.0       # honored the server's hint
        assert result["payload"] == {"cycles": 1}

    def test_connection_refused_retries_until_server_exists(self):
        # a dead port never answers: OSError should burn every retry
        async def scenario():
            with pytest.raises(OSError):
                client = ServeClient(port=1, timeout=1)
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    None, lambda: client.submit(
                        SPEC, retries=2, retry_backoff_seconds=0.01))
        run_async(scenario())

    def test_bad_request_is_never_retried(self):
        async def scenario():
            stub = await SheddingStub(0).start()
            # scripted 200s, but a malformed spec dies at the real
            # service's edge; against the stub we just assert the
            # client gives deterministic rejections no second chance
            client = ServeClient(port=stub.port, timeout=10)

            calls = {"n": 0}
            original = client._checked

            def counting(method, path, body=None):
                calls["n"] += 1
                raise ServeError(400, {"error": "bad spec"})

            client._checked = counting
            loop = asyncio.get_running_loop()
            try:
                with pytest.raises(ServeError) as excinfo:
                    await loop.run_in_executor(
                        None, lambda: client.submit(SPEC, retries=5))
                assert excinfo.value.status == 400
                assert calls["n"] == 1
            finally:
                await stub.stop()
        run_async(scenario())


# ---------------------------------------------------------------------------
# cache counters on /stats
# ---------------------------------------------------------------------------
class TestStatsCacheCounters:
    def test_store_counters_surface_in_stats(self, service):
        _svc, client, _cache = service
        spec = dict(SPEC, seed=31337)          # fresh key: one miss
        client.submit(spec)
        client.submit(spec)                    # warm: one store hit
        stats = client.stats()
        cache = stats["cache"]
        assert cache["store_misses"] >= 1
        assert cache["store_hits"] >= 1
        assert cache["evictions"] == 0         # uncapped fixture cache
        assert cache["configured"] is True


# ---------------------------------------------------------------------------
# observability: request ids, spans, /metrics, /trace
# ---------------------------------------------------------------------------
class RecordingFleet:
    """Async fleet that records the request_id the scheduler handed it."""

    jobs = 2

    def __init__(self):
        self.request_ids = []

    async def execute(self, point, request_id=None):
        self.request_ids.append(request_id)
        return point.key, {"total_cycles": 1}, 0.01


class TestRequestCorrelation:
    def test_supplied_request_id_round_trips(self, service):
        _svc, client, _cache = service
        response = client.submit(SPEC, request_id="corr-req-1")
        assert response["request_id"] == "corr-req-1"

    def test_generated_request_id_when_absent(self, service):
        _svc, client, _cache = service
        response = client.submit(SPEC)
        rid = response["request_id"]
        assert isinstance(rid, str) and len(rid) == 32
        assert all(ch in "0123456789abcdef" for ch in rid)

    def test_response_header_carries_request_id(self, service):
        _svc, client, _cache = service
        status, headers, payload = client._request(
            "POST", "/v1/points", body=SPEC,
            headers={"X-Request-Id": "hdr-req-9"})
        assert status == 200
        assert headers["x-request-id"] == "hdr-req-9"
        assert payload["request_id"] == "hdr-req-9"

    def test_malformed_request_id_is_replaced_not_rejected(self, service):
        _svc, client, _cache = service
        status, _headers, payload = client._request(
            "POST", "/v1/points", body=SPEC,
            headers={"X-Request-Id": "bad id with spaces\x01"})
        assert status == 200
        assert payload["request_id"] != "bad id with spaces\x01"
        assert len(payload["request_id"]) == 32

    def test_request_id_never_reaches_payload_or_key(self, service):
        _svc, client, _cache = service
        spec = dict(SPEC, seed=616)
        first = client.submit(spec, request_id="id-one")
        second = client.submit(spec, request_id="id-two")
        assert first["key"] == second["key"]
        assert json.dumps(first["payload"]) == \
            json.dumps(second["payload"])
        assert "request_id" not in first["payload"]

    def test_scheduler_hands_request_id_to_fleet(self):
        async def scenario():
            fleet = RecordingFleet()
            scheduler = Scheduler(fleet, max_queue=8)
            await scheduler.submit(_point(seed=90), request_id="sched-1")
            return fleet.request_ids

        assert run_async(scenario()) == ["sched-1"]

    def test_coalesced_waiters_all_tagged_on_entry(self):
        async def scenario():
            fleet = GatedFleet()
            scheduler = Scheduler(fleet, max_queue=8)
            first = asyncio.create_task(
                scheduler.submit(_point(seed=91), request_id="lead"))
            while fleet.calls == 0:
                await asyncio.sleep(0)
            entry = next(iter(scheduler._entries.values()))
            second = asyncio.create_task(
                scheduler.submit(_point(seed=91), request_id="rider"))
            await asyncio.sleep(0)
            ids = list(entry.request_ids)
            fleet.gate.set()
            await asyncio.gather(first, second)
            return ids

        assert run_async(scenario()) == ["lead", "rider"]


class TestServeObservability:
    def test_metrics_endpoint_strict_parses(self, service):
        from repro.obs import parse_prometheus
        svc, client, _cache = service
        client.submit(SPEC)
        text = client.metrics()
        families = parse_prometheus(text)
        assert "repro_serve_http_200_total" in families
        assert families["repro_serve_request_ms"]["type"] == "histogram"
        assert "repro_queue_depth" in families
        assert "repro_cache_entries" in families
        node_label = svc.node_id
        if node_label:
            (_n, labels, _v) = \
                families["repro_queue_depth"]["samples"][0]
            assert labels["node"] == node_label

    def test_trace_endpoint_validates_and_correlates(self, service):
        from repro.obs import validate_chrome_trace
        _svc, client, _cache = service
        spec = dict(SPEC, seed=5150)
        client.submit(spec, request_id="trace-req-5")
        trace = client.trace()
        assert validate_chrome_trace(trace) == []
        tagged = {event["name"]
                  for event in trace["traceEvents"]
                  if event.get("args", {}).get("request_id")
                  == "trace-req-5"}
        assert "serve.request" in tagged
        assert "pool.execute" in tagged

    def test_admission_wait_histogram_recorded(self, service):
        svc, client, _cache = service
        client.submit(SPEC)
        assert svc.stats.histogram("serve.admission.wait.ms").count >= 1
        assert svc.stats.histogram("serve.request.ms").count >= 1
