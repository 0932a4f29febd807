"""Tests for the observability layer: tracer ring/decimation, Chrome
export + schema, epoch sampler, stall attribution, and the two
contracts that make it safe to ship:

* **disabled == absent** — a run with no observability object produces
  bit-identical results to one with tracing enabled (tracing is
  read-only; the golden-figure suite separately pins disabled runs to
  the pre-tracer seed numbers);
* **enabled is deterministic** — two identical traced runs export
  byte-identical trace JSON.
"""

import json
from dataclasses import replace

import pytest

from repro.common.config import FaultConfig, small_machine_config
from repro.common.event import Simulator
from repro.obs import Observability
from repro.obs.sampler import EpochSampler
from repro.obs.schema import validate_chrome_trace
from repro.obs.stalls import STALL_KINDS, StallReport
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.runner import run_experiment

WORKLOAD = "hashtable"
OPS = 30
SEED = 11


# ---------------------------------------------------------------------------
# ring buffer and decimation
# ---------------------------------------------------------------------------
class TestTracerRing:
    def test_ring_keeps_newest(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.instant("p", "t", "tick", i)
        kept = tracer.events()
        assert [event["ts"] for event in kept] == [6, 7, 8, 9]
        assert tracer.emitted == 10
        assert tracer.dropped == 6

    def test_decimation_is_per_name_and_deterministic(self):
        tracer = Tracer(sample_every=3)
        for i in range(9):
            tracer.instant("p", "t", "a", i)
        for i in range(2):
            tracer.instant("p", "t", "b", i)
        counts = tracer.event_counts()
        assert counts["a"] == 3          # events 0, 3, 6
        assert counts["b"] == 1          # event 0 only
        assert tracer.decimated == 7
        assert [e["ts"] for e in tracer.events() if e["name"] == "a"] == \
            [0, 3, 6]

    def test_counters_bypass_decimation(self):
        tracer = Tracer(sample_every=100)
        for i in range(10):
            tracer.counter("p", "t", "depth", i, value=i)
        assert tracer.event_counts()["depth"] == 10
        assert tracer.decimated == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer(sample_every=0)

    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.instant("p", "t", "x", 0)
        NULL_TRACER.complete("p", "t", "x", 0, 5)
        NULL_TRACER.counter("p", "t", "x", 0, value=1)


# ---------------------------------------------------------------------------
# Chrome export + schema validator
# ---------------------------------------------------------------------------
def _small_trace() -> Tracer:
    tracer = Tracer()
    tracer.instant("core", "core0", "miss", 10, line=64)
    tracer.complete("core", "core0", "stall.load", 12, 30)
    tracer.counter("tc", "tc0", "occupancy", 40, entries=3)
    return tracer


class TestChromeExport:
    def test_export_passes_schema(self):
        assert validate_chrome_trace(_small_trace().chrome_trace()) == []

    def test_metadata_and_shapes(self):
        trace = _small_trace().chrome_trace()
        events = trace["traceEvents"]
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        names = {e["args"]["name"] for e in by_ph["M"]}
        assert {"core", "core0", "tc", "tc0"} <= names
        assert all(isinstance(e["pid"], int) for e in events)
        assert by_ph["X"][0]["dur"] == 30
        assert by_ph["i"][0]["s"] == "t"
        assert trace["otherData"]["clock"] == "cycles"

    def test_write_bytes_deterministic(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            path = tmp_path / f"{run}.json"
            _small_trace().write(str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestSchemaValidator:
    def _base(self):
        return _small_trace().chrome_trace()

    def test_flags_unknown_phase(self):
        trace = self._base()
        trace["traceEvents"][-1]["ph"] = "Z"
        assert any("phase" in error for error in validate_chrome_trace(trace))

    def test_flags_complete_without_duration(self):
        trace = self._base()
        for event in trace["traceEvents"]:
            if event["ph"] == "X":
                del event["dur"]
        assert validate_chrome_trace(trace) != []

    def test_flags_counter_without_numeric_args(self):
        trace = self._base()
        for event in trace["traceEvents"]:
            if event["ph"] == "C":
                event["args"] = {"entries": "three"}
        assert validate_chrome_trace(trace) != []

    def test_flags_missing_process_metadata(self):
        trace = self._base()
        trace["traceEvents"] = [event for event in trace["traceEvents"]
                                if event.get("name") != "process_name"]
        assert any("process_name" in error
                   for error in validate_chrome_trace(trace))

    def test_flags_non_list_envelope(self):
        assert validate_chrome_trace({"traceEvents": "nope"}) != []


# ---------------------------------------------------------------------------
# epoch sampler
# ---------------------------------------------------------------------------
class TestEpochSampler:
    def test_samples_on_boundary_crossings_only(self):
        tracer = Tracer()
        sampler = EpochSampler(tracer, epoch=10)
        values = iter(range(100))
        sampler.add_probe("tc", "tc0", "occupancy", lambda: next(values))
        sampler.on_advance(5)            # no boundary crossed
        sampler.on_advance(23)           # crossed 10 and 20 -> one sample
        sampler.on_advance(25)           # still inside [20, 30)
        sampler.on_advance(40)           # exactly on a boundary
        stamps = [e["ts"] for e in tracer.events()]
        assert stamps == [20, 40]

    def test_simulator_advance_hook_drives_sampler(self):
        sim = Simulator()
        tracer = Tracer()
        sampler = EpochSampler(tracer, epoch=10)
        sampler.add_probe("p", "t", "probe", lambda: 1)
        sim.set_advance_hook(sampler.on_advance)
        for t in (3, 7, 12, 12, 31):
            sim.schedule(t, lambda: None)
        sim.run()
        assert [e["ts"] for e in tracer.events()] == [10, 30]

    def test_epoch_must_be_positive(self):
        with pytest.raises(ValueError):
            EpochSampler(Tracer(), epoch=0)

    def test_disabled_tracer_skips_probe_reads(self):
        sampler = EpochSampler(NULL_TRACER, epoch=10)
        sampler.add_probe("p", "t", "boom",
                          lambda: (_ for _ in ()).throw(AssertionError))
        sampler.on_advance(50)           # must not read the probe


# ---------------------------------------------------------------------------
# stall report
# ---------------------------------------------------------------------------
class TestStallReport:
    COUNTERS = {
        "core.0.stall.load": 10.0,
        "core.0.stall.fence": 30.0,
        "core.0.stall.total": 40.0,
        "core.1.stall.flush": 5.0,
        "core.1.stall.total": 5.0,
        # derived/sample keys that must NOT parse as stall kinds
        "core.0.load.latency.mean": 12.5,
        "core.0.stall.load.latency.mean": 99.0,
        "mem.nvm.write.lines": 7.0,
    }

    def test_parses_only_stall_counters(self):
        report = StallReport.from_counters(self.COUNTERS, cycles=100)
        assert set(report.per_core) == {0, 1}
        assert report.per_core[0]["load"] == 10.0
        assert report.per_core[0]["store_buffer"] == 0.0   # defaulted
        assert report.attribution_errors() == []

    def test_totals_and_share(self):
        report = StallReport.from_counters(self.COUNTERS, cycles=100)
        totals = report.totals()
        assert totals["total"] == 45.0
        assert report.share("fence") == pytest.approx(30 / 45)

    def test_detects_attribution_violation(self):
        broken = dict(self.COUNTERS)
        broken["core.0.stall.total"] = 41.0      # kinds sum to 40
        report = StallReport.from_counters(broken, cycles=100)
        assert len(report.attribution_errors()) == 1
        assert "core 0" in report.attribution_errors()[0]

    def test_format_lists_every_kind(self):
        text = StallReport.from_counters(self.COUNTERS, cycles=100).format()
        for kind in STALL_KINDS:
            assert kind in text


# ---------------------------------------------------------------------------
# end-to-end: traced simulations
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def plain_result():
    return run_experiment(WORKLOAD, "txcache", num_cores=2,
                          operations=OPS, seed=SEED)


@pytest.fixture(scope="module")
def traced_run():
    obs = Observability(epoch=64)
    result = run_experiment(WORKLOAD, "txcache", num_cores=2,
                            operations=OPS, seed=SEED, obs=obs)
    return obs, result


class TestTracedSimulation:
    def test_tracing_never_changes_results(self, plain_result, traced_run):
        """Enabling the tracer + sampler must leave every simulated
        number — cycles first — bit-identical to the untraced run."""
        _obs, traced = traced_run
        assert traced.cycles == plain_result.cycles
        assert traced.to_dict(include_raw=True) == \
            plain_result.to_dict(include_raw=True)

    def test_trace_passes_schema(self, traced_run):
        obs, _result = traced_run
        assert validate_chrome_trace(obs.tracer.chrome_trace()) == []

    def test_trace_has_all_component_processes(self, traced_run):
        obs, _result = traced_run
        processes = {
            event["args"]["name"]
            for event in obs.tracer.chrome_trace()["traceEvents"]
            if event.get("name") == "process_name"}
        assert {"core", "tc", "mem", "cache"} <= processes

    def test_epoch_sampler_produced_time_series(self, traced_run):
        obs, result = traced_run
        samples = [event for event in obs.tracer.events()
                   if event["name"] == "occupancy_sampled"]
        assert samples, "no TC occupancy samples recorded"
        assert all(event["ts"] % 64 == 0 for event in samples)
        assert any(event["args"]["value"] > 0 for event in samples)
        assert max(event["ts"] for event in samples) <= result.cycles

    def test_enabled_trace_byte_identical_across_runs(self, tmp_path,
                                                      traced_run):
        obs_first, _result = traced_run
        obs_second = Observability(epoch=64)
        run_experiment(WORKLOAD, "txcache", num_cores=2,
                       operations=OPS, seed=SEED, obs=obs_second)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        obs_first.write(str(first))
        obs_second.write(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_stall_attribution_sums_to_total(self, traced_run):
        _obs, result = traced_run
        assert StallReport.from_result(result).attribution_errors() == []

    def test_decimated_trace_still_valid_and_deterministic(self):
        traces = []
        for _run in range(2):
            obs = Observability(ring_capacity=256, sample_every=4)
            run_experiment(WORKLOAD, "sp", num_cores=1,
                           operations=OPS, seed=SEED, obs=obs)
            assert obs.tracer.decimated > 0
            assert len(obs.tracer) <= 256
            trace = obs.tracer.chrome_trace()
            assert validate_chrome_trace(trace) == []
            traces.append(json.dumps(trace, sort_keys=True))
        assert traces[0] == traces[1]

    def test_composes_with_fault_injection(self):
        """Tracing a chaos run must not perturb it: same faults, same
        cycles, and the trace still validates."""
        config = small_machine_config(num_cores=1)
        faulty = replace(config, faults=FaultConfig(
            seed=3, nvm_write_fail_rate=1e-3, ack_loss_rate=1e-3))
        plain = run_experiment(WORKLOAD, "txcache", config=faulty,
                               operations=OPS, seed=SEED)
        obs = Observability(epoch=128)
        traced = run_experiment(WORKLOAD, "txcache", config=faulty,
                                operations=OPS, seed=SEED, obs=obs)
        assert traced.to_dict(include_raw=True) == \
            plain.to_dict(include_raw=True)
        assert validate_chrome_trace(obs.tracer.chrome_trace()) == []


class TestEngineTraceCapture:
    def test_traced_point_same_key_bypasses_cache_writes_trace(
            self, tmp_path):
        """``trace_dir`` is not part of the cache key (tracing never
        changes results), but a traced point must re-simulate even on a
        warm cache so its trace file actually gets captured."""
        from repro.sim.parallel import ExperimentEngine, ExperimentPoint

        config = small_machine_config(num_cores=1)
        plain = ExperimentPoint(WORKLOAD, "txcache", config,
                                operations=OPS, seed=SEED)
        traced = ExperimentPoint(WORKLOAD, "txcache", config,
                                 operations=OPS, seed=SEED,
                                 trace_dir=str(tmp_path / "traces"),
                                 trace_epoch=64)
        assert plain.key == traced.key
        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path / "cache"))
        [from_plain] = engine.run([plain])      # warms the cache
        [from_traced] = engine.run([traced])    # must still simulate
        assert engine.stats.counter("engine.executed") == 2
        trace_path = tmp_path / "traces" / f"{traced.key}.trace.json"
        assert trace_path.exists()
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []
        assert from_traced.to_dict(include_raw=True) == \
            from_plain.to_dict(include_raw=True)


class TestTraceCaptureWithoutEngine:
    """The sweeps capture traces on their default engine too: one
    ``<point.key>.trace.json`` per traced experiment point, and one
    ``<point.key>.<fraction index>.trace.json`` per crash of a traced
    crash point; nothing else."""

    @staticmethod
    def assert_traced(trace_dir, names):
        assert sorted(path.name for path in trace_dir.iterdir()) == \
            sorted(f"{name}.trace.json" for name in names)
        for path in trace_dir.iterdir():
            assert validate_chrome_trace(json.loads(path.read_text())) == []

    def test_crash_sweep(self, tmp_path):
        from repro.sim.crash import crash_sweep
        from repro.sim.parallel import CrashPoint

        config = small_machine_config(num_cores=1)
        crash_sweep(WORKLOAD, "txcache", fractions=(0.3, 0.7),
                    config=config, operations=OPS, seed=SEED,
                    trace_dir=str(tmp_path))
        key = CrashPoint(WORKLOAD, "txcache", config, (0.3, 0.7),
                         operations=OPS, seed=SEED).key
        self.assert_traced(tmp_path, [f"{key}.0", f"{key}.1"])

    def test_chaos_sweep(self, tmp_path):
        from repro.sim.chaos import chaos_sweep
        from repro.sim.parallel import CrashPoint

        config = small_machine_config(num_cores=1)
        fault_config = FaultConfig(seed=5, nvm_write_fail_rate=1e-3)
        chaos_sweep([WORKLOAD], fault_config=fault_config,
                    fractions=(0.3, 0.7), config=config,
                    operations=OPS, seed=SEED, trace_dir=str(tmp_path))
        key = CrashPoint(WORKLOAD, "txcache",
                         replace(config, faults=fault_config), (0.3, 0.7),
                         operations=OPS, seed=SEED).key
        self.assert_traced(tmp_path, [f"{key}.0", f"{key}.1"])

    def test_sweep_run(self, tmp_path):
        from repro.sim.parallel import ExperimentPoint
        from repro.sim.sweep import tc_size_sweep

        sweep = tc_size_sweep(sizes=(1024, 4096))
        config = small_machine_config(num_cores=1)
        sweep.run(WORKLOAD, "txcache", base_config=config,
                  operations=OPS, seed=SEED, trace_dir=str(tmp_path))
        self.assert_traced(tmp_path, [
            ExperimentPoint(WORKLOAD, "txcache",
                            sweep.configure(config, value),
                            operations=OPS, seed=SEED).key
            for value in sweep.values])
