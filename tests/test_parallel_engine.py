"""Tests for the parallel experiment engine and its result cache.

The engine's contract is stronger than "runs stuff in parallel": the
merged output must be **identical** to the serial output (same objects,
field for field), and a cache hit must never change a report.  The
Hypothesis properties at the bottom drive random grids through the
serial path, the pooled path, and a cold/warm cache cycle and require
exact agreement every time.
"""

import hashlib
import json
import pathlib
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import (
    FaultConfig,
    config_fingerprint,
    small_machine_config,
)
from repro.common.types import SchemeName
from repro.litmus.generator import message_passing
from repro.sim.chaos import chaos_sweep
from repro.sim.crash import CrashReport, crash_sweep, run_with_crash
from repro.sim.parallel import (
    CrashPoint,
    ExperimentEngine,
    ExperimentPoint,
    LitmusPoint,
    CACHE_SCHEMA_VERSION,
    ResultCache,
    point_key,
)
from repro.sim.runner import (
    SCHEME_ORDER,
    make_traces,
    run_comparison,
    run_experiment,
    run_grid,
)
from repro.sim.sweep import tc_size_sweep

CONFIG = small_machine_config(num_cores=1)
GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_figures.json"


def result_dicts(results):
    return [r.to_dict(include_raw=True) for r in results]


class TestPointKeys:
    def test_key_is_stable(self):
        a = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        b = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        assert a.key == b.key

    @pytest.mark.parametrize("change", [
        lambda p: replace(p, workload="hashtable"),
        lambda p: replace(p, scheme="optimal"),
        lambda p: replace(p, operations=21),
        lambda p: replace(p, seed=43),
        lambda p: replace(p, workload_params=(("array_elements", 64),)),
        lambda p: replace(p, config=replace(
            p.config, txcache=replace(p.config.txcache, size_bytes=1024))),
        # a knob buried three dataclasses deep still changes the key
        lambda p: replace(p, config=replace(
            p.config, faults=FaultConfig(nvm_write_fail_rate=1e-3))),
    ])
    def test_any_spec_change_changes_key(self, change):
        base = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        assert change(base).key != base.key

    def test_kinds_never_collide(self):
        exp = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        crash = CrashPoint("sps", "txcache", CONFIG, operations=20)
        assert exp.key != crash.key

    def test_point_specs_are_pinned(self):
        """One fixed point of each kind: the exact spec dict (key order
        included — cache entries store it verbatim) and a key that is
        the digest of that spec.  Router placement, coalescing and every
        on-disk cache key on ``point.key``, so these must never drift."""
        fingerprint = config_fingerprint(CONFIG)
        params = (("array_elements", 64),)
        program = message_passing()
        cases = [
            (ExperimentPoint("sps", "txcache", CONFIG, operations=20,
                             seed=7, workload_params=params),
             "experiment",
             {"workload": "sps", "scheme": "txcache",
              "config": fingerprint, "operations": 20, "seed": 7,
              "workload_params": [["array_elements", 64]]}),
            (CrashPoint("hashtable", "txcache", CONFIG,
                        workload_params=params),
             "crash",
             {"workload": "hashtable", "scheme": "txcache",
              "fractions": [0.1, 0.25, 0.5, 0.75, 0.9],
              "config": fingerprint, "operations": 50, "seed": 42,
              "workload_params": [["array_elements", 64]]}),
            (CrashPoint("queue", "kiln", CONFIG, (0.9, 1), operations=40,
                        seed=3),
             "crash",
             {"workload": "queue", "scheme": "kiln", "fractions": [0.9, 1.0],
              "config": fingerprint, "operations": 40, "seed": 3,
              "workload_params": []}),
            (LitmusPoint(program.canonical_json(), "txcache", CONFIG,
                         check_every=2),
             "litmus",
             {"program": json.loads(program.canonical_json()),
              "scheme": "txcache", "config": fingerprint,
              "check_every": 2}),
        ]
        for point, kind, spec in cases:
            assert point.kind == kind
            assert list(point.spec().items()) == list(spec.items())
            assert point.key == point_key(kind, spec)

    def test_schema_version_tracks_golden_figures(self):
        """The golden figures freeze the timing model.  Regenerating
        them means cached payloads computed before the change are
        stale, and only a bump of CACHE_SCHEMA_VERSION changes every
        cache key — so the pair is pinned together.  A payload that
        changes under an unchanged key (version 3: a faulty crash
        point steps one run under one fault seed) bumps the version
        too, with the digest left as it was."""
        digest = hashlib.sha256(GOLDEN_PATH.read_bytes()).hexdigest()
        assert (CACHE_SCHEMA_VERSION, digest) == (
            3,
            "a9fe8412ee9aefd584a386c3b5dda919108d1ba1056a8b7cbcb953036f829c72",
        ), ("tests/data/golden_figures.json changed: the timing model "
            "moved, so bump CACHE_SCHEMA_VERSION in repro/sim/parallel.py "
            "and re-pin (version, sha256) here")

    def test_config_fingerprint_covers_every_knob(self):
        base = small_machine_config()
        assert config_fingerprint(base) == config_fingerprint(
            small_machine_config())
        deep = replace(base, nvm=replace(
            base.nvm, timing=replace(base.nvm.timing, write_ns=77.0)))
        assert config_fingerprint(deep) != config_fingerprint(base)


class TestRoundTrips:
    """from_dict(to_dict(x)) must reproduce x exactly — through JSON."""

    def test_simulation_result(self):
        result = run_experiment("sps", "txcache", config=CONFIG,
                                operations=20)
        data = json.loads(json.dumps(result.to_dict(include_raw=True)))
        rebuilt = type(result).from_dict(data)
        assert rebuilt.to_dict(include_raw=True) == \
            result.to_dict(include_raw=True)
        assert rebuilt.scheme is SchemeName.TXCACHE

    def test_crash_report(self):
        report = run_with_crash("sps", "txcache", 2000, config=CONFIG,
                                operations=15)
        data = json.loads(json.dumps(report.to_dict()))
        rebuilt = CrashReport.from_dict(data)
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.committed == report.committed

    def test_chaos_run(self):
        report = chaos_sweep(["sps"], fractions=[0.5], operations=15)
        run = report.runs[0]
        data = json.loads(json.dumps(run.to_dict()))
        assert CrashReport.from_dict(data).to_dict() == run.to_dict()


class TestChaosIsCrash:
    """A chaos run is a crash whose config carries fault rates: one
    harness, one payload shape."""

    FAULTY = replace(CONFIG, faults=FaultConfig(
        seed=5, nvm_write_fail_rate=1e-2, ack_loss_rate=1e-2,
        tc_bit_flip_rate=1e-3))

    def test_faulty_crash_point_equals_run_with_crash(self):
        (chaos,) = CrashPoint("hashtable", "txcache", self.FAULTY, (0.5,),
                              operations=40).execute()["reports"]
        assert chaos == run_with_crash(
            "hashtable", "txcache", 18924, config=self.FAULTY,
            operations=40, total_cycles=37848).to_dict()
        assert any(chaos["fault_stats"].values())

    def test_clean_crash_run_has_zero_fault_stats(self):
        report = run_with_crash("sps", "txcache", 2000, config=CONFIG,
                                operations=15)
        assert report.fault_stats
        assert all(value == 0 for value in report.fault_stats.values())


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", {"workload": "sps"}, {"cycles": 7})
        assert cache.get("k1") == {"cycles": 7}
        assert len(cache) == 1

    def test_missing_key_is_miss(self, tmp_path):
        assert ResultCache(tmp_path).get("nope") is None

    def test_corrupt_file_is_miss_not_error(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path("bad").write_text("{not json")
        cache.path("shape").write_text(json.dumps(["wrong", "shape"]))
        assert cache.get("bad") is None
        assert cache.get("shape") is None

    def test_spec_stored_for_debugging(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", {"workload": "sps"}, {"cycles": 7})
        entry = json.loads(cache.path("k1").read_text())
        assert entry["spec"] == {"workload": "sps"}

    def test_put_leaves_no_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", {}, {"cycles": 7})
        assert [path.name for path in tmp_path.iterdir()] == ["k1.json"]

    def test_concurrent_writers_always_leave_valid_entries(self, tmp_path):
        import threading as _threading

        cache = ResultCache(tmp_path)
        errors = []

        def hammer(worker):
            try:
                for i in range(25):
                    cache.put("shared", {"w": worker},
                              {"cycles": 7, "i": i})
                    assert cache.get("shared") is not None
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [_threading.Thread(target=hammer, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        payload = cache.get("shared")
        assert payload is not None and payload["cycles"] == 7
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == ["shared.json"]

    def test_max_bytes_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=0)

    def test_cap_evicts_oldest_mtime_first(self, tmp_path):
        import os as _os

        filler = ResultCache(tmp_path)          # uncapped: no eviction
        for index, key in enumerate(("old", "mid", "new")):
            filler.put(key, {}, {"pad": "x" * 200})
            _os.utime(filler.path(key), (100 + index, 100 + index))
        entry_size = filler.path("old").stat().st_size
        capped = ResultCache(tmp_path, max_bytes=entry_size * 2 + 10)
        capped.put("now", {}, {"pad": "x" * 200})
        assert capped.get("old") is None        # oldest two went
        assert capped.get("mid") is None
        assert capped.get("new") is not None
        assert capped.get("now") is not None
        assert capped.size_bytes() <= capped.max_bytes

    def test_just_written_entry_survives_tiny_cap(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        cache.put("only", {}, {"pad": "x" * 200})
        assert cache.get("only") is not None    # never evicts itself

    def test_uncapped_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(5):
            cache.put(f"k{index}", {}, {"pad": "x" * 200})
        assert len(cache) == 5


class TestEngineBasics:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)

    def test_engine_matches_direct_run(self):
        point = ExperimentPoint("sps", "txcache", CONFIG, operations=20)
        (via_engine,) = ExperimentEngine(jobs=1).run([point])
        direct = run_experiment("sps", "txcache", config=CONFIG,
                                operations=20)
        assert via_engine.to_dict(include_raw=True) == \
            direct.to_dict(include_raw=True)

    def test_duplicate_points_execute_once(self):
        engine = ExperimentEngine(jobs=1)
        point = ExperimentPoint("sps", "txcache", CONFIG, operations=15)
        first, second = engine.run([point, point])
        assert engine.stats.counter("engine.executed") == 1
        assert first.to_dict(include_raw=True) == \
            second.to_dict(include_raw=True)

    def test_per_point_timing_recorded(self):
        engine = ExperimentEngine(jobs=1)
        engine.run([ExperimentPoint("sps", "txcache", CONFIG,
                                    operations=15)])
        timing = engine.stats.summary("engine.point.seconds")
        assert timing.count == 1
        assert timing.total > 0

    def test_summary_mentions_hits(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        point = ExperimentPoint("sps", "txcache", CONFIG, operations=15)
        engine.run([point])
        engine.run([point])
        assert "hits=1" in engine.summary()


class TestSweepThroughEngine:
    def test_engine_sweep_equals_serial_sweep(self):
        sweep = tc_size_sweep(sizes=(512, 4096))
        serial = sweep.run("sps", "txcache", operations=20,
                           array_elements=64)
        engine = sweep.run("sps", "txcache", operations=20,
                           array_elements=64,
                           engine=ExperimentEngine(jobs=2))
        assert serial.to_json() == engine.to_json()

    def test_engine_rejects_prebuilt_traces(self):
        traces = make_traces("sps", 1, 10)
        with pytest.raises(ValueError, match="traces"):
            tc_size_sweep(sizes=(4096,)).run(
                "sps", "txcache", traces=traces,
                engine=ExperimentEngine(jobs=1))


class TestGridThroughEngine:
    #: two machines whose results must differ, so a grid returned in the
    #: wrong config order cannot match its direct runs
    CONFIGS = (CONFIG, small_machine_config(num_cores=2))
    WORKLOADS = ("sps", "hashtable")
    SCHEMES = (SchemeName.TXCACHE, SchemeName.OPTIMAL)

    def test_one_batch_returns_a_grid_per_config_in_order(self):
        engine = ExperimentEngine()
        grids = run_grid(self.WORKLOADS, self.SCHEMES, self.CONFIGS,
                         operations=10, engine=engine)
        assert engine.stats.summary("engine.batch.seconds").count == 1
        assert engine.stats.counter("engine.points") == \
            len(self.CONFIGS) * len(self.WORKLOADS) * len(self.SCHEMES)
        assert len(grids) == len(self.CONFIGS)
        for config, grid in zip(self.CONFIGS, grids):
            assert list(grid) == list(self.WORKLOADS)
            for workload, by_scheme in grid.items():
                assert list(by_scheme) == list(self.SCHEMES)
                for scheme, result in by_scheme.items():
                    direct = run_experiment(workload, scheme, config=config,
                                            operations=10)
                    assert result.to_dict(include_raw=True) == \
                        direct.to_dict(include_raw=True)
        assert grids[0]["sps"][SchemeName.OPTIMAL].instructions != \
            grids[1]["sps"][SchemeName.OPTIMAL].instructions

    def test_negative_control_cell_round_trips_through_the_cache(
            self, tmp_path):
        def cell():
            engine = ExperimentEngine(cache_dir=tmp_path)
            (grid,) = run_grid(["hashtable"], ["broken_commit"], [CONFIG],
                               operations=10, engine=engine)
            return engine, grid["hashtable"][SchemeName.BROKEN_COMMIT]

        _, cold = cell()
        warm_engine, warm = cell()
        assert warm_engine.stats.counter("engine.cache.hits") == 1
        assert warm.scheme is SchemeName.BROKEN_COMMIT
        assert warm.to_dict(include_raw=True) == \
            cold.to_dict(include_raw=True)

    def test_run_comparison_equals_one_trace_set_per_scheme_loop(self):
        """The serial loop ``run_comparison`` used to be: one shared
        ``make_traces`` result run under every scheme."""
        config = small_machine_config(num_cores=2)
        traces = make_traces("hashtable", 2, 20, seed=3)
        reference = {scheme: run_experiment("hashtable", scheme,
                                            config=config, traces=traces)
                     for scheme in SCHEME_ORDER}
        results = run_comparison("hashtable", config=config, operations=20,
                                 seed=3)
        assert list(results) == list(reference)
        for scheme, result in results.items():
            assert result.to_dict(include_raw=True) == \
                reference[scheme].to_dict(include_raw=True)


class TestCrashAndChaosThroughEngine:
    def test_crash_sweep_identical(self):
        kwargs = dict(fractions=[0.4, 0.8], operations=15)
        serial = crash_sweep("sps", "txcache", **kwargs)
        pooled = crash_sweep("sps", "txcache",
                             engine=ExperimentEngine(jobs=2), **kwargs)
        assert [r.to_dict() for r in serial] == \
            [r.to_dict() for r in pooled]

    def test_crash_sweep_rejects_prebuilt_traces(self):
        with pytest.raises(ValueError, match="traces"):
            crash_sweep("sps", "txcache", operations=10,
                        traces=make_traces("sps", 1, 10))

    def test_chaos_sweep_identical(self):
        fault = FaultConfig(nvm_write_fail_rate=1e-3, ack_loss_rate=1e-3)
        kwargs = dict(schemes=["txcache"], fault_config=fault,
                      fractions=[0.3, 0.7], operations=15)
        serial = chaos_sweep(["sps"], **kwargs)
        pooled = chaos_sweep(["sps"], engine=ExperimentEngine(jobs=2),
                             **kwargs)
        assert serial.format() == pooled.format()
        assert [r.to_dict() for r in serial.runs] == \
            [r.to_dict() for r in pooled.runs]


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------
POINT = st.tuples(
    st.sampled_from(["sps", "hashtable"]),
    st.sampled_from(["optimal", "txcache"]),
    st.integers(min_value=8, max_value=15),   # operations
    st.integers(min_value=0, max_value=3),    # seed
)
GRID = st.lists(POINT, min_size=1, max_size=3)


def build_points(grid):
    return [ExperimentPoint(workload, scheme, CONFIG,
                            operations=operations, seed=seed)
            for workload, scheme, operations, seed in grid]


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=GRID)
def test_property_pooled_equals_serial(grid):
    """Random grids: the pooled path's merged report is identical to
    the serial path's, element for element."""
    points = build_points(grid)
    serial = ExperimentEngine(jobs=1).run(points)
    pooled = ExperimentEngine(jobs=2).run(points)
    assert result_dicts(serial) == result_dicts(pooled)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=GRID)
def test_property_cache_hits_never_change_a_report(grid, tmp_path_factory):
    """Cold run, then a warm run on the same cache: every unique point
    hits, nothing re-simulates, and the merged report is unchanged."""
    cache_dir = tmp_path_factory.mktemp("engine-cache")
    points = build_points(grid)
    unique = len({point.key for point in points})
    cold_engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    cold = cold_engine.run(points)
    assert cold_engine.stats.counter("engine.executed") == unique
    warm_engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    warm = warm_engine.run(points)
    assert warm_engine.stats.counter("engine.cache.hits") == unique
    assert warm_engine.stats.counter("engine.executed") == 0
    assert result_dicts(cold) == result_dicts(warm)


class TestResultCacheCounters:
    """hit/miss/eviction counters feed the serve /stats endpoint and
    the cluster's merged cache-effectiveness view."""

    def test_fresh_cache_counts_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.counters() == {"hits": 0, "misses": 0,
                                    "evictions": 0}

    def test_misses_then_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None
        cache.put("k", {}, {"cycles": 1})
        assert cache.get("k") == {"cycles": 1}
        assert cache.get("k") == {"cycles": 1}
        assert cache.counters() == {"hits": 2, "misses": 1,
                                    "evictions": 0}

    def test_corrupt_entries_count_as_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path("bad").write_text("{not json")
        cache.path("shape").write_text(json.dumps(["wrong"]))
        assert cache.get("bad") is None
        assert cache.get("shape") is None
        assert cache.counters()["misses"] == 2

    def test_evictions_counted_by_the_evicting_instance(self, tmp_path):
        import os as _os

        filler = ResultCache(tmp_path)
        for index, key in enumerate(("old", "mid", "new")):
            filler.put(key, {}, {"pad": "x" * 200})
            _os.utime(filler.path(key), (100 + index, 100 + index))
        entry_size = filler.path("old").stat().st_size
        capped = ResultCache(tmp_path, max_bytes=entry_size * 2 + 10)
        capped.put("now", {}, {"pad": "x" * 200})
        assert capped.counters()["evictions"] == 2
        assert filler.counters()["evictions"] == 0   # not its doing

    def test_uncapped_cache_never_counts_evictions(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(5):
            cache.put(f"k{index}", {}, {"pad": "x" * 200})
        assert cache.counters()["evictions"] == 0
