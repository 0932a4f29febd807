"""One crash sweep, one stepped run: every report equals a fresh run.

A crash sweep measures the run length once, then steps one system
through the sorted crash cycles instead of starting a fresh system per
fraction, faults on or off: a faulty config's one fault seed drives
the whole stepped run.  These tests hold every report of
:func:`crash_sweep`, :func:`chaos_sweep` and
``PersistentArena.crash_test`` equal to the fresh-run shape they
replace: a run-length measurement on the fault-free config and one
:func:`run_with_crash` per fraction under the same config, at the
cycle ``max(1, int(length * fraction))``.
"""

import json
from dataclasses import replace

import pytest

from repro.common.config import FaultConfig, small_machine_config
from repro.common.types import SchemeName
from repro.faults import injector as injector_module
from repro.obs import Observability, validate_chrome_trace
from repro.pheap import PersistentArena, PersistentDict
from repro.sim import crash as crash_module
from repro.sim.chaos import chaos_sweep
from repro.sim.crash import crash_sweep, measure_run_length, run_with_crash
from repro.sim.parallel import CRASH_FRACTIONS, CrashPoint, ExperimentEngine

CONFIG = small_machine_config(num_cores=1)
#: unsorted, with a duplicate and a fraction that clamps to cycle 1
FRACTIONS = (0.9, 0.1, 0.5, 0.5, 0.33, 0.0)
FAULTS = FaultConfig(seed=11, nvm_write_fail_rate=1e-2, ack_loss_rate=1e-2,
                     ack_delay_rate=1e-2, tc_bit_flip_rate=1e-3)


def fresh_reports(workload, scheme, config, fractions, *, operations,
                  seed=42, traces=None, **params):
    """The fresh-run reference: the length of a fault-free run, then a
    new system per fraction, each under ``config`` as given."""
    total = measure_run_length(
        workload, scheme, config=replace(config, faults=FaultConfig()),
        operations=operations, seed=seed, traces=traces, **params)
    return [run_with_crash(
        workload, scheme, max(1, int(total * fraction)), config=config,
        operations=operations, seed=seed, total_cycles=total,
        traces=traces, **params).to_dict() for fraction in fractions]


def dicts(reports):
    return [report.to_dict() for report in reports]


class TestSteppedEqualsFresh:
    @pytest.mark.parametrize("scheme", [scheme.value for scheme in SchemeName])
    def test_every_scheme(self, scheme):
        reports = crash_sweep("hashtable", scheme, FRACTIONS, config=CONFIG,
                              operations=30)
        assert dicts(reports) == fresh_reports(
            "hashtable", scheme, CONFIG, FRACTIONS, operations=30)
        cycles = [report.crash_cycle for report in reports]
        assert cycles[2] == cycles[3] and cycles[-1] == 1
        assert cycles != sorted(cycles)

    @pytest.mark.parametrize("scheme", ["txcache", "undo_log", "kiln"])
    def test_two_cores_with_workload_params(self, scheme):
        config = small_machine_config(num_cores=2)
        reports = crash_sweep("sps", scheme, FRACTIONS, config=config,
                              operations=15, seed=7, array_elements=64)
        assert dicts(reports) == fresh_reports(
            "sps", scheme, config, FRACTIONS, operations=15, seed=7,
            array_elements=64)

    def test_faulty_config_steps_one_run_under_one_seed(self, monkeypatch):
        seeds = []

        class RecordingInjector(injector_module.FaultInjector):
            def __init__(self, config):
                seeds.append(config.seed)
                super().__init__(config)

        monkeypatch.setattr(injector_module, "FaultInjector",
                            RecordingInjector)
        config = replace(CONFIG, faults=FAULTS)
        reports = crash_sweep("sps", "txcache", FRACTIONS, config=config,
                              operations=25)
        assert seeds == [FAULTS.seed]
        assert dicts(reports) == fresh_reports(
            "sps", "txcache", config, FRACTIONS, operations=25)
        assert any(value for report in reports
                   for value in report.fault_stats.values())
        # equal fractions crash at one cycle and share its one check
        assert reports[2] == reports[3]

    def test_broken_commit_still_tears(self):
        reports = crash_sweep("sps", "broken_commit", operations=30)
        assert len(reports) == len(CRASH_FRACTIONS)
        assert not any(report.consistent for report in reports)


#: harsher than any sweep's rates, so that every resilience path fires
HARSH = FaultConfig(seed=5, nvm_write_fail_rate=1e-2, ack_loss_rate=1e-2,
                    ack_delay_rate=1e-2, ack_duplicate_rate=1e-2,
                    tc_bit_flip_rate=1e-3)
#: sampled crashes, the last two past the fault-free length (3.0 also
#: past the end of every faulty run below)
STEP_FRACTIONS = (0.05, 0.3, 0.6, 0.95, 1.3, 3.0)
STEP_SCHEMES = [scheme.value for scheme in SchemeName
                if scheme is not SchemeName.OPTIMAL]
STEP_WORKLOADS = ("hashtable", "sps", "queue", "rbtree")
#: (workload, scheme, cores): every real scheme and the negative
#: control at 1 and 2 cores, the workloads taken in turn
FAULTY_PAIRS = [
    (STEP_WORKLOADS[(index + cores) % len(STEP_WORKLOADS)], scheme, cores)
    for cores in (1, 2) for index, scheme in enumerate(STEP_SCHEMES)]
#: resilience counters the faulty pairs must make fire somewhere
FIRED = ("nvm_write_retries", "ack_timeouts", "ack_reissues",
         "acks_dropped", "ecc_fallbacks", "ecc_corrected")


@pytest.fixture(scope="module")
def faulty_sweeps():
    """Each faulty pair's stepped sweep and its fresh-run reference."""
    out = {}
    for workload, scheme, cores in FAULTY_PAIRS:
        config = replace(small_machine_config(num_cores=cores), faults=HARSH)
        stepped = crash_sweep(workload, scheme, STEP_FRACTIONS,
                              config=config, operations=15)
        out[workload, scheme, cores] = (stepped, fresh_reports(
            workload, scheme, config, STEP_FRACTIONS, operations=15))
    return out


class TestFaultyStepping:
    """Stepping one faulty run is a fresh faulty run paused there: the
    injector's per-site streams draw the same sequence however often
    the run is paused."""

    @pytest.mark.parametrize("pair", FAULTY_PAIRS,
                             ids=["/".join(map(str, p)) for p in FAULTY_PAIRS])
    def test_stepped_reports_equal_fresh_runs(self, faulty_sweeps, pair):
        stepped, fresh = faulty_sweeps[pair]
        assert dicts(stepped) == fresh
        assert stepped[-1].crash_cycle > stepped[-1].total_cycles

    def test_every_resilience_path_fires(self, faulty_sweeps):
        totals = dict.fromkeys(FIRED, 0)
        for stepped, _fresh in faulty_sweeps.values():
            for report in stepped:
                for name in FIRED:
                    totals[name] += report.fault_stats[name]
        assert all(totals.values()), totals


class TestChaosAndArenaEqualFresh:
    def test_chaos_sweep(self):
        workloads, schemes = ("sps", "queue"), ("txcache", "sp")
        fractions = (0.7, 0.2, 0.2)
        report = chaos_sweep(workloads, schemes, FAULTS, fractions,
                             operations=20)
        expected = []
        for index, (workload, scheme) in enumerate(
                (w, s) for w in workloads for s in schemes):
            faults = replace(FAULTS, seed=FAULTS.seed + index)
            expected += fresh_reports(
                workload, scheme, replace(CONFIG, faults=faults), fractions,
                operations=20)
        assert dicts(report.runs) == expected

    def test_arena_crash_test(self):
        arena = PersistentArena("orders")
        table = PersistentDict(arena, buckets=8)
        for key in range(30):
            with arena.transaction():
                table[key] = key * key
        fractions = (0.75, 0.25, 0.75)
        traces = [arena.trace()]
        assert dicts(arena.crash_test("sp", fractions)) == fresh_reports(
            "orders", "sp", CONFIG, fractions, operations=0, traces=traces)


class TestOnePointPerSweep:
    @pytest.mark.parametrize("faults", [FaultConfig(), FAULTS],
                             ids=["clean", "faulty"])
    def test_default_sweep_is_one_point_and_two_runs(self, monkeypatch,
                                                      faults):
        built = []

        class CountingSystem(crash_module.System):
            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(crash_module, "System", CountingSystem)
        engine = ExperimentEngine()
        reports = crash_sweep("sps", "txcache", operations=20,
                              config=replace(CONFIG, faults=faults),
                              engine=engine)
        assert len(reports) == len(CRASH_FRACTIONS)
        assert engine.stats.counter("engine.points") == 1
        assert engine.stats.counter("engine.executed") == 1
        assert built == ["txcache", "txcache"]

    def test_chaos_sweep_is_one_batch_of_one_point_per_pair(self):
        engine = ExperimentEngine()
        report = chaos_sweep(["sps", "queue"], ["txcache", "kiln"], FAULTS,
                             (0.3, 0.6), operations=10, engine=engine)
        assert report.total_runs == 8
        assert engine.stats.counter("engine.points") == 4
        assert engine.stats.summary("engine.batch.seconds").count == 1

    def test_cached_sweep_reads_back_identically(self, tmp_path):
        cold_engine = ExperimentEngine(cache_dir=tmp_path)
        cold = crash_sweep("sps", "kiln", FRACTIONS, operations=15,
                           engine=cold_engine)
        warm_engine = ExperimentEngine(cache_dir=tmp_path)
        warm = crash_sweep("sps", "kiln", FRACTIONS, operations=15,
                           engine=warm_engine)
        assert warm_engine.stats.counter("engine.cache.hits") == 1
        assert warm_engine.stats.counter("engine.executed") == 0
        assert dicts(warm) == dicts(cold)


class TestCrashPointFractions:
    @pytest.mark.parametrize("fractions", [
        (), [], ("0.5",), (True,), (float("nan"),), (float("inf"),), 0.5,
        "0.5", None])
    def test_bad_fractions_rejected(self, fractions):
        with pytest.raises(ValueError, match="fractions"):
            CrashPoint("sps", "txcache", CONFIG, fractions)

    def test_integer_fractions_key_as_floats(self):
        assert CrashPoint("sps", "txcache", CONFIG, (1, 0)).key == \
            CrashPoint("sps", "txcache", CONFIG, [1.0, 0.0]).key


class TestTracedSweep:
    def test_one_trace_per_crash_taken_at_its_pause(self, tmp_path):
        """Each crash's trace is the trace of a fresh run stopped at
        that crash: stepping on does not change what was captured."""
        fractions = (0.6, 0.2, 0.6)
        reports = crash_sweep("sps", "txcache", fractions, config=CONFIG,
                              operations=15, trace_dir=str(tmp_path),
                              trace_epoch=64)
        key = CrashPoint("sps", "txcache", CONFIG, fractions,
                         operations=15).key
        assert sorted(path.name for path in tmp_path.iterdir()) == \
            sorted(f"{key}.{index}.trace.json" for index in range(3))
        for index, report in enumerate(reports):
            obs = Observability(epoch=64)
            run_with_crash("sps", "txcache", report.crash_cycle,
                           config=CONFIG, operations=15, obs=obs)
            obs.write(tmp_path / "fresh.json")
            fresh = (tmp_path / "fresh.json").read_text()
            stepped = (tmp_path / f"{key}.{index}.trace.json").read_text()
            assert stepped == fresh, index
        (tmp_path / "fresh.json").unlink()
        for path in tmp_path.iterdir():
            assert validate_chrome_trace(json.loads(path.read_text())) == []
