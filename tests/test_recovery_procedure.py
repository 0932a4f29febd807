"""Tests for the timed recovery procedure (core/recovery.py)."""

import pytest

from repro.common.config import small_machine_config
from repro.common.types import NVM_BASE, Version
from repro.core.recovery import simulate_recovery
from repro.litmus import iter_crash_states
from repro.litmus.generator import default_suite
from repro.sim.crash import check_recovery, measure_run_length
from repro.sim.runner import make_traces
from repro.sim.system import System


def crashed_txcache_system(operations=20, until=400, num_cores=1, **params):
    system = System.build("txcache", num_cores=num_cores)
    traces = make_traces("sps", num_cores, operations, seed=5,
                         array_elements=64, **params)
    system.load_traces(traces)
    system.run(until=until)
    return system, traces


def recover(system):
    return simulate_recovery(system.scheme, system.sim.now)


class TestSimulateRecovery:
    def test_recovered_image_matches_scheme_model(self):
        system, traces = crashed_txcache_system()
        result = recover(system)
        model = system.scheme.durable_lines(system.sim.now)
        assert result.image == model

    @pytest.mark.parametrize("program", default_suite(0),
                             ids=lambda program: program.name)
    def test_timed_recovery_equals_model_at_every_crash_state(self, program):
        """Both consume one replay plan, so they agree at every state
        the litmus matrix checks — including the ones where two
        committed transactions wait in the TCs for the same line."""
        system = System(small_machine_config(num_cores=program.num_cores),
                        "txcache")
        system.load_traces(program.to_traces())
        for cycle, _committed, model in iter_crash_states(system):
            assert simulate_recovery(system.scheme, cycle).image == model, \
                cycle

    def test_recovered_image_is_crash_consistent(self):
        system, traces = crashed_txcache_system()
        result = recover(system)
        committed = system.scheme.durably_committed(system.sim.now)
        assert check_recovery(traces, result.image, committed) == []

    def test_counts_are_coherent(self):
        system, _traces = crashed_txcache_system()
        result = recover(system)
        assert result.entries_scanned >= result.entries_replayed
        assert result.entries_scanned >= result.entries_discarded
        assert result.cycles > 0

    def test_empty_tc_recovers_instantly(self):
        system, _traces = crashed_txcache_system(until=None)
        system.run()  # run to completion: TC fully drained
        result = recover(system)
        assert result.entries_replayed == 0
        assert result.entries_discarded == 0
        assert result.cycles == 0

    def test_recovery_latency_grows_with_tc_occupancy(self):
        total = measure_run_length("sps", "txcache", operations=20, seed=5,
                                   array_elements=64)
        early, _ = crashed_txcache_system(until=max(1, total // 10))
        late, _ = crashed_txcache_system(until=int(total * 0.5))
        r_early = recover(early)
        r_late = recover(late)
        # more live entries at the later crash -> more work, not less
        if r_late.entries_scanned > r_early.entries_scanned:
            assert r_late.cycles >= r_early.cycles

    def test_fallback_shadow_copies_timed(self):
        from repro.cpu.trace import TraceBuilder
        builder = TraceBuilder("t")
        builder.begin_tx()
        for index in range(100):  # overflows the 64-entry TC
            builder.store(NVM_BASE + index * 64)
        builder.end_tx()
        system = System.build("txcache", num_cores=1)
        system.load_traces([builder.build()])
        # run long enough for the COW record to be durable, then "crash"
        system.run(until=60_000)
        assert system.scheme.overflow.committed_at(system.sim.now)
        result = recover(system)
        assert result.fallback_lines_copied == 100
        for index in range(100):
            assert result.image[NVM_BASE + index * 64] == Version(1, index)
