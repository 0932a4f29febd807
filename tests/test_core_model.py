"""Unit tests for the core timing model (run under the Optimal scheme)."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import small_machine_config
from repro.common.event import SimulationError, Simulator
from repro.common.stats import Stats
from repro.common.types import NVM_BASE, Version
from repro.cpu.core import Core
from repro.cpu.trace import OpType, Trace, TraceBuilder, TraceOp
from repro.memory.system import MemorySystem
from repro.litmus import default_suite, random_program
from repro.litmus.runner import iter_crash_states
from repro.persistence.base import OptimalScheme
from repro.sim.runner import make_traces
from repro.sim.system import System
from test_golden_figures import FIGURE_PAIRS, OPS, SEED


def build_core(num_cores=1, core_config=None):
    sim = Simulator()
    stats = Stats()
    config = small_machine_config(num_cores=num_cores)
    if core_config is not None:
        from dataclasses import replace
        config = replace(config, core=core_config)
    memory = MemorySystem(sim, config, stats)
    hierarchy = CacheHierarchy(sim, config, stats, memory)
    scheme = OptimalScheme(sim, config, stats, hierarchy, memory)
    core = Core(sim, 0, config.core, stats.scoped("core.0"), scheme)
    return sim, stats, core, hierarchy, memory


def run(sim, core, trace):
    done = []
    core.run_trace(trace, on_done=lambda: done.append(True))
    sim.run()
    assert done, "core did not finish its trace"
    return core


class TestCompute:
    def test_compute_retires_issue_width_per_cycle(self):
        sim, stats, core, _h, _m = build_core()
        trace = Trace("t", [TraceOp(OpType.COMPUTE, count=40)])
        run(sim, core, trace)
        assert core.cycle == 10  # 40 instructions / 4-issue
        assert core.instructions_retired == 40

    def test_compute_rounds_up(self):
        sim, stats, core, _h, _m = build_core()
        trace = Trace("t", [TraceOp(OpType.COMPUTE, count=5)])
        run(sim, core, trace)
        assert core.cycle == 2


class TestLoads:
    def test_l1_hit_load_costs_one_cycle(self):
        sim, stats, core, hierarchy, _m = build_core()
        trace = Trace("t", [
            TraceOp(OpType.LOAD, addr=NVM_BASE),
            TraceOp(OpType.LOAD, addr=NVM_BASE),
        ])
        run(sim, core, trace)
        # first load misses to NVM; second is an L1 hit fully hidden
        assert stats.counter("l1.0.hit") == 1
        summary = stats.summary("core.0.load.latency")
        assert summary.count == 2
        assert summary.minimum == hierarchy.l1[0].latency

    def test_memory_miss_stalls_full_latency(self):
        sim, stats, core, _h, _m = build_core()
        trace = Trace("t", [TraceOp(OpType.LOAD, addr=NVM_BASE)])
        run(sim, core, trace)
        assert core.cycle > 130
        assert stats.counter("core.0.stall.load") > 0

    def test_persistent_load_latency_sampled(self):
        sim, stats, core, _h, _m = build_core()
        trace = Trace("t", [
            TraceOp(OpType.LOAD, addr=NVM_BASE),
            TraceOp(OpType.LOAD, addr=1 << 20),
        ])
        run(sim, core, trace)
        assert stats.summary("core.0.persist_load.latency").count == 1
        assert stats.summary("core.0.load.latency").count == 2


class TestStores:
    def test_store_issues_in_one_cycle(self):
        sim, stats, core, _h, _m = build_core()
        trace = Trace("t", [TraceOp(OpType.STORE, addr=NVM_BASE,
                                    version=Version(None, 0))])
        core.run_trace(trace)
        sim.run(until=2)
        # core moved on immediately even though the fill is outstanding
        assert core.instructions_retired == 1
        sim.run()

    def test_store_buffer_backpressure(self):
        from repro.common.config import CoreConfig
        sim, stats, core, _h, _m = build_core(
            core_config=CoreConfig(store_buffer_entries=2))
        ops = [TraceOp(OpType.STORE, addr=NVM_BASE + i * 4096)
               for i in range(16)]
        run(sim, core, Trace("t", ops))
        assert stats.counter("core.0.stall.store_buffer.events") > 0

    def test_stores_complete_architecturally_in_order(self):
        sim, stats, core, hierarchy, memory = build_core()
        ops = [TraceOp(OpType.STORE, addr=NVM_BASE, version=Version(None, i))
               for i in range(4)]
        run(sim, core, Trace("t", ops))
        assert hierarchy.newest_version(0, NVM_BASE) == Version(None, 3)


class TestTransactions:
    def test_tx_registers_follow_paper_semantics(self):
        sim, stats, core, _h, _m = build_core()
        builder = TraceBuilder("t")
        builder.begin_tx()
        builder.store(NVM_BASE)
        builder.end_tx()
        trace = builder.build()
        core.run_trace(trace)
        # step until inside the transaction
        while core.mode_tx is None and sim.step():
            pass
        assert core.mode_tx == 1
        assert core.next_tx_id == 2
        sim.run()
        assert core.mode_tx is None
        assert core.committed_transactions == 1

    def test_instruction_accounting_includes_markers(self):
        sim, stats, core, _h, _m = build_core()
        builder = TraceBuilder("t")
        builder.compute(8)
        builder.begin_tx()
        builder.store(NVM_BASE)
        builder.end_tx()
        trace = builder.build()
        run(sim, core, trace)
        assert core.instructions_retired == trace.instructions == 11


class TestMultiOpPrograms:
    def test_dependent_load_chain_time_accumulates(self):
        sim, stats, core, _h, _m = build_core()
        ops = [TraceOp(OpType.LOAD, addr=NVM_BASE + i * 4096) for i in range(4)]
        run(sim, core, Trace("t", ops))
        # four independent NVM misses, serialized by the blocking-load model
        assert core.cycle > 4 * 130

    def test_core_finishes_exactly_once(self):
        sim, stats, core, _h, _m = build_core()
        finishes = []
        trace = Trace("t", [TraceOp(OpType.COMPUTE, count=4)])
        core.run_trace(trace, on_done=lambda: finishes.append(1))
        sim.run()
        assert finishes == [1]
        assert stats.counter("core.0.finished") == 1


# ---------------------------------------------------------------------------
# Inline resume: a kernel-dispatched retire loop that reaches its next
# cycle through Simulator.advance_inline instead of the queue must
# dispatch exactly what the queue would have, in the same order.

REAL_SCHEMES = ("sp", "kiln", "txcache", "undo_log", "redo_log",
                "hybrid_dram")


class NoInlineSimulator(Simulator):
    """The reference kernel: every core continuation is queued."""

    def advance_inline(self, time, fn):
        return False


def _dispatches(config, scheme, traces, drive, inline=True, hook=None):
    """Load ``traces`` and ``drive`` the system, logging ``(time,
    owner)`` for every event it dispatches, inline resumes included.
    Returns the log with every other observable of the run."""
    kernel = Simulator if inline else NoInlineSimulator
    with mock.patch("repro.sim.system.Simulator", kernel):
        system = System(config, scheme)
    sim = system.sim
    log = []
    schedule_at = sim.schedule_at
    advance_inline = sim.advance_inline

    def logging_schedule_at(time, fn, *args):
        owner = getattr(fn, "__qualname__", type(fn).__name__)

        def dispatch(*fn_args):
            log.append((sim.now, owner))
            fn(*fn_args)

        schedule_at(time, dispatch, *args)

    def logging_advance_inline(time, fn):
        granted = advance_inline(time, fn)
        if granted:
            log.append((time, fn.__qualname__))
        return granted

    sim.schedule_at = logging_schedule_at
    sim.advance_inline = logging_advance_inline
    if hook is not None:
        sim.set_advance_hook(hook)
    system.load_traces(traces)
    states = drive(system, log)
    return {"log": log, "states": states, "stats": system.stats.dump(),
            "now": sim.now, "events": system.events_executed,
            "cycles": [core.cycle for core in system.cores]}, sim._inlined


def _drain(system, _log):
    system.run()


def _crash_states(system, _log):
    return list(iter_crash_states(system))


def _same_dispatches(config, scheme, traces, drive):
    got, inlined = _dispatches(config, scheme, traces, drive)
    want, _ = _dispatches(config, scheme, traces, drive, inline=False)
    assert got == want
    return inlined


class TestInlineResume:
    @pytest.mark.parametrize("figure", sorted(FIGURE_PAIRS))
    def test_golden_points_dispatch_as_the_queue_would(self, figure):
        workload, scheme, config_factory = FIGURE_PAIRS[figure]
        config = config_factory()
        traces = make_traces(workload, config.num_cores, OPS, seed=SEED)
        assert _same_dispatches(config, scheme, traces, _drain) > 0

    @pytest.mark.parametrize("scheme", REAL_SCHEMES)
    def test_litmus_suite_dispatches_as_the_queue_would(self, scheme):
        """Crash-state stepping runs many short run(until=...) calls:
        an inline resume must never cross one."""
        config = small_machine_config(num_cores=2)
        for program in default_suite(0):
            _same_dispatches(config, scheme, program.to_traces(),
                             _crash_states)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 20),
           scheme=st.sampled_from(REAL_SCHEMES))
    def test_random_programs_dispatch_as_the_queue_would(self, seed,
                                                         scheme):
        program = random_program(seed, max_txs=4, max_stores=4)
        config = small_machine_config(num_cores=program.num_cores)
        for drive in (_drain, _crash_states):
            _same_dispatches(config, scheme, program.to_traces(), drive)

    def test_step_runs_one_event(self):
        """Simulator.step() dispatches one event per call, so a core
        driven by step() never resumes inline."""
        def drive(system, log):
            steps = 0
            while system.sim.step():
                steps += 1
                assert len(log) == steps
            return steps

        config = small_machine_config(num_cores=2)
        traces = make_traces("hashtable", 2, 10, seed=3)
        got, inlined = _dispatches(config, "sp", traces, drive)
        assert inlined == 0
        want, _ = _dispatches(config, "sp", traces, _drain, inline=False)
        assert got["log"] == want["log"]

    def test_max_events_counts_inline_resumes(self):
        config = small_machine_config(num_cores=2)
        traces = make_traces("sps", 2, 10, seed=3)
        events = _dispatches(config, "txcache", traces, _drain)[0]["events"]

        def drive_with(max_events):
            def drive(system, _log):
                system.run(max_events=max_events)
            return drive

        got, inlined = _dispatches(config, "txcache", traces,
                                   drive_with(events))
        assert inlined > 0 and got["events"] == events
        with pytest.raises(SimulationError):
            _dispatches(config, "txcache", traces, drive_with(events - 1))

    def test_advance_hook_fires_once_per_distinct_time(self):
        config = small_machine_config(num_cores=2)
        traces = make_traces("btree", 2, 10, seed=3)
        advances = []
        got, inlined = _dispatches(config, "kiln", traces, _drain,
                                   hook=advances.append)
        want, _ = _dispatches(config, "kiln", traces, _drain, inline=False)
        assert inlined == 0
        assert got == want
        assert advances == sorted({time for time, _owner in want["log"]
                                   if time > 0})
