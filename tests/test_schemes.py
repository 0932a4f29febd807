"""Behavioral tests for the four persistence schemes."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

from repro.common.config import small_machine_config
from repro.common.types import NVM_BASE, SchemeName, Version
from repro.cpu.trace import OpType, Trace, TraceBuilder, TraceOp
from repro.persistence.software import SoftwareScheme
from repro.persistence.swtx.base import LOG_BASE as SP_LOG_BASE
from repro.persistence.swtx.base import record_addr as sp_record_addr
from repro.sim.runner import make_traces, run_experiment
from repro.sim.system import System


def two_store_tx_trace():
    builder = TraceBuilder("t")
    builder.begin_tx()
    builder.store(NVM_BASE)
    builder.store(NVM_BASE + 64)
    builder.end_tx()
    return builder.build()


def run_system(scheme, trace, num_cores=1, until=None):
    system = System.build(scheme, num_cores=num_cores)
    system.load_traces([trace])
    system.run(until=until)
    return system


class TestOptimalScheme:
    def test_trace_unchanged(self):
        system = System.build("optimal")
        trace = two_store_tx_trace()
        assert system.scheme.prepare_trace(trace) is trace

    def test_no_nvm_writes_without_evictions(self):
        system = run_system("optimal", two_store_tx_trace())
        assert system.stats.counter("mem.nvm.write.requests") == 0

    def test_commits_are_never_durable(self):
        system = run_system("optimal", two_store_tx_trace())
        assert system.scheme.durably_committed(system.sim.now) == set()


class TestSoftwareScheme:
    def make_prepared(self):
        system = System.build("sp")
        trace = two_store_tx_trace()
        return system, system.scheme.prepare_trace(trace)

    def test_instrumentation_adds_log_clwb_fence_ops(self):
        _system, prepared = self.make_prepared()
        ops = [op.op for op in prepared.ops]
        assert OpType.CLWB in ops
        assert OpType.SFENCE in ops
        # log stores + data stores + record store
        stores = [op for op in prepared.ops if op.op is OpType.STORE]
        assert len(stores) == 2 + 2 + 1

    def test_log_writes_precede_body(self):
        _system, prepared = self.make_prepared()
        first_log = next(i for i, op in enumerate(prepared.ops)
                         if op.op is OpType.STORE and op.addr >= SP_LOG_BASE)
        first_data = next(i for i, op in enumerate(prepared.ops)
                          if op.op is OpType.STORE and op.addr < SP_LOG_BASE)
        assert first_log < first_data

    def test_fence_separates_log_from_body(self):
        _system, prepared = self.make_prepared()
        first_data = next(i for i, op in enumerate(prepared.ops)
                          if op.op is OpType.STORE and op.addr < SP_LOG_BASE)
        fences_before = [i for i, op in enumerate(prepared.ops[:first_data])
                         if op.op is OpType.SFENCE]
        assert fences_before, "no sfence between log and in-place writes"

    def test_record_is_last_persistent_store(self):
        _system, prepared = self.make_prepared()
        stores = [op for op in prepared.ops if op.op is OpType.STORE]
        assert stores[-1].addr == sp_record_addr(1)
        assert stores[-1].version == Version(1, -1)

    def test_record_durable_after_data_in_nvm_timeline(self):
        system = System.build("sp")
        trace = two_store_tx_trace()
        system.load_traces([trace])
        system.run()
        events = system.memory.durable_image.events
        record_cycle = next(c for c, _s, l, _v in events
                            if l == sp_record_addr(1))
        data_cycles = [c for c, _s, l, _v in events
                       if l in (NVM_BASE, NVM_BASE + 64)]
        assert data_cycles and max(data_cycles) <= record_cycle

    def test_write_traffic_includes_log_and_record(self):
        system = run_system("sp", two_store_tx_trace())
        # 2 data lines + 1 log line (two 16B records pack into one) + record
        assert system.stats.counter("mem.nvm.write.lines") == 4

    def test_fence_stall_accounted(self):
        system = run_system("sp", two_store_tx_trace())
        assert system.stats.counter("core.0.stall.fence") > 0

    def test_search_only_tx_adds_no_persistence_ops(self):
        builder = TraceBuilder("t")
        builder.begin_tx()
        builder.load(NVM_BASE)
        builder.end_tx()
        system = System.build("sp")
        prepared = system.scheme.prepare_trace(builder.build())
        assert all(op.op is not OpType.CLWB for op in prepared.ops)
        assert all(op.op is not OpType.SFENCE for op in prepared.ops)


class TestTxCacheScheme:
    def test_hierarchy_hooks_installed(self):
        system = System.build("txcache")
        assert system.hierarchy.drop_persistent_evictions
        assert system.hierarchy.llc_probe is not None

    def test_commit_is_nonblocking(self):
        """TX_END must not stall the core (paper: commit work happens
        on the side path)."""
        system = run_system("txcache", two_store_tx_trace())
        assert system.stats.counter("core.0.stall.commit") == 0

    def test_commit_cycle_recorded(self):
        system = run_system("txcache", two_store_tx_trace())
        assert 1 in system.scheme.commit_cycle
        assert system.scheme.durably_committed(system.sim.now) == {1}

    def test_tc_drains_to_nvm_after_commit(self):
        system = run_system("txcache", two_store_tx_trace())
        final = system.memory.durable_image.final_state()
        assert final[NVM_BASE] == Version(1, 0)
        assert final[NVM_BASE + 64] == Version(1, 1)
        assert not system.scheme.busy()

    def test_uncommitted_tx_never_reaches_nvm(self):
        builder = TraceBuilder("t")
        builder.begin_tx()
        builder.store(NVM_BASE)
        builder.end_tx()
        builder.begin_tx()       # second tx left open? traces must close —
        builder.store(NVM_BASE + 64)
        builder.end_tx()
        trace = builder.build()
        system = System.build("txcache")
        system.load_traces([trace])
        system.run(until=1)  # crash almost immediately
        final = system.memory.durable_state_at(1)
        assert NVM_BASE not in final and (NVM_BASE + 64) not in final

    def test_normal_mode_persistent_store_not_buffered(self):
        """Outside a transaction the CPU issues writes only to the L1
        (paper §4.2): nothing enters the TC."""
        trace = Trace("t", [TraceOp(OpType.STORE, addr=NVM_BASE,
                                    version=None)])
        system = run_system("txcache", trace)
        assert system.stats.counter("tc.0.write.inserted") == 0


class TestTxCacheOverflow:
    def big_tx_trace(self, stores):
        builder = TraceBuilder("t")
        builder.begin_tx()
        for index in range(stores):
            builder.store(NVM_BASE + index * 64)
        builder.end_tx()
        return builder.build()

    def test_oversized_tx_falls_back_to_cow(self):
        system = run_system("txcache", self.big_tx_trace(100))
        stats = system.stats
        assert stats.counter("tc.overflow.fallback.transactions") == 1
        assert stats.counter("tc.overflow.fallback.shadow_writes") > 0
        assert system.scheme.durably_committed(system.sim.now) == {1}

    def test_fallback_tx_data_reaches_home_addresses(self):
        system = run_system("txcache", self.big_tx_trace(100))
        final = system.memory.durable_image.final_state()
        for index in range(100):
            assert final[NVM_BASE + index * 64] == Version(1, index)

    def test_small_tx_does_not_fall_back(self):
        system = run_system("txcache", self.big_tx_trace(10))
        assert system.stats.counter(
            "tc.overflow.fallback.transactions") == 0


class TestKilnScheme:
    def test_nv_llc_latency_raised(self):
        plain = System.build("optimal")
        kiln = System.build("kiln")
        assert kiln.hierarchy.llc.latency > plain.hierarchy.llc.latency

    def test_commit_blocks_hierarchy(self):
        system = run_system("kiln", two_store_tx_trace())
        assert system.stats.counter("scheme.kiln.commit_flush_lines") == 2
        assert system.hierarchy.blocked_until > 0

    def test_commit_stalls_the_core(self):
        system = run_system("kiln", two_store_tx_trace())
        # the commit flush is attributed to its own stall kind
        assert system.stats.counter("core.0.stall.flush") > 0
        assert system.stats.counter("core.0.stall.total") > 0

    def test_committed_data_durable_without_nvm_write(self):
        """The NV-LLC itself is durable: a committed transaction is
        recoverable even though nothing was written to the NVM."""
        system = run_system("kiln", two_store_tx_trace())
        recovered = system.scheme.durable_lines(system.sim.now)
        assert recovered[NVM_BASE] == Version(1, 0)
        assert recovered[NVM_BASE + 64] == Version(1, 1)

    def test_uncommitted_lines_pinned_on_llc_arrival(self):
        system = System.build("kiln")
        scheme = system.scheme
        scheme._open_tx_lines[42] = {NVM_BASE}
        assert system.hierarchy.llc_pinned_txs is scheme._open_tx_lines
        assert 42 in system.hierarchy.llc_pinned_txs
        assert 7 not in system.hierarchy.llc_pinned_txs
        assert None not in system.hierarchy.llc_pinned_txs


class TestNegativeControl:
    def test_builds_in_a_fresh_interpreter(self):
        """Every scheme is a SchemeName member: no import has to run
        first to make ``broken_commit`` a valid name."""
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = ("import sys\n"
                 "from repro.common.config import small_machine_config\n"
                 "from repro.sim.system import System\n"
                 "system = System(small_machine_config(num_cores=1), "
                 "'broken_commit')\n"
                 "print(type(system.scheme).__name__, "
                 "'repro.litmus.runner' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["CommitBeforeFlushScheme", "False"]


class TestSchemeComparability:
    """All schemes must execute the same workload to the same
    architectural end state."""

    @pytest.mark.parametrize("scheme", ["optimal", "sp", "kiln", "txcache"])
    def test_final_architectural_state_matches_trace(self, scheme):
        traces = make_traces("sps", 1, 20, seed=3, array_elements=64)
        system = System.build(scheme, num_cores=1)
        system.load_traces(traces)
        system.run()
        from repro.sim.crash import expected_image
        all_tx = {op.tx_id for op in traces[0].ops if op.tx_id is not None}
        expected = expected_image(traces, all_tx)
        for line, version in expected.items():
            assert system.hierarchy.newest_version(0, line) == version
