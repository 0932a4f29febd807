"""Integration tests: accelerator + memory system (ack path, probes)."""

import pytest

from repro.common.config import small_machine_config
from repro.common.event import Simulator
from repro.common.stats import Stats
from repro.common.types import NVM_BASE, Version
from repro.core.accelerator import PersistentMemoryAccelerator
from repro.core.overflow import OverflowManager, record_addr, shadow_addr
from repro.memory.system import MemorySystem
from repro.persistence.recovery import replay
from repro.sim.system import System


def build(num_cores=2, tc_entries=None):
    sim = Simulator()
    stats = Stats()
    config = small_machine_config(num_cores=num_cores)
    if tc_entries is not None:
        from dataclasses import replace
        config = replace(config, txcache=replace(
            config.txcache, size_bytes=tc_entries * 64))
    memory = MemorySystem(sim, config, stats)
    accel = PersistentMemoryAccelerator(sim, config, stats, memory)
    return sim, stats, memory, accel


def line(i):
    return NVM_BASE + i * 64


class TestCommitDrain:
    def test_committed_writes_reach_nvm_and_free_entries(self):
        sim, stats, memory, accel = build()
        for i in range(4):
            assert accel.cpu_write(0, 1, line(i), Version(1, i))
        accel.cpu_commit(0, 1)
        assert accel.busy()
        sim.run()
        assert not accel.busy()
        final = memory.durable_image.final_state()
        for i in range(4):
            assert final[line(i)] == Version(1, i)
        assert stats.counter("tc.0.ack.matched") == 4

    def test_uncommitted_writes_never_reach_nvm(self):
        sim, stats, memory, accel = build()
        accel.cpu_write(0, 1, line(0), Version(1, 0))
        sim.run()
        assert memory.durable_image.final_state() == {}
        assert accel.busy()  # the active entry still occupies the TC

    def test_per_core_tcs_are_independent(self):
        sim, stats, memory, accel = build()
        accel.cpu_write(0, 1, line(0), Version(1, 0))
        accel.cpu_write(1, 2, line(1), Version(2, 0))
        accel.cpu_commit(0, 1)
        sim.run()
        final = memory.durable_image.final_state()
        assert line(0) in final
        assert line(1) not in final

    def test_same_line_versions_arrive_in_program_order(self):
        # distinct transactions: coalescing only merges within one tx
        sim, stats, memory, accel = build()
        for seq in range(5):
            accel.cpu_write(0, seq + 1, line(0), Version(seq + 1, 0))
            accel.cpu_commit(0, seq + 1)
        sim.run()
        events = [v for _c, _s, l, v in memory.durable_image.events
                  if l == line(0)]
        assert [v.tx_id for v in events] == [1, 2, 3, 4, 5]

    def test_same_tx_same_line_writes_coalesce(self):
        sim, stats, memory, accel = build()
        for seq in range(5):
            accel.cpu_write(0, 1, line(0), Version(1, seq))
        accel.cpu_commit(0, 1)
        sim.run()
        events = [v for _c, _s, l, v in memory.durable_image.events
                  if l == line(0)]
        assert events == [Version(1, 4)]  # one write, newest data
        assert stats.counter("tc.0.write.coalesced") == 4


class TestFullStalls:
    def test_writes_rejected_when_full_then_resume_on_ack(self):
        sim, stats, memory, accel = build(tc_entries=2)
        assert accel.cpu_write(0, 1, line(0), Version(1, 0))
        assert accel.cpu_write(0, 1, line(1), Version(1, 1))
        assert not accel.cpu_write(0, 2, line(2), Version(2, 0))
        resumed = []
        accel.wait_for_space(0, lambda: resumed.append(sim.now))
        accel.cpu_commit(0, 1)
        sim.run()
        assert resumed, "stalled CPU was never woken"
        assert resumed[0] > 0
        assert stats.counter("tc.full_stalls") == 1


class TestProbe:
    def test_probe_finds_newest_across_cores(self):
        sim, stats, memory, accel = build()
        accel.cpu_write(0, 1, line(0), Version(1, 0))
        accel.cpu_write(1, 2, line(0), Version(2, 0))
        latency, version = accel.llc_probe(line(0))
        assert version == Version(2, 0)
        assert latency == accel.latency

    def test_probe_miss_returns_none(self):
        sim, stats, memory, accel = build()
        assert accel.llc_probe(line(5)) is None

    def test_probe_hits_committed_unacked_entries(self):
        sim, stats, memory, accel = build()
        accel.cpu_write(0, 1, line(0), Version(1, 0))
        accel.cpu_commit(0, 1)
        # before the simulator runs, the write is still unacked
        latency, version = accel.llc_probe(line(0))
        assert version == Version(1, 0)


class TestRecovery:
    def test_recover_replays_committed_entries(self):
        scheme = System.build("txcache", num_cores=2).scheme
        accel = scheme.accelerator
        accel.cpu_write(0, 1, line(0), Version(1, 0))
        accel.cpu_write(0, 1, line(1), Version(1, 1))
        accel.cpu_commit(0, 1)
        scheme.commit_cycle[1] = 0
        accel.cpu_write(0, 2, line(2), Version(2, 0))  # never committed
        recovered = replay({line(9): Version(0, 0)},
                           scheme.tc_replay_plan(0), scheme.commit_cycle)
        assert recovered[line(0)] == Version(1, 0)
        assert recovered[line(1)] == Version(1, 1)
        assert line(2) not in recovered
        assert recovered[line(9)] == Version(0, 0)


class TestOverflowManager:
    def test_fallback_commit_waits_for_record(self):
        sim, stats, memory, accel = build()
        overflow = OverflowManager(sim, memory, Stats().scoped("cow"))
        overflow.divert(0, 5, [(line(0), Version(5, 0))])
        overflow.write(0, 5, line(1), Version(5, 1))
        committed = []
        overflow.commit(0, 5, lambda: committed.append(sim.now))
        sim.run()
        assert committed
        state = overflow.fallback[5]
        assert state.record_durable_at is not None
        assert state.record_durable_at <= committed[0]
        # home copies performed in background
        final = memory.durable_image.final_state()
        assert final[line(0)] == Version(5, 0)
        assert final[line(1)] == Version(5, 1)
        assert final[record_addr(5)] == Version(5, -1)

    def test_shadow_writes_precede_record(self):
        sim, stats, memory, accel = build()
        overflow = OverflowManager(sim, memory, Stats().scoped("cow"))
        overflow.divert(0, 7, [])
        overflow.write(0, 7, line(0), Version(7, 0))
        overflow.commit(0, 7, lambda: None)
        sim.run()
        events = memory.durable_image.events
        shadow_cycle = next(c for c, _s, l, _v in events
                            if l == shadow_addr(line(0)))
        record_cycle = next(c for c, _s, l, _v in events
                            if l == record_addr(7))
        assert shadow_cycle <= record_cycle

    def test_committed_at_respects_crash_cycle(self):
        sim, stats, memory, accel = build()
        overflow = OverflowManager(sim, memory, Stats().scoped("cow"))
        overflow.divert(0, 3, [(line(0), Version(3, 0))])
        overflow.commit(0, 3, lambda: None)
        sim.run()
        durable_at = overflow.fallback[3].record_durable_at
        assert overflow.committed_at(durable_at - 1) == []
        assert [s.tx_id for s in overflow.committed_at(durable_at)] == [3]
