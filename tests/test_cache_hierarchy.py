"""Integration tests for the L1/L2/LLC hierarchy over the memory system."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import small_machine_config
from repro.common.event import Simulator
from repro.common.stats import Stats
from repro.common.types import CACHE_LINE_SIZE, NVM_BASE, Version
from repro.memory.system import MemorySystem


def build(num_cores=2, config=None):
    sim = Simulator()
    stats = Stats()
    cfg = config or small_machine_config(num_cores=num_cores)
    memory = MemorySystem(sim, cfg, stats)
    hierarchy = CacheHierarchy(sim, cfg, stats, memory)
    return sim, stats, memory, hierarchy


def run_load(sim, hierarchy, core, addr):
    out = {}

    def done(latency, version):
        out["latency"] = latency
        out["version"] = version

    hierarchy.load(core, addr, done)
    sim.run()
    return out


def run_store(sim, hierarchy, core, addr, version, **kw):
    out = {}
    hierarchy.store(core, addr, version, on_complete=lambda lat: out.update(latency=lat), **kw)
    sim.run()
    return out


class TestLoadPath:
    def test_cold_load_comes_from_memory(self):
        sim, stats, memory, hierarchy = build()
        memory.poke(NVM_BASE, Version(0, 1))
        out = run_load(sim, hierarchy, 0, NVM_BASE)
        assert out["version"] == Version(0, 1)
        # at least L1+L2+LLC lookups plus the NVM array access
        assert out["latency"] > 130

    def test_second_load_hits_l1(self):
        sim, stats, memory, hierarchy = build()
        run_load(sim, hierarchy, 0, NVM_BASE)
        out = run_load(sim, hierarchy, 0, NVM_BASE)
        assert out["latency"] == hierarchy.l1[0].latency
        assert stats.counter("l1.0.hit") == 1

    def test_llc_hit_after_other_core_fill(self):
        sim, stats, memory, hierarchy = build()
        run_load(sim, hierarchy, 0, NVM_BASE)
        out = run_load(sim, hierarchy, 1, NVM_BASE)
        expected = (hierarchy.l1[1].latency + hierarchy.l2[1].latency
                    + hierarchy.llc.latency)
        assert out["latency"] == expected
        assert stats.counter("llc.hit") == 1

    def test_dram_load_faster_than_nvm_load(self):
        sim, stats, memory, hierarchy = build()
        nvm = run_load(sim, hierarchy, 0, NVM_BASE)
        dram = run_load(sim, hierarchy, 0, 1 << 20)
        assert dram["latency"] < nvm["latency"]

    def test_concurrent_misses_coalesce(self):
        sim, stats, memory, hierarchy = build()
        results = []
        hierarchy.load(0, NVM_BASE, lambda lat, v: results.append(lat))
        hierarchy.load(0, NVM_BASE + 8, lambda lat, v: results.append(lat))
        sim.run()
        assert len(results) == 2
        assert stats.counter("hierarchy.mshr.coalesced") == 1
        assert stats.counter("mem.nvm.read.requests") == 1


class TestStorePath:
    def test_store_hit_marks_dirty_and_updates_version(self):
        sim, stats, memory, hierarchy = build()
        run_load(sim, hierarchy, 0, NVM_BASE)
        run_store(sim, hierarchy, 0, NVM_BASE, Version(1, 0), persistent=True, tx_id=1)
        entry = hierarchy.l1[0].probe(NVM_BASE)
        assert entry.dirty and entry.persistent and entry.tx_id == 1
        assert entry.version == Version(1, 0)

    def test_store_miss_allocates(self):
        sim, stats, memory, hierarchy = build()
        out = run_store(sim, hierarchy, 0, NVM_BASE, Version(1, 0))
        assert out["latency"] > 100  # had to fetch from NVM
        assert hierarchy.l1[0].probe(NVM_BASE).dirty

    def test_store_then_load_returns_new_version(self):
        sim, stats, memory, hierarchy = build()
        run_store(sim, hierarchy, 0, NVM_BASE, Version(3, 1))
        out = run_load(sim, hierarchy, 0, NVM_BASE)
        assert out["version"] == Version(3, 1)

    def test_newest_version_searches_hierarchy_then_memory(self):
        sim, stats, memory, hierarchy = build()
        memory.poke(NVM_BASE, Version(0, 0))
        assert hierarchy.newest_version(0, NVM_BASE) == Version(0, 0)
        run_store(sim, hierarchy, 0, NVM_BASE, Version(5, 2))
        assert hierarchy.newest_version(0, NVM_BASE) == Version(5, 2)


class TestEvictions:
    def test_dirty_eviction_reaches_memory(self):
        """Fill far past total capacity; dirty DRAM data must be written back
        and later reload with the stored version."""
        sim, stats, memory, hierarchy = build(num_cores=1)
        base = 1 << 20
        lines = 3000  # far beyond the small config's 256 KB LLC would hold? (4096 lines) -> use more
        lines = 6000
        for i in range(lines):
            run_store(sim, hierarchy, 0, base + i * CACHE_LINE_SIZE, Version(1, i))
        assert stats.counter("hierarchy.llc.writebacks") > 0
        out = run_load(sim, hierarchy, 0, base)
        assert out["version"] == Version(1, 0)

    def test_drop_persistent_evictions(self):
        sim, stats, memory, hierarchy = build(num_cores=1)
        hierarchy.drop_persistent_evictions = True
        for i in range(6000):
            run_store(sim, hierarchy, 0, NVM_BASE + i * CACHE_LINE_SIZE,
                      Version(1, i), persistent=True)
        assert stats.counter("hierarchy.llc.dropped_evictions") > 0
        # nothing was written back to the NVM
        assert stats.counter("mem.nvm.write.requests") == 0

    def test_volatile_lines_not_dropped(self):
        sim, stats, memory, hierarchy = build(num_cores=1)
        hierarchy.drop_persistent_evictions = True
        for i in range(6000):
            run_store(sim, hierarchy, 0, (1 << 20) + i * CACHE_LINE_SIZE, Version(1, i))
        assert stats.counter("hierarchy.llc.dropped_evictions") == 0
        assert stats.counter("mem.dram.write.requests") > 0


class TestLlcProbe:
    def test_probe_hit_merges_newer_data_over_fill(self):
        sim, stats, memory, hierarchy = build()
        memory.poke(NVM_BASE, Version(0, 0))  # stale NVM copy
        hierarchy.llc_probe = lambda line: (3, Version(9, 9))
        out = run_load(sim, hierarchy, 0, NVM_BASE)
        # data comes from the TC (newest), timing from the NVM fill
        assert out["version"] == Version(9, 9)
        assert stats.counter("mem.nvm.read.requests") == 1
        assert stats.counter("hierarchy.llc_probe.hit") == 1
        assert out["latency"] > 130

    def test_probe_miss_falls_through_to_memory(self):
        sim, stats, memory, hierarchy = build()
        hierarchy.llc_probe = lambda line: None
        memory.poke(NVM_BASE, Version(0, 7))
        out = run_load(sim, hierarchy, 0, NVM_BASE)
        assert out["version"] == Version(0, 7)
        assert stats.counter("hierarchy.llc_probe.miss") == 1

    def test_probe_not_used_for_volatile_addresses(self):
        sim, stats, memory, hierarchy = build()
        hierarchy.llc_probe = lambda line: (3, Version(9, 9))
        out = run_load(sim, hierarchy, 0, 1 << 20)
        assert out["version"] != Version(9, 9)


class TestSchemeHooks:
    def test_block_until_delays_llc_accesses_only(self):
        sim, stats, memory, hierarchy = build()
        run_load(sim, hierarchy, 0, NVM_BASE)  # warm caches
        hierarchy.block_until(sim.now + 500)
        # L1 hit: unaffected by the LLC-level block
        out = run_load(sim, hierarchy, 0, NVM_BASE)
        assert out["latency"] == hierarchy.l1[0].latency
        # a cold access that reaches the LLC pays the block wait
        out = run_load(sim, hierarchy, 0, NVM_BASE + (1 << 16))
        assert out["latency"] >= 500

    def test_writeback_line_clwb(self):
        sim, stats, memory, hierarchy = build()
        run_store(sim, hierarchy, 0, NVM_BASE, Version(2, 0), persistent=True)
        cycles = []
        hierarchy.writeback_line(0, NVM_BASE, cycles.append)
        sim.run()
        assert len(cycles) == 1
        assert memory.durable_image.final_state()[NVM_BASE] == Version(2, 0)
        assert not hierarchy.l1[0].probe(NVM_BASE).dirty

    def test_writeback_clean_line_completes_fast(self):
        sim, stats, memory, hierarchy = build()
        cycles = []
        hierarchy.writeback_line(0, NVM_BASE, cycles.append)
        sim.run()
        assert len(cycles) == 1
        assert stats.counter("mem.nvm.write.requests") == 0

    def test_flush_to_llc_moves_dirty_data_down(self):
        sim, stats, memory, hierarchy = build()
        run_store(sim, hierarchy, 0, NVM_BASE, Version(4, 0), persistent=True)
        latency = hierarchy.flush_to_llc(0, NVM_BASE)
        assert latency == hierarchy.llc.latency
        entry = hierarchy.llc.probe(NVM_BASE)
        assert entry.dirty and entry.version == Version(4, 0)
        assert not entry.pinned     # no pinned transactions installed
        assert not hierarchy.l1[0].probe(NVM_BASE).dirty

    def test_pin_and_unpin(self):
        """Kiln's path: an uncommitted line is pinned as it lands in
        the LLC, and commit unpins it."""
        sim, stats, memory, hierarchy = build()
        hierarchy.llc_pinned_txs = {1}
        run_store(sim, hierarchy, 0, NVM_BASE, Version(1, 0),
                  persistent=True, tx_id=1)
        run_store(sim, hierarchy, 0, NVM_BASE + 64, Version(2, 0),
                  persistent=True, tx_id=2)
        hierarchy.flush_to_llc(0, NVM_BASE)
        hierarchy.flush_to_llc(0, NVM_BASE + 64)
        assert hierarchy.llc.probe(NVM_BASE).pinned
        assert not hierarchy.llc.probe(NVM_BASE + 64).pinned
        hierarchy.unpin_llc_line(NVM_BASE)
        assert not hierarchy.llc.probe(NVM_BASE).pinned

    def test_invalidate_everywhere(self):
        sim, stats, memory, hierarchy = build()
        run_load(sim, hierarchy, 0, NVM_BASE)
        hierarchy.invalidate_everywhere(NVM_BASE)
        assert hierarchy.l1[0].probe(NVM_BASE) is None
        assert hierarchy.llc.probe(NVM_BASE) is None


class TestCoherence:
    def test_writer_invalidates_other_core_copy(self):
        sim, stats, memory, hierarchy = build()
        run_load(sim, hierarchy, 0, NVM_BASE)
        run_load(sim, hierarchy, 1, NVM_BASE)
        run_store(sim, hierarchy, 1, NVM_BASE, Version(8, 0))
        assert hierarchy.l1[0].probe(NVM_BASE) is None
        assert stats.counter("hierarchy.coherence.invalidations") >= 1

    def test_reader_sees_other_cores_write(self):
        sim, stats, memory, hierarchy = build()
        run_store(sim, hierarchy, 0, NVM_BASE, Version(8, 1))
        out = run_load(sim, hierarchy, 1, NVM_BASE)
        assert out["version"] == Version(8, 1)
