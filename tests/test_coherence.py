"""MESI directory protocol tests: transitions, invariants, integration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from repro.cache.coherence import CoherenceState, MesiDirectory
from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import small_machine_config
from repro.common.event import Simulator
from repro.common.stats import Stats
from repro.common.types import NVM_BASE, Version, is_persistent_addr, \
    line_addr
from repro.memory.system import MemorySystem

M = CoherenceState.MODIFIED
E = CoherenceState.EXCLUSIVE
S = CoherenceState.SHARED
I = CoherenceState.INVALID

LINE = 0x1000


def make(num_cores=4):
    return MesiDirectory(num_cores, Stats().scoped("coh"))


class TestReadTransitions:
    def test_cold_read_grants_exclusive(self):
        directory = make()
        outcome = directory.on_read(0, LINE)
        assert outcome.requester_state is E
        assert outcome.supplier is None
        assert directory.state_of(0, LINE) is E

    def test_second_reader_downgrades_exclusive(self):
        directory = make()
        directory.on_read(0, LINE)
        outcome = directory.on_read(1, LINE)
        assert outcome.requester_state is S
        assert outcome.supplier == 0
        assert not outcome.supplier_was_dirty
        assert directory.state_of(0, LINE) is S
        assert directory.state_of(1, LINE) is S

    def test_read_of_modified_line_snoops_dirty_owner(self):
        directory = make()
        directory.on_write(0, LINE)
        outcome = directory.on_read(1, LINE)
        assert outcome.supplier == 0
        assert outcome.supplier_was_dirty
        assert directory.state_of(0, LINE) is S

    def test_repeated_read_is_silent(self):
        directory = make()
        directory.on_read(0, LINE)
        outcome = directory.on_read(0, LINE)
        assert outcome.requester_state is E  # unchanged
        assert outcome.supplier is None


class TestWriteTransitions:
    def test_cold_write_takes_modified(self):
        directory = make()
        outcome = directory.on_write(0, LINE)
        assert directory.state_of(0, LINE) is M
        assert outcome.invalidated == []
        assert not outcome.was_upgrade

    def test_write_invalidates_all_sharers(self):
        directory = make()
        for core in (0, 1, 2):
            directory.on_read(core, LINE)
        outcome = directory.on_write(3, LINE)
        assert sorted(outcome.invalidated) == [0, 1, 2]
        for core in (0, 1, 2):
            assert directory.state_of(core, LINE) is I
        assert directory.state_of(3, LINE) is M

    def test_upgrade_from_shared(self):
        directory = make()
        directory.on_read(0, LINE)
        directory.on_read(1, LINE)
        outcome = directory.on_write(0, LINE)
        assert outcome.was_upgrade
        assert outcome.invalidated == [1]
        assert directory.state_of(0, LINE) is M

    def test_write_over_remote_modified_reports_dirty_owner(self):
        directory = make()
        directory.on_write(0, LINE)
        outcome = directory.on_write(1, LINE)
        assert outcome.dirty_owner == 0
        assert directory.state_of(0, LINE) is I
        assert directory.state_of(1, LINE) is M

    def test_write_to_own_modified_is_silent(self):
        directory = make()
        directory.on_write(0, LINE)
        outcome = directory.on_write(0, LINE)
        assert outcome.was_upgrade
        assert outcome.invalidated == []


class TestEvictions:
    def test_evict_removes_holder(self):
        directory = make()
        directory.on_read(0, LINE)
        directory.on_evict(0, LINE)
        assert directory.state_of(0, LINE) is I
        assert directory.holders(LINE) == set()

    def test_drop_line_returns_holders(self):
        directory = make()
        directory.on_read(0, LINE)
        directory.on_read(1, LINE)
        assert directory.drop_line(LINE) == {0, 1}
        assert directory.holders(LINE) == set()

    def test_owner_query(self):
        directory = make()
        assert directory.owner(LINE) is None
        directory.on_write(2, LINE)
        assert directory.owner(LINE) == 2
        directory.on_read(1, LINE)
        assert directory.owner(LINE) is None  # downgraded to S


class TestInvariantsUnderRandomTraffic:
    @given(st.lists(st.tuples(
        st.sampled_from(["read", "write", "evict"]),
        st.integers(0, 3),            # core
        st.integers(0, 7)),           # line index
        min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_invariants_hold(self, ops):
        directory = make(num_cores=4)
        for kind, core, line_index in ops:
            line = 0x1000 + line_index * 64
            if kind == "read":
                directory.on_read(core, line)
            elif kind == "write":
                directory.on_write(core, line)
            else:
                directory.on_evict(core, line)
            directory.check_invariants()

    @given(st.lists(st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(0, 3),
        st.integers(0, 3)),
        min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_writer_is_sole_holder(self, ops):
        directory = make(num_cores=4)
        for kind, core, line_index in ops:
            line = line_index * 64
            if kind == "read":
                directory.on_read(core, line)
            else:
                directory.on_write(core, line)
                assert directory.holders(line) == {core}
                assert directory.state_of(core, line) is M


class TestHierarchyIntegration:
    def build(self):
        from repro.cache.hierarchy import CacheHierarchy
        from repro.common.config import small_machine_config
        from repro.common.event import Simulator
        from repro.memory.system import MemorySystem

        sim = Simulator()
        stats = Stats()
        config = small_machine_config(num_cores=2)
        memory = MemorySystem(sim, config, stats)
        hierarchy = CacheHierarchy(sim, config, stats, memory)
        return sim, stats, memory, hierarchy

    def test_cross_core_write_visibility(self):
        from repro.common.types import NVM_BASE, Version

        sim, stats, memory, hierarchy = self.build()
        done = {}
        hierarchy.store(0, NVM_BASE, Version(1, 0))
        sim.run()
        hierarchy.load(1, NVM_BASE, lambda lat, v: done.update(v=v))
        sim.run()
        assert done["v"] == Version(1, 0)
        # core 0 downgraded M -> S by core 1's read
        assert hierarchy.coherence.state_of(0, NVM_BASE) in (
            CoherenceState.SHARED, CoherenceState.INVALID)

    def test_ping_pong_ownership(self):
        from repro.common.types import NVM_BASE, Version

        sim, stats, memory, hierarchy = self.build()
        for round_ in range(6):
            core = round_ % 2
            hierarchy.store(core, NVM_BASE, Version(1, round_))
            sim.run()
            assert hierarchy.coherence.holders(NVM_BASE) == {core}
            hierarchy.coherence.check_invariants()
        assert stats.counter("hierarchy.coherence.invalidations") >= 5
        # the final owner (core 1 wrote round 5) holds the newest data,
        # and an actual coherent load from core 0 observes it
        assert hierarchy.newest_version(1, NVM_BASE) == Version(1, 5)
        seen = {}
        hierarchy.load(0, NVM_BASE, lambda lat, v: seen.update(v=v))
        sim.run()
        assert seen["v"] == Version(1, 5)


class DirectoryOnEveryStore(CacheHierarchy):
    """Test-only: a hierarchy whose every store consults the MESI
    directory first, as the store path did before it learned to skip
    lines the storing core already holds MODIFIED."""

    def store(self, core_id, addr, version, persistent=False, tx_id=None,
              on_complete=None):
        self._invalidate_other_sharers(core_id, line_addr(addr))
        super().store(core_id, addr, version, persistent, tx_id,
                      on_complete)


def _tiny_system(num_cores, hierarchy_cls):
    """A hierarchy with caches small enough that a few dozen lines
    evict from every level."""
    config = small_machine_config(num_cores=num_cores)
    config = replace(config, l1=replace(config.l1, size_bytes=512),
                     l2=replace(config.l2, size_bytes=1024),
                     llc=replace(config.llc, size_bytes=2048))
    sim = Simulator()
    stats = Stats()
    memory = MemorySystem(sim, config, stats)
    return sim, stats, memory, hierarchy_cls(sim, config, stats, memory)


def _cache_contents(hierarchy):
    levels = ([("l1", i, level) for i, level in enumerate(hierarchy.l1)]
              + [("l2", i, level) for i, level in enumerate(hierarchy.l2)]
              + [("llc", 0, hierarchy.llc)])
    return sorted(
        (name, index, entry.tag, entry.dirty, entry.persistent,
         entry.pinned, entry.tx_id, entry.version, entry.last_use)
        for name, index, level in levels
        for entry in level.array.iter_lines())


def _play(num_cores, ops, hierarchy_cls):
    """Issue ``ops`` with partial kernel runs in between, checking the
    MESI invariants after every op; return everything observable."""
    sim, stats, memory, hierarchy = _tiny_system(num_cores, hierarchy_cls)
    done = []
    for step, (kind, core, index, advance) in enumerate(ops):
        core %= num_cores
        addr = (NVM_BASE if index % 3 else 0x40000) + index * 64
        if kind == "load":
            hierarchy.load(core, addr, lambda lat, v, step=step:
                           done.append((step, sim.now, lat, v)))
        elif kind == "store":
            hierarchy.store(core, addr, Version(core + 1, step),
                            persistent=is_persistent_addr(addr),
                            tx_id=core + 1,
                            on_complete=lambda lat, step=step:
                            done.append((step, sim.now, lat)))
        else:
            hierarchy.writeback_line(core, addr, lambda cycle, step=step:
                                     done.append((step, sim.now, cycle)))
        hierarchy.coherence.check_invariants()
        sim.run(until=sim.now + advance)
        hierarchy.coherence.check_invariants()
    sim.run()
    hierarchy.coherence.check_invariants()
    counters = {name: value for name, value in stats.counters().items()
                if name.startswith(("coherence.", "hierarchy."))}
    return (done, _cache_contents(hierarchy), hierarchy.coherence._lines,
            counters, memory.durable_image.events)


class TestOwnedStoreSkipsDirectory:
    """A store to a line the core already holds MODIFIED skips the
    directory; that must change nothing observable."""

    @given(st.integers(2, 4), st.lists(st.tuples(
        st.sampled_from(["load", "store", "store", "clwb"]),
        st.integers(0, 3),            # core (mod the core count)
        st.integers(0, 23),           # line index
        st.sampled_from([0, 0, 1, 40, 400])),  # cycles run after the op
        min_size=1, max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_matches_directory_on_every_store(self, num_cores, ops):
        assert _play(num_cores, ops, CacheHierarchy) == \
            _play(num_cores, ops, DirectoryOnEveryStore)

    def test_owned_store_makes_no_directory_call(self, monkeypatch):
        sim, stats, memory, hierarchy = _tiny_system(2, CacheHierarchy)
        hierarchy.store(0, NVM_BASE, Version(1, 0))
        sim.run()
        calls = []
        on_write = hierarchy.coherence.on_write

        def counted(core, line):
            calls.append(line)
            return on_write(core, line)

        monkeypatch.setattr(hierarchy.coherence, "on_write", counted)
        hierarchy.store(0, NVM_BASE, Version(1, 1))
        assert calls == []
        hierarchy.store(1, NVM_BASE, Version(2, 0))
        assert calls == [NVM_BASE]
