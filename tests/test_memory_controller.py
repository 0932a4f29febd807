"""Unit tests for the memory controller, banks, and queues."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import MemCtrlConfig, MemTimingConfig, paper_machine_config
from repro.common.event import Simulator
from repro.common.stats import Stats
from repro.common.types import (DRAM_LOG_BASE, HOME_REGION_LIMIT, NVM_BASE,
                                MemReqType, MemRequest, Version, is_home_line)
from repro.memory.bank import BankArray
from repro.memory.controller import DurableImage, MemoryController
from repro.memory.queues import RequestQueue

FREQ = 2.0


def nvm_config(**overrides) -> MemCtrlConfig:
    base = paper_machine_config().nvm
    if not overrides:
        return base
    from dataclasses import replace

    return replace(base, **overrides)


def make_controller(sim=None, config=None, image=None):
    sim = sim or Simulator()
    stats = Stats()
    ctrl = MemoryController(
        sim,
        config or nvm_config(),
        stats.scoped("nvm"),
        FREQ,
        durable_image=image,
    )
    return sim, stats, ctrl


def read(addr, callback=None):
    return MemRequest(addr=addr, req_type=MemReqType.READ, callback=callback)


def write(addr, persistent=False, version=None, callback=None):
    return MemRequest(
        addr=addr,
        req_type=MemReqType.WRITE,
        persistent=persistent,
        version=version,
        callback=callback,
    )


class TestBankArray:
    def test_stride_of_num_banks_lines_maps_to_same_bank(self):
        cfg = nvm_config()
        banks = BankArray(cfg)
        b1, r1 = banks.map_address(NVM_BASE)
        b2, r2 = banks.map_address(NVM_BASE + cfg.num_banks * 64)
        assert b1 == b2
        assert r1 == r2  # still within one row-buffer chunk

    def test_adjacent_lines_spread_over_banks(self):
        banks = BankArray(nvm_config())
        b1, _ = banks.map_address(NVM_BASE)
        b2, _ = banks.map_address(NVM_BASE + 64)
        assert b1 != b2

    def test_far_addresses_reach_new_rows(self):
        cfg = nvm_config()
        banks = BankArray(cfg)
        stride = cfg.num_banks * cfg.timing.row_size_bytes
        b1, r1 = banks.map_address(NVM_BASE)
        b2, r2 = banks.map_address(NVM_BASE + stride)
        assert b1 == b2
        assert r2 == r1 + 1

    def test_row_hit_tracking(self):
        cfg = nvm_config()
        banks = BankArray(cfg)
        bank = banks.bank_for(NVM_BASE)
        row = banks.row_for(NVM_BASE)
        bank.access(row, 0, hit_cycles=10, miss_cycles=50)
        assert bank.row_misses == 1
        bank.access(row, 100, hit_cycles=10, miss_cycles=50)
        assert bank.row_hits == 1

    def test_busy_until_advances(self):
        banks = BankArray(nvm_config())
        bank = banks.bank_for(NVM_BASE)
        done = bank.access(0, 5, hit_cycles=10, miss_cycles=50)
        assert done == 55  # first access is a row miss
        assert not bank.available(54)
        assert bank.available(55)


class TestRequestQueue:
    def test_push_within_capacity(self):
        q = RequestQueue("q", 2)
        assert q.push(read(0)) is True
        assert q.push(read(64)) is True
        assert len(q) == 2

    def test_overflow_goes_to_backlog(self):
        q = RequestQueue("q", 1)
        q.push(read(0))
        assert q.push(read(64)) is False
        assert q.backlog_depth == 1
        assert q.is_full()

    def test_pop_admits_backlog_in_order(self):
        q = RequestQueue("q", 1)
        first, second, third = read(0), read(64), read(128)
        q.push(first)
        q.push(second)
        q.push(third)
        q.pop(first)
        assert list(q) == [second]
        assert q.backlog_depth == 1

    def test_find_line_searches_backlog(self):
        q = RequestQueue("q", 1)
        q.push(read(0))
        target = read(NVM_BASE + 64)
        q.push(target)
        assert q.find_line(NVM_BASE + 64) is target

    def test_requeue_goes_to_head_and_spills_newest_when_full(self):
        q = RequestQueue("q", 2)
        first, second, third, retry = read(0), read(64), read(128), read(192)
        for request in (first, second, third):
            q.push(request)
        q.requeue(retry)
        assert list(q) == [retry, first]
        assert q.backlog_depth == 2
        assert q.find_line(192) is retry
        q.pop(retry)
        q.pop(first)
        assert list(q) == [second, third]  # arrival order kept

    def test_occupancy_fraction(self):
        q = RequestQueue("q", 4)
        q.push(read(0))
        q.push(read(64))
        assert q.occupancy == pytest.approx(0.5)

    def test_zero_capacity_rejected(self):
        for name in ("read_queue_entries", "write_queue_entries"):
            with pytest.raises(ValueError, match=name):
                nvm_config(**{name: 0})


class TestControllerReads:
    def test_read_completes_with_device_latency(self):
        sim, stats, ctrl = make_controller()
        done = []
        ctrl.enqueue(read(NVM_BASE, callback=lambda r, c: done.append(c)))
        sim.run()
        assert len(done) == 1
        # 65ns read + 12ns row activation at 2 GHz = 154 cycles + queue entry
        assert done[0] >= 154

    def test_row_hit_read_is_faster(self):
        sim, stats, ctrl = make_controller()
        same_bank_stride = nvm_config().num_banks * 64  # next line, same row
        times = []
        ctrl.enqueue(read(NVM_BASE, callback=lambda r, c: times.append(c - r.issue_cycle)))
        sim.run()
        ctrl.enqueue(read(NVM_BASE + same_bank_stride,
                          callback=lambda r, c: times.append(c - r.issue_cycle)))
        sim.run()
        assert times[1] < times[0]

    def test_read_forwarded_from_write_queue(self):
        sim, stats, ctrl = make_controller()
        ctrl.enqueue(write(NVM_BASE))
        latencies = []
        ctrl.enqueue(read(NVM_BASE, callback=lambda r, c: latencies.append(c - r.issue_cycle)))
        sim.run()
        assert latencies[0] == MemoryController.FORWARD_LATENCY
        assert stats.counter("nvm.read.forwarded") == 1

    def test_controller_drains_to_idle(self):
        sim, stats, ctrl = make_controller()
        for i in range(10):
            ctrl.enqueue(read(NVM_BASE + i * 64))
            ctrl.enqueue(write(NVM_BASE + (i + 100) * 64))
        assert ctrl.busy()
        sim.run()
        assert not ctrl.busy()
        assert stats.counter("nvm.read.requests") == 10
        assert stats.counter("nvm.write.requests") == 10


class TestControllerWrites:
    def test_write_records_durable_image(self):
        image = DurableImage()
        sim, stats, ctrl = make_controller(image=image)
        version = Version(tx_id=1, seq=0)
        ctrl.enqueue(write(NVM_BASE, persistent=True, version=version))
        sim.run()
        assert image.final_state() == {NVM_BASE: version}

    def test_persistent_write_triggers_ack(self):
        acks = []
        sim, stats, ctrl = make_controller()
        persistent = write(NVM_BASE, persistent=True)
        persistent.on_ack = lambda r, c: acks.append((r.line, c))
        ctrl.enqueue(persistent)
        ctrl.enqueue(write(NVM_BASE + 4096))  # no ack route: no ack
        sim.run()
        assert len(acks) == 1
        assert acks[0][0] == NVM_BASE
        assert stats.counter("nvm.write.acks") == 1

    def test_same_line_writes_complete_in_program_order(self):
        image = DurableImage()
        sim, stats, ctrl = make_controller(image=image)
        for seq in range(6):
            ctrl.enqueue(write(NVM_BASE, persistent=True, version=Version(1, seq)))
        sim.run()
        versions = [v.seq for _c, _s, _l, v in image.events]
        assert versions == sorted(versions)
        assert image.final_state()[NVM_BASE].seq == 5

    def test_reads_have_priority_over_writes(self):
        sim, stats, ctrl = make_controller()
        # Fill the write queue lightly, then issue a read to a different bank.
        row = nvm_config().timing.row_size_bytes
        order = []
        ctrl.enqueue(write(NVM_BASE, callback=lambda r, c: order.append("w")))
        ctrl.enqueue(read(NVM_BASE + 2 * row, callback=lambda r, c: order.append("r")))
        sim.run()
        # Different banks: the write is scheduled first (it arrived first and
        # the scheduler was idle), but the read must not wait behind the
        # whole write queue once drained scheduling applies; with one write
        # only, both orders are plausible — assert both completed.
        assert sorted(order) == ["r", "w"]

    def test_write_drain_mode_engages(self):
        cfg = nvm_config(write_queue_entries=10, read_queue_entries=4)
        sim, stats, ctrl = make_controller(config=cfg)
        for i in range(10):
            ctrl.enqueue(write(NVM_BASE + i * 64))
        sim.run()
        assert stats.counter("nvm.write.drain_entries") >= 1


class TestDurableImage:
    def test_state_at_replays_prefix(self):
        image = DurableImage()
        image.record(10, 0, Version(1, 0))
        image.record(20, 64, Version(1, 1))
        image.record(30, 0, Version(2, 0))
        assert image.state_at(5) == {}
        assert image.state_at(15) == {0: Version(1, 0)}
        assert image.state_at(25) == {0: Version(1, 0), 64: Version(1, 1)}
        assert image.state_at(30)[0] == Version(2, 0)

    def test_final_state_matches_last_record(self):
        image = DurableImage()
        image.record(1, 0, Version(1, 0))
        image.record(2, 0, Version(1, 1))
        assert image.final_state() == {0: Version(1, 1)}

    def test_record_rejects_an_earlier_cycle(self):
        image = DurableImage()
        image.record(10, 0, Version(1, 0))
        image.record(10, 64, Version(1, 1))
        with pytest.raises(ValueError, match="earlier than the last"):
            image.record(9, 0, Version(2, 0))
        assert image.events == [(10, 0, 0, Version(1, 0)),
                                (10, 1, 64, Version(1, 1))]


def replay_from_scratch(records, cycle, keep=lambda line: True):
    """The model of a durable-image query: every record up to
    ``cycle`` applied in order to an empty image."""
    state = {}
    for record_cycle, line, version in records:
        if record_cycle <= cycle and keep(line):
            state[line] = version
    return state


#: home lines, a log line in DRAM and a scheme-metadata line in NVM
CURSOR_LINES = ([NVM_BASE + index * 64 for index in range(4)]
                + [DRAM_LOG_BASE, HOME_REGION_LIMIT + 64])

cursor_ops = st.lists(st.one_of(
    st.tuples(st.just("record"), st.integers(0, 3),
              st.sampled_from(CURSOR_LINES), st.booleans()),
    st.tuples(st.just("query"), st.integers(0, 40),
              st.sampled_from(("all", "home")), st.booleans()),
), max_size=60)


class TestDurableImageCursor:
    """``state_at`` and ``home_state_at`` walk a forward cursor; a
    from-scratch replay of the records is the model."""

    @given(ops=cursor_ops)
    @settings(max_examples=200, deadline=None)
    def test_queries_match_a_from_scratch_replay(self, ops):
        image = DurableImage()
        records = []
        cycle = 0
        for op, number, choice, flag in ops:
            if op == "record":
                cycle += number
                version = Version(len(records), 0) if flag else None
                image.record(cycle, choice, version)
                records.append((cycle, choice, version))
                continue
            if choice == "home":
                got = image.home_state_at(number)
                expected = replay_from_scratch(records, number,
                                               is_home_line)
            else:
                got = image.state_at(number)
                expected = replay_from_scratch(records, number)
            # insertion order too: recovery walks the image in order
            assert list(got.items()) == list(expected.items())
            if flag:
                # callers may rewrite what they are given
                got.clear()
                got[NVM_BASE] = Version(999, 9)

    def test_queries_rewind_after_a_later_query(self):
        image = DurableImage()
        image.record(10, NVM_BASE, Version(1, 0))
        image.record(20, NVM_BASE, Version(2, 0))
        assert image.state_at(25) == {NVM_BASE: Version(2, 0)}
        assert image.state_at(15) == {NVM_BASE: Version(1, 0)}
        assert image.home_state_at(5) == {}
