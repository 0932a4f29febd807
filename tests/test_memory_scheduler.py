"""Focused tests for memory-controller scheduling policies."""

import pytest

from dataclasses import replace

from repro.common.config import paper_machine_config
from repro.common.event import Simulator
from repro.common.stats import Stats
from repro.common.types import NVM_BASE, MemReqType, MemRequest
from repro.memory.controller import MemoryController


def make(config=None, **overrides):
    base = config or paper_machine_config().nvm
    if overrides:
        base = replace(base, **overrides)
    sim = Simulator()
    stats = Stats()
    controller = MemoryController(sim, base, stats.scoped("nvm"), 2.0)
    return sim, stats, controller


def read(addr, cb=None):
    return MemRequest(addr=addr, req_type=MemReqType.READ, callback=cb)


def write(addr, cb=None):
    return MemRequest(addr=addr, req_type=MemReqType.WRITE, callback=cb)


def same_bank_lines(config, count, start=0):
    """Addresses hitting one bank (stride = num_banks lines)."""
    stride = config.num_banks * 64
    return [NVM_BASE + start + i * stride for i in range(count)]


def instrument(sim, ctrl):
    """Log ``(request, cycle, done_cycle)`` per grant, and the cycles of
    scheduler ticks that ran (superseded ones return at once)."""
    grants, ticks = [], []
    service, tick = ctrl._service, ctrl._tick

    def logged_service(request):
        now = sim.now
        service(request)
        grants.append((request, now, request.bank.busy_until))

    def logged_tick():
        if ctrl._tick_at == sim.now:
            ticks.append(sim.now)
        tick()

    ctrl._service = logged_service
    ctrl._tick = logged_tick
    return grants, ticks


class TestFrFcfs:
    def test_row_hit_preferred_over_older_row_miss(self):
        cfg = paper_machine_config().nvm
        sim, stats, ctrl = make()
        bank_lines = same_bank_lines(cfg, 3)
        order = []
        # open a row with one access
        ctrl.enqueue(read(bank_lines[0], cb=lambda r, c: order.append("warm")))
        sim.run()
        # now queue a row-miss (far row) before a row-hit (same row)
        far = NVM_BASE + cfg.num_banks * cfg.timing.row_size_bytes * 4
        ctrl.enqueue(read(far, cb=lambda r, c: order.append("miss")))
        ctrl.enqueue(read(bank_lines[1], cb=lambda r, c: order.append("hit")))
        sim.run()
        assert order == ["warm", "hit", "miss"]

    def test_different_banks_overlap(self):
        cfg = paper_machine_config().nvm
        sim, stats, ctrl = make()
        done = []
        # two adjacent lines -> different banks, can overlap in time
        ctrl.enqueue(read(NVM_BASE, cb=lambda r, c: done.append(c)))
        ctrl.enqueue(read(NVM_BASE + 64, cb=lambda r, c: done.append(c)))
        sim.run()
        # overlapped: second completes well before 2x a serial latency
        assert done[1] - done[0] < 50


class TestDrainHysteresis:
    def test_drain_enters_and_exits(self):
        sim, stats, ctrl = make(write_queue_entries=10, read_queue_entries=4)
        for i in range(10):
            ctrl.enqueue(write(NVM_BASE + i * 64))
        sim.run()
        assert stats.counter("nvm.write.drain_entries") >= 1
        assert not ctrl._drain_mode  # exited once the queue drained

    def test_below_threshold_no_drain(self):
        sim, stats, ctrl = make(write_queue_entries=10)
        for i in range(3):
            ctrl.enqueue(write(NVM_BASE + i * 64))
        sim.run()
        assert stats.counter("nvm.write.drain_entries") == 0


class TestWriteAntiStarvation:
    def _run_with_read_stream(self, chains=2, max_reads=40):
        """One write plus ``chains`` dependent read chains on the same
        bank (different lines, so read forwarding cannot shortcut):
        each read's completion enqueues the next read of its chain.

        A request is eligible from the cycle after it is enqueued, so a
        single chain's next read is not yet ready on the cycle the bank
        frees.  Two chains keep a ready read queued on that cycle, which
        read-first always prefers until the write starves.

        Returns the stats, the write's completion cycles, the reads'
        completion cycles and the grant log of :func:`instrument`."""
        cfg = paper_machine_config().nvm
        sim, stats, ctrl = make()
        write_line, *read_lines = same_bank_lines(cfg, 1 + chains)
        write_done = []
        read_done = []
        grants, _ticks = instrument(sim, ctrl)
        ctrl.enqueue(write(write_line, cb=lambda r, c: write_done.append(c)))
        state = {"count": 0}

        def feed(request, cycle):
            read_done.append(cycle)
            state["count"] += 1
            if state["count"] < max_reads and not write_done:
                ctrl.enqueue(read(request.line, cb=feed))

        for line in read_lines:
            ctrl.enqueue(read(line, cb=feed))
        sim.run()
        return stats, write_done, read_done, grants

    def test_steady_reads_do_not_starve_writes(self):
        stats, write_done, _reads, _grants = self._run_with_read_stream()
        assert write_done, "write starved forever"
        # granted within the starvation window + a few services
        assert write_done[0] < 5 * MemoryController.WRITE_STARVATION_LIMIT

    def test_starvation_grant_counted(self):
        stats, _write_done, _reads, _grants = self._run_with_read_stream()
        assert stats.counter("nvm.write.starvation_grants") >= 1

    def test_single_dependent_read_chain_lets_write_in_when_bank_frees(self):
        # the chain's next read is enqueued on the cycle the bank frees,
        # so it is not yet eligible and the queued write goes first —
        # by read-first order, not by the starvation rule
        stats, _write_done, read_done, grants = \
            self._run_with_read_stream(chains=1)
        kinds = [request.is_write for request, _cycle, _done in grants[:2]]
        assert kinds == [False, True]
        assert grants[1][1] == read_done[0]  # the first free bank cycle
        assert stats.counter("nvm.write.starvation_grants") == 0


class TestWakeSources:
    """The scheduler runs only when a request becomes eligible or a
    candidate's bank frees up — never on idle cycles in between."""

    @pytest.mark.parametrize("device", ["dram", "nvm"])
    def test_blocked_request_wakes_when_its_bank_frees(self, device):
        config = getattr(paper_machine_config(), device)
        sim, stats, ctrl = make(config)
        grants, ticks = instrument(sim, ctrl)
        done = []
        for line in same_bank_lines(config, 2):
            ctrl.enqueue(read(line, cb=lambda r, c: done.append(c)))
        sim.run()
        (_first, first_at, first_done), (_second, second_at, _) = grants
        assert first_at == 1  # eligible the cycle after arrival
        assert second_at == first_done == done[0]  # the bank frees
        # grant, the period re-arm that finds the bank busy, the wake
        assert ticks == [1, 1 + MemoryController.SCHEDULER_PERIOD, done[0]]

    def test_at_most_one_grant_per_scheduler_period(self):
        # three writes (free banks) arrive on the cycle of a grant,
        # after it; their kick must not squeeze a second grant into the
        # period that grant started
        config = paper_machine_config().nvm
        sim, stats, ctrl = make(config)
        grants, _ticks = instrument(sim, ctrl)
        ctrl.enqueue(write(NVM_BASE))
        for i in range(1, 4):
            sim.schedule_at(1, ctrl.enqueue, write(NVM_BASE + i * 64))
        sim.run()
        cycles = [cycle for _request, cycle, _done in grants]
        period = MemoryController.SCHEDULER_PERIOD
        assert cycles == [1 + k * period for k in range(4)]


class TestSameLineOrdering:
    def test_writes_to_same_line_never_reorder(self):
        sim, stats, ctrl = make()
        from repro.common.types import Version
        completions = []
        for seq in range(8):
            request = MemRequest(addr=NVM_BASE, req_type=MemReqType.WRITE,
                                 version=Version(1, seq),
                                 callback=lambda r, c: completions.append(
                                     r.version.seq))
            ctrl.enqueue(request)
        sim.run()
        assert completions == sorted(completions)
