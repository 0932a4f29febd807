"""Tests for DRAM refresh and configurable bank interleaving."""

from dataclasses import replace

import pytest

from repro.common.config import (
    MemCtrlConfig,
    MemTimingConfig,
    paper_machine_config,
)
from repro.common.event import Simulator
from repro.common.stats import Stats
from repro.common.types import NVM_BASE, MemReqType, MemRequest
from repro.memory.bank import Bank, BankArray
from repro.memory.controller import MemoryController


class TestRefresh:
    def make_bank(self, interval=1000, trfc=100):
        return Bank(0, refresh_interval=interval, refresh_cycles=trfc)

    def test_no_refresh_when_disabled(self):
        bank = Bank(0)
        assert bank.available(10_000_000)
        assert bank.refreshes == 0

    def test_refresh_blocks_bank_after_epoch_boundary(self):
        bank = self.make_bank()
        bank.access(row=5, now=0, hit_cycles=10, miss_cycles=10)
        # cross one refresh boundary: bank busy until 1000 + tRFC
        assert not bank.available(1001)
        assert bank.available(1100)
        assert bank.refreshes >= 1

    def test_refresh_closes_open_row(self):
        bank = self.make_bank()
        bank.access(row=5, now=0, hit_cycles=10, miss_cycles=10)
        bank.available(1200)  # catch up past a refresh
        assert bank.open_row is None

    def test_dram_default_refreshes_nvm_does_not(self):
        cfg = paper_machine_config()
        dram_banks = BankArray(cfg.dram, freq_ghz=2.0)
        nvm_banks = BankArray(cfg.nvm, freq_ghz=2.0)
        assert dram_banks.banks[0].refresh_interval > 0
        assert nvm_banks.banks[0].refresh_interval == 0

    def test_refresh_visible_in_end_to_end_latency(self):
        # a DRAM read landing inside a refresh window waits for tRFC
        cfg = paper_machine_config().dram
        sim = Simulator()
        stats = Stats()
        ctrl = MemoryController(sim, cfg, stats.scoped("dram"), 2.0)
        interval = ctrl.banks.banks[0].refresh_interval
        done = []
        # advance time near a refresh boundary, then issue a read
        sim.schedule_at(interval + 1, lambda: ctrl.enqueue(MemRequest(
            addr=0, req_type=MemReqType.READ,
            callback=lambda r, c: done.append(c - r.issue_cycle))))
        sim.run()
        baseline_hitless = cfg.timing.read_cycles(2.0, row_hit=False)
        assert done[0] >= baseline_hitless  # at least the array access
        assert ctrl.banks.banks[0].refreshes >= 1


class TestInterleave:
    def row_config(self):
        base = paper_machine_config().nvm
        return replace(base, interleave="row")

    def test_row_interleave_keeps_row_in_one_bank(self):
        banks = BankArray(self.row_config())
        b1, r1 = banks.map_address(NVM_BASE)
        b2, r2 = banks.map_address(NVM_BASE + 4096)  # same 8 KB row
        assert (b1, r1) == (b2, r2)

    def test_line_interleave_spreads_adjacent_lines(self):
        banks = BankArray(paper_machine_config().nvm)
        b1, _ = banks.map_address(NVM_BASE)
        b2, _ = banks.map_address(NVM_BASE + 64)
        assert b1 != b2

    def test_unknown_interleave_rejected(self):
        with pytest.raises(ValueError, match="interleave"):
            replace(paper_machine_config().nvm, interleave="hash")

    def test_row_interleave_serializes_small_footprints(self):
        """The calibration finding, pinned as a test: under row
        interleave a small contiguous footprint lands in one bank and
        writes serialize; line interleave spreads them."""
        def drain_time(interleave):
            base = paper_machine_config().nvm
            cfg = replace(base, interleave=interleave)
            sim = Simulator()
            stats = Stats()
            ctrl = MemoryController(sim, cfg, stats.scoped("nvm"), 2.0)
            for i in range(16):
                ctrl.enqueue(MemRequest(addr=NVM_BASE + i * 64,
                                        req_type=MemReqType.WRITE))
            sim.run()
            return sim.now

        assert drain_time("row") > drain_time("line") * 2

