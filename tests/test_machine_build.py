"""Building a machine: shared presets, banks on first use, per-config
tables.

``System(config, scheme)`` shares everything it can derive from its
frozen config with every other system built from that config, and
creates memory banks only when a request first maps to them.  These
tests hold each shortcut to the machine it stands for: a lazily created
bank to one built up front, a shared preset to a config built afresh,
and a system built beside another from one config to a system built
alone.
"""

import dataclasses
from dataclasses import replace

import pytest

from repro.common.config import (
    MachineConfig,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    paper_machine_config,
    small_machine_config,
)
from repro.common.event import Simulator
from repro.common.stats import Stats
from repro.common.types import NVM_BASE, MemReqType, MemRequest
from repro.litmus import default_suite, run_litmus
from repro.memory.bank import BankArray
from repro.memory.controller import MemoryController
from repro.sim.runner import collect_result, make_traces
from repro.sim.system import System

FREQ = 2.0
DRAM = paper_machine_config().dram
NVM = paper_machine_config().nvm
#: DRAM refresh period in cycles (NVM banks never refresh)
INTERVAL = DRAM.timing.cycles(FREQ).refresh_interval
#: first-touch cycles: at start, just before, on and after a refresh
#: boundary, and several refreshes in
FIRST_TOUCH = (0, 1, INTERVAL - 3, INTERVAL, INTERVAL + 7,
               5 * INTERVAL + 11)
#: line offsets of one request batch: repeats (row hits), a bank's
#: next row (row misses), and neighbouring banks
BATCH = (0, 1, 0, 32, 2, 64 * 128, 1, 33)


def fresh(config: MachineConfig) -> MachineConfig:
    """An equal config that shares no object with ``config``."""
    return config_from_dict(config_to_dict(config))


def bank_state(bank):
    return (bank.index, bank.open_row, bank.busy_until, bank.row_hits,
            bank.row_misses, bank.refreshes, bank._refresh_epoch)


def run_batches(config, first_touch: int, up_front: bool):
    """Two request batches, the first at ``first_touch`` and the next
    two refreshes later; returns every completion, every bank's state
    and the controller's statistics."""
    sim = Simulator()
    stats = Stats()
    ctrl = MemoryController(sim, config, stats.scoped("mem"), FREQ)
    if up_front:
        ctrl.banks.banks  # noqa: B018 - builds every bank now
    base = NVM_BASE if config.name == "nvm" else 0
    done = []

    def issue():
        for index, line in enumerate(BATCH):
            ctrl.enqueue(MemRequest(
                addr=base + line * 64,
                req_type=MemReqType.WRITE if index % 3 else MemReqType.READ,
                callback=lambda request, cycle: done.append(
                    (request.line, cycle))))

    sim.schedule_at(first_touch, issue)
    sim.schedule_at(first_touch + 2 * INTERVAL + 5, issue)
    sim.run()
    return done, [bank_state(b) for b in ctrl.banks.banks], stats.as_dict()


class TestBanksOnFirstUse:
    @pytest.mark.parametrize("config", [DRAM, NVM], ids=["dram", "nvm"])
    @pytest.mark.parametrize("first_touch", FIRST_TOUCH)
    def test_late_bank_matches_one_built_up_front(self, config,
                                                  first_touch):
        lazy = run_batches(config, first_touch, up_front=False)
        assert lazy == run_batches(config, first_touch, up_front=True)
        # the batches really did cross refreshes on DRAM only
        refreshes = sum(state[5] for state in lazy[1])
        assert (refreshes > 0) == (config is DRAM)

    @pytest.mark.parametrize("config", [DRAM, NVM], ids=["dram", "nvm"])
    @pytest.mark.parametrize("first_touch", FIRST_TOUCH)
    def test_bank_created_late_equals_bank_created_at_zero(self, config,
                                                           first_touch):
        early, late = BankArray(config), BankArray(config)
        early.banks  # noqa: B018 - every bank exists from cycle 0
        for now in (first_touch, first_touch + INTERVAL + 1,
                    first_touch + 3 * INTERVAL):
            for bank_array in (early, late):
                bank = bank_array.bank_for(NVM_BASE + 64)
                if bank.available(now):
                    bank.access(bank_array.row_for(NVM_BASE + 64), now,
                                hit_cycles=10, miss_cycles=50)
            assert bank_state(late.bank(1)) == bank_state(early.bank(1))

    def test_untouched_banks_are_not_built(self):
        ctrl = MemoryController(Simulator(), NVM, Stats().scoped("nvm"),
                                FREQ)
        ctrl.enqueue(MemRequest(addr=NVM_BASE, req_type=MemReqType.READ))
        built = [b for b in ctrl.banks.by_index if b is not None]
        assert [b.index for b in built] == [0]

    def test_banks_and_row_counts_report_every_bank(self):
        array = BankArray(DRAM, freq_ghz=FREQ)
        touched = array.bank(5)
        touched.access(3, 0, hit_cycles=10, miss_cycles=50)
        touched.access(3, 100, hit_cycles=10, miss_cycles=50)
        banks = array.banks
        assert [b.index for b in banks] == list(range(DRAM.num_banks))
        assert banks[5] is touched and array.banks[5] is touched
        assert all(b.refresh_interval == INTERVAL for b in banks)
        assert array.row_hits == sum(b.row_hits for b in banks) == 1
        assert array.row_misses == sum(b.row_misses for b in banks) == 1


class TestSharedPresets:
    def test_presets_equal_configs_built_afresh(self):
        base = MachineConfig()
        assert paper_machine_config() == base
        for cores in (1, 2, 4):
            built = replace(
                base, num_cores=cores,
                l1=replace(base.l1, size_bytes=4 * 1024),
                l2=replace(base.l2, size_bytes=16 * 1024),
                llc=replace(base.llc, size_bytes=32 * 1024),
                txcache=replace(base.txcache, size_bytes=4096))
            preset = small_machine_config(num_cores=cores)
            assert preset == built
            assert repr(preset) == repr(built)
            assert config_fingerprint(preset) == config_fingerprint(built)
        assert small_machine_config() == small_machine_config(num_cores=4)

    def test_presets_are_shared_and_frozen(self):
        preset = small_machine_config(2)
        assert small_machine_config(num_cores=2) is preset
        assert paper_machine_config() is paper_machine_config()
        assert paper_machine_config(4) is paper_machine_config()
        assert paper_machine_config(num_cores=2) is paper_machine_config(2)
        assert paper_machine_config(2) == replace(paper_machine_config(),
                                                  num_cores=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            preset.num_cores = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            preset.llc.size_bytes = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            paper_machine_config().nvm.timing.read_ns = 1.0

    def test_derived_tables_stay_out_of_the_config_fields(self):
        preset = small_machine_config(2)
        System(preset, "txcache")  # derives every table of the preset
        built = fresh(preset)
        assert config_to_dict(preset) == config_to_dict(built)
        assert repr(preset) == repr(built)
        assert hash(preset) == hash(built)
        assert replace(preset) == built

    def test_derived_tables_are_read_only(self):
        timing = small_machine_config(1).nvm.timing
        cycles = timing.cycles(FREQ)
        with pytest.raises(AttributeError):
            cycles.read_hit = 0
        assert timing.cycles(FREQ) is cycles
        assert cycles.read_hit == timing.read_cycles(FREQ, row_hit=True)
        assert cycles.write_miss == timing.write_cycles(FREQ, row_hit=False)
        geometry = small_machine_config(1).llc.geometry(FREQ)
        with pytest.raises(AttributeError):
            geometry.latency = 0
        assert geometry.num_sets == small_machine_config(1).llc.num_sets


class TestSharedConfig:
    @pytest.mark.parametrize("scheme", ["kiln", "txcache", "sp", "undo_log",
                                        "hybrid_dram"])
    def test_running_one_system_leaves_its_sibling_untouched(self, scheme):
        shared = small_machine_config(num_cores=2)
        traces = make_traces("hashtable", 2, 30)
        first = System(shared, scheme)
        second = System(shared, scheme)
        first.load_traces(traces)
        first.run()
        alone = System(fresh(shared), scheme)
        assert alone.config == shared and alone.config is not shared
        assert second.hierarchy.llc.latency == alone.hierarchy.llc.latency
        results = []
        for system in (second, alone):
            system.load_traces(traces)
            system.run()
            results.append(collect_result(system, "hashtable")
                           .to_dict(include_raw=True))
        assert results[0] == results[1]
        assert collect_result(first, "hashtable").to_dict(
            include_raw=True) == results[1]

    def test_kiln_latency_stays_per_system(self):
        shared = small_machine_config(num_cores=1)
        kiln = System(shared, "kiln")
        plain = System(shared, "txcache")
        assert kiln.hierarchy.llc.latency != plain.hierarchy.llc.latency
        assert plain.hierarchy.llc.latency == \
            shared.llc.latency_cycles(shared.freq_ghz)


class TestLitmusConfig:
    @pytest.mark.parametrize("scheme", ["sp", "kiln", "txcache", "redo_log"])
    def test_run_litmus_same_with_and_without_config(self, scheme):
        for program in default_suite(0)[:5]:
            implicit = run_litmus(program, scheme)
            explicit = run_litmus(program, scheme, config=fresh(
                small_machine_config(num_cores=program.num_cores)))
            assert implicit == explicit
            assert implicit.states_checked > 0
