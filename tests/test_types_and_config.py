"""Unit tests for shared value types and machine configuration."""

from dataclasses import replace

import pytest

from repro.common.config import (
    CacheLevelConfig,
    MachineConfig,
    paper_machine_config,
    small_machine_config,
    table2_rows,
)
from repro.common.types import (
    CACHE_LINE_SIZE,
    NVM_BASE,
    MemReqType,
    MemRequest,
    MemSpace,
    SchemeName,
    is_persistent_addr,
    line_addr,
    ns_to_cycles,
)


class TestAddressHelpers:
    def test_line_addr_masks_low_bits(self):
        assert line_addr(0) == 0
        assert line_addr(63) == 0
        assert line_addr(64) == 64
        assert line_addr(NVM_BASE + 100) == NVM_BASE + 64

    def test_space_split_at_nvm_base(self):
        assert MemSpace.of(0) is MemSpace.DRAM
        assert MemSpace.of(NVM_BASE - 1) is MemSpace.DRAM
        assert MemSpace.of(NVM_BASE) is MemSpace.NVM
        assert is_persistent_addr(NVM_BASE + 4096)
        assert not is_persistent_addr(4096)

    def test_mem_request_line_and_space(self):
        req = MemRequest(addr=NVM_BASE + 70, req_type=MemReqType.WRITE)
        assert req.line == NVM_BASE + 64
        assert req.space is MemSpace.NVM
        assert req.is_write


class TestNsToCycles:
    def test_rounds_up(self):
        assert ns_to_cycles(0.5, 2.0) == 1
        assert ns_to_cycles(4.5, 2.0) == 9
        assert ns_to_cycles(10.0, 2.0) == 20
        assert ns_to_cycles(65.0, 2.0) == 130
        assert ns_to_cycles(76.0, 2.0) == 152
        assert ns_to_cycles(1.5, 2.0) == 3

    def test_minimum_one_cycle(self):
        assert ns_to_cycles(0.01, 2.0) == 1


class TestSchemeName:
    def test_parse_string(self):
        assert SchemeName.parse("sp") is SchemeName.SP
        assert SchemeName.parse("TXCACHE") is SchemeName.TXCACHE

    def test_parse_passthrough(self):
        assert SchemeName.parse(SchemeName.KILN) is SchemeName.KILN

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError):
            SchemeName.parse("bogus")


class TestPaperConfig:
    def test_table2_core(self):
        cfg = paper_machine_config()
        assert cfg.num_cores == 4
        assert cfg.core.freq_ghz == 2.0
        assert cfg.core.issue_width == 4

    def test_table2_cache_geometry(self):
        cfg = paper_machine_config()
        assert cfg.l1.size_bytes == 32 * 1024 and cfg.l1.assoc == 4
        assert cfg.l2.size_bytes == 256 * 1024 and cfg.l2.assoc == 8
        assert cfg.llc.size_bytes == 64 * 1024 * 1024 and cfg.llc.assoc == 16

    def test_table2_latencies_in_cycles(self):
        cfg = paper_machine_config()
        assert cfg.latency("l1") == 1
        assert cfg.latency("l2") == 9
        assert cfg.latency("llc") == 20
        assert cfg.latency("txcache") == 3

    def test_table2_memory(self):
        cfg = paper_machine_config()
        assert cfg.nvm.num_ranks == 4 and cfg.nvm.banks_per_rank == 8
        assert cfg.nvm.read_queue_entries == 8
        assert cfg.nvm.write_queue_entries == 64
        assert cfg.nvm.write_drain_threshold == pytest.approx(0.8)
        assert cfg.nvm.timing.read_ns == 65.0
        assert cfg.nvm.timing.write_ns == 76.0

    def test_txcache_defaults(self):
        cfg = paper_machine_config()
        assert cfg.txcache.size_bytes == 4096
        assert cfg.txcache.num_entries == 64
        assert cfg.txcache.overflow_threshold == pytest.approx(0.9)

    def test_table2_rows_render(self):
        rows = table2_rows(paper_machine_config())
        assert "4 cores" in rows["CPU"]
        assert "64MB" in rows["L3 (LLC)"]
        assert "CAM FIFO" in rows["Transaction Cache"]
        assert "65-ns read" in rows["NVM Memory"]
        assert "80% full" in rows["Memory Controllers"]


class TestConfigValidation:
    """Invalid configurations must fail loudly at construction time,
    with messages that name the offending field and value."""

    def test_overflow_threshold_range(self):
        from repro.common.config import TxCacheConfig
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="overflow_threshold"):
                TxCacheConfig(size_bytes=4096, overflow_threshold=bad)
        # boundary: exactly 1.0 is legal (overflow only when full)
        assert TxCacheConfig(size_bytes=4096,
                             overflow_threshold=1.0).num_entries == 64

    def test_freq_must_be_positive(self):
        from repro.common.config import CoreConfig
        for bad in (0.0, -2.0):
            with pytest.raises(ValueError, match="freq_ghz"):
                CoreConfig(freq_ghz=bad)

    def test_fault_rates_must_be_probabilities(self):
        from repro.common.config import FaultConfig
        for field in ("nvm_write_fail_rate", "ack_loss_rate",
                      "ack_delay_rate", "ack_duplicate_rate",
                      "tc_bit_flip_rate", "degrade_error_rate"):
            with pytest.raises(ValueError, match=field):
                FaultConfig(**{field: 1.5})
            with pytest.raises(ValueError, match=field):
                FaultConfig(**{field: -0.01})

    def test_ack_fates_must_not_exceed_certainty(self):
        from repro.common.config import FaultConfig
        with pytest.raises(ValueError, match="ack"):
            FaultConfig(ack_loss_rate=0.5, ack_delay_rate=0.4,
                        ack_duplicate_rate=0.2)

    def test_fault_counts_and_cycles(self):
        from repro.common.config import FaultConfig
        with pytest.raises(ValueError, match="max_write_retries"):
            FaultConfig(max_write_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff_cycles"):
            FaultConfig(retry_backoff_cycles=0)
        with pytest.raises(ValueError, match="ack_timeout_cycles"):
            FaultConfig(ack_timeout_cycles=0)

    def test_enabled_reflects_any_nonzero_rate(self):
        from repro.common.config import FaultConfig
        assert not FaultConfig().enabled
        assert not FaultConfig(seed=42).enabled  # seed alone is inert
        assert FaultConfig(nvm_write_fail_rate=1e-6).enabled
        assert FaultConfig(ack_delay_rate=0.1).enabled
        assert FaultConfig(tc_bit_flip_rate=1e-9).enabled

    def test_machine_config_carries_fault_config(self):
        from repro.common.config import FaultConfig
        cfg = small_machine_config()
        assert cfg.faults == FaultConfig()
        assert not cfg.faults.enabled

    @pytest.mark.parametrize("build, message", [
        (lambda c: c.scaled_llc(1000),
         "llc: 15 lines not divisible into 16-way sets"),
        (lambda c: replace(c, num_cores=0), "num_cores"),
        (lambda c: replace(c.txcache, size_bytes=32), "txcache.size_bytes"),
        (lambda c: replace(c.txcache, organization="foo"), "organization"),
        (lambda c: replace(c.txcache, organization="set_assoc", assoc=3),
         "64 entries not divisible into 3-way sets"),
        (lambda c: replace(c.nvm, interleave="hash"), "nvm.interleave"),
        (lambda c: replace(c.nvm, read_queue_entries=0),
         "nvm.read_queue_entries"),
        (lambda c: replace(c.dram, write_queue_entries=0),
         "dram.write_queue_entries"),
        (lambda c: replace(c.core, issue_width=0), "issue_width"),
    ], ids=["llc-sets", "num-cores", "tc-below-one-line",
            "tc-organization", "tc-set-assoc", "interleave", "read-queue",
            "write-queue", "issue-width"])
    def test_invalid_machine_rejected_at_construction(self, build, message):
        with pytest.raises(ValueError, match=message):
            build(small_machine_config())

    def test_assoc_only_checked_for_set_assoc_tc(self):
        base = small_machine_config()
        assert replace(base.txcache, assoc=3).organization == "cam_fifo"


class TestCacheLevelConfig:
    def test_sets_computed(self):
        cfg = CacheLevelConfig("l1", 32 * 1024, 4, 0.5)
        assert cfg.num_lines == 512
        assert cfg.num_sets == 128

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheLevelConfig("bad", 100 * 64, 3, 1.0)


class TestScaledConfigs:
    def test_small_machine_preserves_policies(self):
        cfg = small_machine_config()
        assert cfg.l1.assoc == 4 and cfg.llc.assoc == 16
        assert cfg.latency("llc") == 20
        assert cfg.llc.size_bytes < paper_machine_config().llc.size_bytes

    def test_scaled_llc(self):
        cfg = paper_machine_config().scaled_llc(128 * 1024)
        assert cfg.llc.size_bytes == 128 * 1024
        assert cfg.llc.assoc == 16
