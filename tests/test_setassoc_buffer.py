"""Tests for the set-associative transaction buffer alternative."""

import pytest

from dataclasses import replace

from repro.common.config import TxCacheConfig, small_machine_config
from repro.common.stats import Stats
from repro.common.types import NVM_BASE, Version
from repro.core.setassoc import SetAssocTransactionBuffer
from repro.core.txcache import TxState


def make(entries=16, assoc=4, coalesce=True):
    config = TxCacheConfig(size_bytes=entries * 64, coalesce_writes=coalesce,
                           organization="set_assoc", assoc=assoc)
    return SetAssocTransactionBuffer(config, Stats().scoped("tc"))


def line(i):
    return NVM_BASE + i * 64


class TestSetMapping:
    def test_geometry(self):
        buffer = make(entries=16, assoc=4)
        assert buffer.num_sets == 4
        assert buffer.capacity == 16

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            make(entries=10, assoc=4)


class TestAssociativityOverflow:
    def test_set_conflict_rejects_despite_free_capacity(self):
        buffer = make(entries=16, assoc=4)
        # 5 lines all mapping to set 0 (stride = num_sets lines)
        for k in range(4):
            assert buffer.write(1, line(k * buffer.num_sets), Version(1, k))
        assert not buffer.write(1, line(4 * buffer.num_sets), Version(1, 4))
        assert buffer.occupancy == 4          # 12 entries still free!
        assert buffer.set_conflict_rejections == 1

    def test_cam_fifo_admits_the_same_pattern(self):
        from repro.core.txcache import TransactionCache
        config = TxCacheConfig(size_bytes=16 * 64)
        fifo = TransactionCache(config, Stats().scoped("tc"))
        for k in range(8):
            assert fifo.write(1, line(k * 4), Version(1, k))

    def test_spread_lines_fill_whole_capacity(self):
        buffer = make(entries=16, assoc=4)
        for k in range(16):
            assert buffer.write(1, line(k), Version(1, k))
        assert buffer.is_full()


class TestInterfaceParity:
    """The set-assoc buffer honours the same contract as the FIFO."""

    def test_commit_issue_ack_cycle(self):
        buffer = make()
        for k in range(3):
            buffer.write(1, line(k), Version(1, k))
        buffer.commit(1)
        issued = buffer.take_issuable()
        assert [entry.version.seq for entry in issued] == [0, 1, 2]
        for k in range(3):
            assert buffer.ack(line(k)) is not None
        assert buffer.occupancy == 0

    def test_issue_stops_at_active(self):
        buffer = make()
        buffer.write(1, line(0), Version(1, 0))
        buffer.commit(1)
        buffer.write(2, line(1), Version(2, 0))
        issued = buffer.take_issuable()
        assert len(issued) == 1

    def test_probe_newest(self):
        buffer = make(coalesce=False)
        buffer.write(1, line(0), Version(1, 0))
        buffer.commit(1)
        buffer.write(2, line(0), Version(2, 0))
        assert buffer.probe(line(0)).version == Version(2, 0)

    def test_coalescing(self):
        buffer = make()
        buffer.write(1, line(0), Version(1, 0))
        buffer.write(1, line(0), Version(1, 7))
        assert buffer.occupancy == 1
        assert buffer.probe(line(0)).version == Version(1, 7)

    def test_drop_transaction(self):
        buffer = make()
        buffer.write(1, line(0), Version(1, 0))
        buffer.commit(1)
        buffer.write(2, line(1), Version(2, 0))
        dropped = buffer.drop_transaction(2)
        assert [entry.tag for entry in dropped] == [line(1)]
        assert [e.tx_id for e in buffer.committed_unacked()] == [1]


class TestEndToEnd:
    def test_scheme_runs_with_set_assoc_buffer(self):
        from repro.sim.runner import run_experiment
        base = small_machine_config(num_cores=1)
        config = replace(base, txcache=replace(base.txcache,
                                               organization="set_assoc"))
        result = run_experiment("sps", "txcache", config=config,
                                operations=30, array_elements=128)
        assert result.transactions > 30

    def test_set_assoc_stays_crash_consistent(self):
        from repro.sim.crash import crash_sweep
        base = small_machine_config(num_cores=1)
        config = replace(base, txcache=replace(base.txcache,
                                               organization="set_assoc"))
        for report in crash_sweep("sps", "txcache", fractions=(0.4, 0.8),
                                  operations=25, seed=9, config=config,
                                  array_elements=64):
            assert report.consistent, report.violations[:3]

    def test_unknown_organization_rejected(self):
        base = small_machine_config(num_cores=1)
        with pytest.raises(ValueError, match="organization"):
            replace(base.txcache, organization="weird")
