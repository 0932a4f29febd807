"""Unit tests for trace ops, containers, builder, and serialization."""

import io

import pytest

from repro.common.types import NVM_BASE, Version
from repro.cpu.trace import OpType, Trace, TraceBuilder, TraceOp
from repro.sim.runner import make_traces
from repro.workloads import WORKLOADS


class TestTraceOp:
    def test_persistent_flag_follows_address_space(self):
        assert TraceOp(OpType.STORE, addr=NVM_BASE).persistent
        assert not TraceOp(OpType.STORE, addr=100).persistent
        assert not TraceOp(OpType.COMPUTE, addr=NVM_BASE).persistent

    def test_instruction_count(self):
        assert TraceOp(OpType.COMPUTE, count=7).instructions == 7
        assert TraceOp(OpType.LOAD, addr=4).instructions == 1

    def test_json_round_trip(self):
        op = TraceOp(OpType.STORE, addr=NVM_BASE + 8, tx_id=3,
                     version=Version(3, 1))
        back = TraceOp.from_json(op.to_json())
        assert back == op

    def test_json_round_trip_defaults(self):
        op = TraceOp(OpType.SFENCE)
        assert TraceOp.from_json(op.to_json()) == op


class TestTraceBuilder:
    def test_builds_valid_transaction(self):
        builder = TraceBuilder("t")
        tx = builder.begin_tx()
        builder.store(NVM_BASE)
        builder.store(NVM_BASE + 64)
        builder.end_tx()
        trace = builder.build()
        assert tx == 1
        assert trace.transactions == 1
        assert trace.persistent_stores == 2

    def test_versions_are_sequential_within_tx(self):
        builder = TraceBuilder("t")
        builder.begin_tx()
        builder.store(NVM_BASE)
        builder.store(NVM_BASE + 64)
        builder.end_tx()
        builder.begin_tx()
        builder.store(NVM_BASE + 128)
        builder.end_tx()
        stores = [op for op in builder.build() if op.op is OpType.STORE]
        assert stores[0].version == Version(1, 0)
        assert stores[1].version == Version(1, 1)
        assert stores[2].version == Version(2, 0)

    def test_volatile_store_gets_no_version(self):
        builder = TraceBuilder("t")
        builder.begin_tx()
        builder.store(100)
        builder.end_tx()
        store = builder.build().ops[1]
        assert store.version is None

    def test_nested_tx_rejected(self):
        builder = TraceBuilder("t")
        builder.begin_tx()
        with pytest.raises(ValueError):
            builder.begin_tx()

    def test_unclosed_tx_rejected(self):
        builder = TraceBuilder("t")
        builder.begin_tx()
        builder.store(NVM_BASE)
        with pytest.raises(ValueError):
            builder.build()

    def test_compute_coalesces(self):
        builder = TraceBuilder("t")
        builder.compute(3)
        builder.compute(4)
        builder.load(0)
        builder.compute(0)  # ignored
        trace = builder.trace
        assert len(trace.ops) == 2
        assert trace.ops[0].count == 7


class TestTraceValidation:
    def test_detects_tx_end_mismatch(self):
        trace = Trace("bad", [
            TraceOp(OpType.TX_BEGIN, tx_id=1),
            TraceOp(OpType.TX_END, tx_id=2),
        ])
        with pytest.raises(ValueError, match="TX_END tx 2"):
            trace.validate()

    def test_detects_missing_version(self):
        trace = Trace("bad", [
            TraceOp(OpType.TX_BEGIN, tx_id=1),
            TraceOp(OpType.STORE, addr=NVM_BASE, tx_id=1),
            TraceOp(OpType.TX_END, tx_id=1),
        ])
        with pytest.raises(ValueError, match="missing version"):
            trace.validate()

    def test_detects_tx_end_outside(self):
        trace = Trace("bad", [TraceOp(OpType.TX_END, tx_id=1)])
        with pytest.raises(ValueError, match="outside"):
            trace.validate()


class TestTraceQueries:
    def make_trace(self):
        builder = TraceBuilder("q")
        builder.compute(10)
        builder.begin_tx()
        builder.store(NVM_BASE)
        builder.load(NVM_BASE)
        builder.end_tx()
        builder.begin_tx()
        builder.store(NVM_BASE + 64)
        builder.store(NVM_BASE + 128)
        builder.end_tx()
        return builder.build()

    def test_instruction_count(self):
        trace = self.make_trace()
        # 10 compute + 2 begin + 2 end + 3 stores + 1 load
        assert trace.instructions == 18

    def test_transaction_writes_grouping(self):
        groups = self.make_trace().transaction_writes()
        assert sorted(groups) == [1, 2]
        assert len(groups[1]) == 1
        assert len(groups[2]) == 2

    def test_serialization_round_trip(self):
        trace = self.make_trace()
        buffer = io.StringIO()
        trace.dump(buffer)
        buffer.seek(0)
        back = Trace.load(buffer)
        assert back.name == trace.name
        assert back.ops == trace.ops


def _per_op_aggregates(trace):
    """The trace aggregates by their definition, one op at a time."""
    return (sum(op.instructions for op in trace.ops),
            sum(op.op is OpType.TX_END for op in trace.ops),
            sum(op.op is OpType.STORE and op.persistent for op in trace.ops))


def _aggregates(trace):
    return trace.instructions, trace.transactions, trace.persistent_stores


class TestCompiledAggregates:
    """The column reductions behind ``instructions``, ``transactions``
    and ``persistent_stores`` equal their per-op definitions."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_workload_traces_match_per_op_definition(self, workload):
        for trace in make_traces(workload, 2, 25, seed=3):
            assert _aggregates(trace) == _per_op_aggregates(trace)

    def test_every_op_kind(self):
        trace = Trace("kinds", [
            TraceOp(OpType.COMPUTE, count=5),
            TraceOp(OpType.TX_BEGIN, tx_id=1),
            TraceOp(OpType.LOAD, addr=NVM_BASE),
            TraceOp(OpType.STORE, addr=NVM_BASE, tx_id=1,
                    version=Version(1, 0)),
            TraceOp(OpType.STORE, addr=64),  # volatile
            TraceOp(OpType.CLWB, addr=NVM_BASE),
            TraceOp(OpType.SFENCE),
            TraceOp(OpType.TX_END, tx_id=1),
        ])
        assert _aggregates(trace) == (12, 1, 1) == _per_op_aggregates(trace)

    def test_empty_trace(self):
        assert _aggregates(Trace("empty")) == (0, 0, 0)

    def test_compute_counts_beyond_32_bits(self):
        trace = Trace("big", [TraceOp(OpType.COMPUTE, count=2**40),
                              TraceOp(OpType.COMPUTE, count=0),
                              TraceOp(OpType.LOAD, addr=NVM_BASE)])
        assert trace.instructions == 2**40 + 1

    def test_appending_ops_recompiles(self):
        trace = TestTraceQueries().make_trace()
        before = _aggregates(trace)
        trace.ops.append(TraceOp(OpType.STORE, addr=NVM_BASE + 192, tx_id=3,
                                 version=Version(3, 0)))
        trace.ops.append(TraceOp(OpType.TX_END, tx_id=3))
        assert _aggregates(trace) == (before[0] + 2, before[1] + 1,
                                      before[2] + 1)
