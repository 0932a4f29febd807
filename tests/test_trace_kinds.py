"""Kind codes and set-up scans of traces.

``TraceOp`` reads its dense kind code off its ``OpType`` member, and
``Trace.validate``, the instrumenting schemes' rewriters and
``CompiledTrace`` compare or copy those int codes instead of enum
members.  These tests hold the int-code paths to the enum definitions
they replace:

* ``validate`` accepts exactly the op streams the enum-based check
  (kept below as a test-only reference) accepts, with the same
  ``ValueError`` text, on random valid and malformed streams;
* every op of every workload trace, and of its sp, undo_log, redo_log
  and hybrid_dram rewrites, carries the kind and P/V flag its op type
  and address define, and the compiled columns equal a per-op build;
* a trace keeps its kinds through ``Trace.dump`` / ``Trace.load`` read
  back in a fresh interpreter.
"""

import io
import json
import os
import pathlib
import subprocess
import sys
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.common.config import small_machine_config
from repro.common.types import NVM_BASE, Version, is_persistent_addr
from repro.cpu.trace import CompiledTrace, OpType, Trace, TraceOp
from repro.sim.runner import make_traces
from repro.sim.system import System
from repro.workloads import WORKLOADS

#: the dense code of each op type, written out (the core's dispatch
#: table and the compiled columns index on these)
REFERENCE_KIND = {
    OpType.LOAD: 0,
    OpType.STORE: 1,
    OpType.COMPUTE: 2,
    OpType.TX_BEGIN: 3,
    OpType.TX_END: 4,
    OpType.CLWB: 5,
    OpType.SFENCE: 6,
}
ADDRESSED = (OpType.LOAD, OpType.STORE, OpType.CLWB)
INSTRUMENTING = ("sp", "undo_log", "redo_log", "hybrid_dram")


def reference_validate(trace: Trace) -> None:
    """The enum-based transaction-bracketing check ``Trace.validate``
    replaced, without the memo, and with a store's P/V flag taken from
    its address rather than read off the op."""
    open_tx: Optional[int] = None
    for index, op in enumerate(trace.ops):
        if op.op is OpType.TX_BEGIN:
            if open_tx is not None:
                raise ValueError(
                    f"{trace.name}[{index}]: nested TX_BEGIN "
                    f"(tx {op.tx_id} inside {open_tx})")
            if op.tx_id is None:
                raise ValueError(f"{trace.name}[{index}]: TX_BEGIN without tx_id")
            open_tx = op.tx_id
        elif op.op is OpType.TX_END:
            if open_tx is None:
                raise ValueError(f"{trace.name}[{index}]: TX_END outside tx")
            if op.tx_id != open_tx:
                raise ValueError(
                    f"{trace.name}[{index}]: TX_END tx {op.tx_id} != {open_tx}")
            open_tx = None
        elif (op.op is OpType.STORE and is_persistent_addr(op.addr)
              and open_tx is not None):
            if op.version is None:
                raise ValueError(
                    f"{trace.name}[{index}]: persistent tx store missing version")
            if op.version.tx_id != open_tx:
                raise ValueError(
                    f"{trace.name}[{index}]: version tx {op.version.tx_id} "
                    f"!= open tx {open_tx}")
    if open_tx is not None:
        raise ValueError(f"{trace.name}: unterminated transaction {open_tx}")


def outcome(check, trace: Trace) -> Optional[str]:
    """None if ``check`` accepts ``trace``, else its ValueError text."""
    try:
        check(trace)
    except ValueError as exc:
        return str(exc)
    return None


# -- random op streams -------------------------------------------------
tx_ids = st.sampled_from([None, 1, 2, 3])
addrs = st.sampled_from([0, 64, NVM_BASE, NVM_BASE + 64, NVM_BASE + 4096])
versions = st.one_of(st.none(), st.builds(Version, tx_ids,
                                          st.integers(-2, 3)))

stray_ops = st.one_of(
    st.builds(TraceOp, st.just(OpType.LOAD), addrs),
    st.builds(TraceOp, st.just(OpType.COMPUTE), st.just(0),
              st.integers(1, 5)),
    st.builds(TraceOp, st.just(OpType.CLWB), addrs),
    st.builds(TraceOp, st.just(OpType.SFENCE)),
    st.builds(TraceOp, st.just(OpType.STORE), st.sampled_from([0, 64])),
)


@st.composite
def well_formed_streams(draw, min_txs=0):
    """Bracketed transactions whose persistent stores carry versions of
    their own transaction, with stray ops between them."""
    ops = []
    for tx_id in range(1, draw(st.integers(min_txs, 3)) + 1):
        ops.extend(draw(st.lists(stray_ops, max_size=3)))
        ops.append(TraceOp(OpType.TX_BEGIN, tx_id=tx_id))
        for seq, addr in enumerate(draw(st.lists(addrs, min_size=min_txs,
                                                 max_size=4))):
            version = Version(tx_id, seq) if addr >= NVM_BASE else None
            ops.append(TraceOp(OpType.STORE, addr=addr, tx_id=tx_id,
                               version=version))
        ops.extend(draw(st.lists(stray_ops, max_size=3)))
        ops.append(TraceOp(OpType.TX_END, tx_id=tx_id))
    return ops


any_ops = st.one_of(
    stray_ops,
    st.builds(TraceOp, st.sampled_from([OpType.TX_BEGIN, OpType.TX_END]),
              st.just(0), st.just(1), tx_ids),
    st.builds(TraceOp, st.just(OpType.STORE), addrs, st.just(1), tx_ids,
              versions),
)


@st.composite
def op_streams(draw):
    """A well-formed stream, an arbitrary one, or a well-formed one with
    one op dropped, one arbitrary op inserted, one persistent store's
    version removed or moved to another transaction, or one TX_END
    retagged."""
    ops = draw(well_formed_streams(min_txs=1))
    mutation = draw(st.sampled_from(
        [None, "arbitrary", "drop", "insert", "unversion", "reversion",
         "retag"]))
    if mutation == "arbitrary":
        return draw(st.lists(any_ops, max_size=12))
    if mutation == "drop" and ops:
        del ops[draw(st.integers(0, len(ops) - 1))]
    elif mutation == "insert":
        ops.insert(draw(st.integers(0, len(ops))), draw(any_ops))
    elif mutation == "retag":
        ends = [i for i, op in enumerate(ops) if op.op is OpType.TX_END]
        if ends:
            ops[draw(st.sampled_from(ends))] = TraceOp(
                OpType.TX_END, tx_id=draw(tx_ids))
    elif mutation is not None:
        stores = [i for i, op in enumerate(ops) if op.version is not None]
        if stores:
            index = draw(st.sampled_from(stores))
            op = ops[index]
            version = (None if mutation == "unversion"
                       else Version(draw(tx_ids), op.version.seq))
            ops[index] = TraceOp(OpType.STORE, addr=op.addr,
                                 tx_id=op.tx_id, version=version)
    return ops


# one example per malformation the check names
MALFORMED = {
    "nested TX_BEGIN": [TraceOp(OpType.TX_BEGIN, tx_id=1),
                        TraceOp(OpType.TX_BEGIN, tx_id=2)],
    "TX_BEGIN without tx_id": [TraceOp(OpType.TX_BEGIN)],
    "TX_END outside tx": [TraceOp(OpType.LOAD, addr=NVM_BASE),
                          TraceOp(OpType.TX_END, tx_id=1)],
    "TX_END tx 2 != 1": [TraceOp(OpType.TX_BEGIN, tx_id=1),
                         TraceOp(OpType.TX_END, tx_id=2)],
    "missing version": [TraceOp(OpType.TX_BEGIN, tx_id=1),
                        TraceOp(OpType.STORE, addr=NVM_BASE, tx_id=1)],
    "version tx 2 != open tx 1": [
        TraceOp(OpType.TX_BEGIN, tx_id=1),
        TraceOp(OpType.STORE, addr=NVM_BASE, tx_id=1,
                version=Version(2, 0))],
    "unterminated transaction 1": [TraceOp(OpType.TX_BEGIN, tx_id=1),
                                   TraceOp(OpType.COMPUTE, count=3)],
}


class TestValidateDifferential:
    @pytest.mark.parametrize("fragment", sorted(MALFORMED))
    def test_each_malformation_raises_the_reference_text(self, fragment):
        ops = MALFORMED[fragment]
        expected = outcome(reference_validate, Trace("t", list(ops)))
        assert expected is not None and fragment in expected
        assert outcome(Trace.validate, Trace("t", list(ops))) == expected

    @settings(max_examples=400, deadline=None)
    @given(op_streams())
    @example([])
    @example([TraceOp(OpType.TX_BEGIN, tx_id=0),
              TraceOp(OpType.TX_END, tx_id=0)])
    def test_accepts_and_rejects_as_the_enum_check(self, ops):
        expected = outcome(reference_validate, Trace("t", list(ops)))
        assert outcome(Trace.validate, Trace("t", list(ops))) == expected

    @settings(max_examples=100, deadline=None)
    @given(well_formed_streams())
    def test_well_formed_streams_validate(self, ops):
        assert outcome(Trace.validate, Trace("t", ops)) is None


# -- kinds and columns of real traces ------------------------------------
def assert_kinds_match(trace: Trace) -> None:
    """Every op's kind and P/V flag, and the compiled columns, equal
    their definitions from the op type and the address."""
    for op in trace.ops:
        assert op.kind == REFERENCE_KIND[op.op], op
        assert op.persistent == (op.op in ADDRESSED
                                 and is_persistent_addr(op.addr)), op
    compiled = CompiledTrace(trace.ops)
    assert compiled.kinds == bytes(REFERENCE_KIND[op.op] for op in trace.ops)
    assert list(compiled.counts) == [op.count for op in trace.ops]
    assert compiled.persistent == bytes(
        int(op.op in ADDRESSED and is_persistent_addr(op.addr))
        for op in trace.ops)


def rewrites(traces, scheme):
    """``scheme``'s instrumentation of each trace, as a System builds it
    (one log region per trace)."""
    system = System(small_machine_config(num_cores=len(traces)), scheme)
    return [system.scheme.prepare_trace(trace) for trace in traces]


def test_op_type_codes_are_the_reference_codes():
    assert {member: member.code for member in OpType} == REFERENCE_KIND
    assert [OpType(member.value) for member in OpType] == list(OpType)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_traces_and_rewrites_carry_reference_kinds(workload):
    traces = make_traces(workload, 2, 20, seed=5)
    for trace in traces:
        assert_kinds_match(trace)
    for scheme in INSTRUMENTING:
        for rewritten in rewrites(traces, scheme):
            assert_kinds_match(rewritten)


def test_kinds_survive_dump_and_load_in_a_fresh_interpreter(tmp_path):
    trace = rewrites(make_traces("hashtable", 1, 10, seed=2), "undo_log")[0]
    path = tmp_path / "trace.jsonl"
    with open(path, "w") as fp:
        trace.dump(fp)
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    probe = (
        "import json, sys\n"
        "from repro.cpu.trace import Trace\n"
        f"with open({str(path)!r}) as fp:\n"
        "    trace = Trace.load(fp)\n"
        "trace.validate()\n"
        "compiled = trace.compiled()\n"
        "print(json.dumps({'ops': [[op.op.value, op.kind, op.persistent]\n"
        "                          for op in trace.ops],\n"
        "                  'kinds': list(compiled.kinds),\n"
        "                  'persistent': list(compiled.persistent)}))\n")
    out = subprocess.run([sys.executable, "-c", probe],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert loaded["ops"] == [[op.op.value, op.kind, op.persistent]
                             for op in trace.ops]
    assert loaded["kinds"] == list(trace.compiled().kinds)
    assert loaded["persistent"] == list(trace.compiled().persistent)
    buffer = io.StringIO()
    trace.dump(buffer)
    buffer.seek(0)
    assert Trace.load(buffer).ops == trace.ops
