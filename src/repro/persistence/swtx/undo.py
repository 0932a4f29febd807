"""Undo-log software transactions: fence-per-entry eager logging.

The classic undo-log protocol (Mnemosyne/NV-heaps style, per the
PMDK-era libraries surveyed in arXiv:1804.00701): before *each*
in-place store, the old value is logged and made durable —

    log(addr, old) ; clwb(log) ; sfence ; store in place

so at any crash point every in-place write of an uncommitted
transaction has a durable undo record.  Commit flushes the data lines,
fences, writes + flushes + fences a commit record, then truncates the
log (a lazily-flushed head-pointer store).

Against SP (which batches the whole transaction's log and pays one
fence for it), undo pays an sfence per store — the worst-case ordering
cost — and the highest write amplification of the swtx family: one log
line, one data line, a record and a head write per N=1 transaction.
The differential invariants pin this down: undo fences >= redo fences
and undo NVM write traffic >= redo's.

Recovery (shared with SP, which subclasses this scheme): committed =
durable commit record; every in-place write of an uncommitted
transaction found in the NVM is rolled back to its logged pre-value,
newest-first across cores (:func:`~repro.persistence.recovery.rollback`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...common.types import SchemeName, Version, is_home_line, line_addr
from ...cpu.trace import OpType, Trace, TraceOp
from ...obs.tracer import NULL_TRACER
from ..recovery import rollback
from .base import (
    LOG_COMPUTE_COST,
    LOG_SEQ_BASE,
    SwTxScheme,
    head_addr,
    log_base,
    log_slots,
    record_addr,
)


class UndoLogScheme(SwTxScheme):
    """Per-store undo WAL with a fence before every in-place write."""

    name = SchemeName.UNDO_LOG

    def __init__(self, sim, config, stats, hierarchy, memory,
                 tracer=NULL_TRACER) -> None:
        super().__init__(sim, config, stats, hierarchy, memory, tracer)
        # recovery bookkeeping, captured at runtime in store-issue
        # order: (tx, line, pre-store version) per in-place data store.
        # The pre-store version is the hierarchy's architectural
        # version, read just before this store updates it; capturing
        # per core at trace-preparation time would roll a line back
        # past another core's committed write.
        self._undo_log: List[Tuple[int, int, Optional[Version]]] = []

    # ------------------------------------------------------------------
    # trace instrumentation
    # ------------------------------------------------------------------
    def _rewrite(self, trace: Trace, region: int) -> Trace:
        slots = log_slots(log_base(region))

        def emit_tx(out: List[TraceOp], tx_id: int,
                    body: List[TraceOp]) -> None:
            index = 0
            writes: Dict[int, None] = {}
            for op in body:
                if op.op is OpType.STORE and op.persistent:
                    # log the old value and make it durable *before*
                    # the in-place write — one full ordering point per
                    # store, the protocol's defining cost
                    log_entry = next(slots)
                    out.append(
                        TraceOp(OpType.COMPUTE, count=LOG_COMPUTE_COST))
                    out.append(TraceOp(
                        OpType.STORE, addr=log_entry, tx_id=tx_id,
                        version=Version(tx_id, LOG_SEQ_BASE + index)))
                    out.append(TraceOp(
                        OpType.CLWB, addr=line_addr(log_entry), tx_id=tx_id))
                    out.append(TraceOp(OpType.SFENCE, tx_id=tx_id))
                    writes[line_addr(op.addr)] = None
                    index += 1
                out.append(op)
            if writes:
                # data durable, then the commit record (atomicity
                # point), then truncate the log: the head store is
                # flushed lazily — the next transaction's first fence
                # orders it
                for data_line in writes:
                    out.append(TraceOp(OpType.CLWB, addr=data_line,
                                       tx_id=tx_id))
                out.append(TraceOp(OpType.SFENCE, tx_id=tx_id))
                record = record_addr(tx_id)
                out.append(TraceOp(
                    OpType.STORE, addr=record, tx_id=tx_id,
                    version=Version(tx_id, -1)))
                out.append(TraceOp(OpType.CLWB, addr=record, tx_id=tx_id))
                out.append(TraceOp(OpType.SFENCE, tx_id=tx_id))
                head = head_addr(region)
                out.append(TraceOp(
                    OpType.STORE, addr=head, tx_id=tx_id,
                    version=Version(tx_id, -2)))
                out.append(TraceOp(OpType.CLWB, addr=head, tx_id=tx_id))

        return self._instrument(trace, "undo", emit_tx)

    # ------------------------------------------------------------------
    # runtime: in-place data stores (undo capture)
    # ------------------------------------------------------------------
    def store(self, core, op, on_issue, on_retire) -> None:
        # log-region and commit-record stores are outside the home
        # region and are not captured
        if (op.persistent and is_home_line(op.addr)
                and op.tx_id is not None and op.version is not None):
            data_line = line_addr(op.addr)
            self._undo_log.append(
                (op.tx_id, data_line, self.hierarchy.arch_version(data_line)))
        super().store(core, op, on_issue, on_retire)

    def tx_end(self, core, op, resume) -> None:
        # durability was established by the record clwb+sfence; the
        # trailing head store/clwb drain in the background
        resume()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def durable_lines(self, crash_cycle: int) -> Dict[int, Optional[Version]]:
        """Undo recovery: roll back every in-place write of an
        uncommitted transaction that reached the NVM, newest-first
        across all cores (conflicting chains unwind as a stack)."""
        return rollback(self.home_image_at(crash_cycle), self._undo_log,
                        self.durably_committed(crash_cycle))
