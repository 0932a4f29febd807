"""Redo-log software transactions: DRAM write set, two fences per tx.

The classic redo/WAL alternative (the Mnemosyne "torn-bit log" /
SoftWrAP family, per arXiv:1804.00701): in-transaction stores never
touch the home region.  Each store appends a redo entry to the NVM log
(new value, not old) and records the intended write in a DRAM-side
write set; loads consult the write set first (read-your-writes).
Commit is two ordering points total —

    clwb(touched log lines) ; sfence ; store record ; clwb ; sfence

— after which the transaction is durable and its write set is replayed
in place in the background.  A crash before the record loses the
transaction (nothing in the home region to undo); a crash after it is
recovered by re-running the replay from the durable log.

Against undo, redo trades fences (2 per transaction vs N+2) and write
amplification (log entries pack four per line; undo writes a full line
per entry *and* flushes it eagerly) for a write-set lookup on every
transactional load and a replay backlog that can back-pressure commits
(the ``log_replay`` stall).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ...common.types import SchemeName, Version, line_addr
from ...cpu.trace import (
    KIND_STORE,
    OP_CLWB,
    OP_COMPUTE,
    OP_SFENCE,
    OP_STORE,
    Trace,
    TraceOp,
)
from ...obs.tracer import NULL_TRACER
from .base import (
    LOG_COMPUTE_COST,
    LOG_SEQ_BASE,
    SwTxScheme,
    log_base,
    log_slots,
    record_addr,
)

#: an injected log store's (tx, seq) -> the home (line, version) it logs
LogTargets = Dict[Tuple[int, int], Tuple[int, Version]]


class RedoLogScheme(SwTxScheme):
    """NVM redo WAL + DRAM write set, post-commit in-place replay."""

    name = SchemeName.REDO_LOG

    def __init__(self, sim, config, stats, hierarchy, memory,
                 tracer=NULL_TRACER) -> None:
        super().__init__(sim, config, stats, hierarchy, memory, tracer)
        #: prepare-time map from an injected log store's (tx, seq) to
        #: the home write it stands for — the runtime uses it to grow
        #: the write set in program order as log stores issue
        self._log_targets: LogTargets = {}
        self._open_tx: Set[int] = set()

    # ------------------------------------------------------------------
    # trace instrumentation
    # ------------------------------------------------------------------
    def prepare_trace(self, trace: Trace) -> Trace:
        prepared, log_targets = self._prepared(trace)
        self._log_targets.update(log_targets)
        return prepared

    def _rewrite(self, trace: Trace, region: int) -> Tuple[Trace, LogTargets]:
        """The redo-instrumented trace and its log targets."""
        slots = log_slots(log_base(region))
        log_targets: LogTargets = {}

        def emit_tx(out: List[TraceOp], tx_id: int,
                    body: List[TraceOp]) -> None:
            touched_log_lines: Dict[int, None] = {}
            index = 0
            for op in body:
                if op.kind == KIND_STORE and op.persistent:
                    # replace the in-place write with a redo-log append
                    log_entry = next(slots)
                    seq = LOG_SEQ_BASE + index
                    log_targets[(tx_id, seq)] = (
                        line_addr(op.addr), op.version)
                    out.append(TraceOp(OP_COMPUTE, 0, LOG_COMPUTE_COST))
                    out.append(TraceOp(OP_STORE, log_entry, 1, tx_id,
                                       Version(tx_id, seq)))
                    touched_log_lines[line_addr(log_entry)] = None
                    index += 1
                else:
                    out.append(op)
            if touched_log_lines:
                for log_line in touched_log_lines:
                    out.append(TraceOp(OP_CLWB, log_line, 1, tx_id))
                out.append(TraceOp(OP_SFENCE, 0, 1, tx_id))
                record = record_addr(tx_id)
                out.append(TraceOp(OP_STORE, record, 1, tx_id,
                                   Version(tx_id, -1)))
                out.append(TraceOp(OP_CLWB, record, 1, tx_id))
                out.append(TraceOp(OP_SFENCE, 0, 1, tx_id))

        return self._instrument(trace, "redo", emit_tx), log_targets

    # ------------------------------------------------------------------
    # runtime
    # ------------------------------------------------------------------
    def tx_begin(self, core, op, resume) -> None:
        self._open_tx.add(op.tx_id)
        resume()

    def store(self, core, op, on_issue, on_retire) -> None:
        # a redo-log append also lands the write in the DRAM write set,
        # in program order (a later in-tx load must see it; an earlier
        # one must not)
        if op.version is not None and op.tx_id is not None:
            target = self._log_targets.get((op.tx_id, op.version.seq))
            if target is not None:
                home_line, version = target
                self._write_sets.setdefault(op.tx_id, {})[home_line] = version
        super().store(core, op, on_issue, on_retire)

    def load(self, core, op, on_complete) -> None:
        # read-your-writes: an open transaction's loads hit its DRAM
        # write set before the cache sees them
        tx_id = op.tx_id
        if tx_id is not None and tx_id in self._open_tx:
            writes = self._write_sets.get(tx_id)
            if writes is not None:
                version = writes.get(line_addr(op.addr))
                if version is not None:
                    self.stats.inc("write_set_hits")
                    on_complete(self.hierarchy.l1[core.core_id].latency,
                                version)
                    return
        super().load(core, op, on_complete)

    def tx_end(self, core, op, resume) -> None:
        # the record clwb+sfence just before this op established
        # durability; what remains is the in-place replay, which only
        # blocks the core when the backlog window is full
        tx_id = op.tx_id
        self._open_tx.discard(tx_id)
        writes = self._write_sets.get(tx_id)
        if not writes:
            resume()
            return

        def commit() -> None:
            self._replay(tx_id, writes)
            resume()

        self._with_replay_window(core, commit)
