"""Hybrid DRAM-logged software transactions (DudeTM-style decoupling).

The third point in the swtx design space, per the decoupled-durability
systems of arXiv:1903.06226: transactions run entirely against DRAM —
redo entries and the commit record are *stores to a DRAM log*, and
in-place writes are redirected to a DRAM shadow of the home region —
while a background mirror engine copies the DRAM log into NVM.  Commit
is an **epoch fence**: the committing core waits only until its own
log entries' NVM mirrors are durable (``log_flush`` stall when they
are not), then continues; the commit record's mirror is chained behind
the log mirrors per core (so records become durable in program order)
and in-place NVM replay follows record durability, both off the
critical path.

The transaction's critical path therefore has *no* clwb or sfence
instructions at all — the fence count is zero against undo's N+2 and
redo's 2 — and persistent loads are served from the DRAM shadow at
DRAM latency.  The costs move elsewhere: every log line is written
twice (DRAM + NVM mirror), a saturated mirror engine back-pressures
log appends (``log_write`` stall), and a deep replay backlog
back-pressures commits (``log_replay``).

Recovery is redo recovery keyed on the *mirrored* record: a durable
NVM record implies (epoch fence + per-core chaining) that every log
entry of the transaction is durably mirrored, so the write set can be
replayed; everything else ran only in DRAM and vanishes cleanly.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ...common.types import DRAM_LOG_BASE, SchemeName, Version, line_addr
from ...cpu.trace import KIND_STORE, OP_COMPUTE, OP_STORE, Trace, TraceOp
from ...obs.tracer import NULL_TRACER
from .base import (
    DRAM_RECORD_BASE,
    LOG_COMPUTE_COST,
    LOG_SEQ_BASE,
    LOG_STRIDE,
    SwTxScheme,
    home_of_shadow,
    is_dram_log_entry,
    is_shadow,
    log_slots,
    mirror_addr,
    record_addr,
    shadow_addr,
)


def dram_record_addr(tx_id: int) -> int:
    return DRAM_RECORD_BASE + tx_id * 64


class HybridDramScheme(SwTxScheme):
    """DRAM log + shadow, asynchronous NVM mirror, epoch-fence commit."""

    name = SchemeName.HYBRID_DRAM

    #: NVM mirror writes allowed in flight before log appends stall
    MIRROR_WINDOW = 16

    def __init__(self, sim, config, stats, hierarchy, memory,
                 tracer=NULL_TRACER) -> None:
        super().__init__(sim, config, stats, hierarchy, memory, tracer)
        #: home lines whose newest value lives in the DRAM shadow;
        #: loads redirect there permanently (reads at DRAM speed are
        #: the point of the decoupling)
        self._visible: Dict[int, Version] = {}
        # mirror engine state
        self._mirror_outstanding = 0
        self._mirror_by_tx: Dict[int, int] = {}
        self._mirror_waiters: List[Callable[[], None]] = []
        self._epoch_waiters: Dict[int, List[Callable[[], None]]] = {}
        self._mirror_counts = self.stats.cells(
            "mirror.lines", "mirror.stalls", "epoch_fences")
        # per-core commit-record mirror chains (FIFO keeps record
        # durability in program order per core — the prefix-closure
        # obligation of the persistency oracle)
        self._record_chain: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # trace instrumentation
    # ------------------------------------------------------------------
    def _rewrite(self, trace: Trace, region: int) -> Trace:
        slots = log_slots(DRAM_LOG_BASE + region * LOG_STRIDE)

        def emit_tx(out: List[TraceOp], tx_id: int,
                    body: List[TraceOp]) -> None:
            index = 0
            for op in body:
                if op.kind == KIND_STORE and op.persistent:
                    # redo entry into the DRAM log + redirected
                    # in-place write into the DRAM shadow; no clwb, no
                    # sfence — durability is the mirror engine's job
                    out.append(TraceOp(OP_COMPUTE, 0, LOG_COMPUTE_COST))
                    out.append(TraceOp(OP_STORE, next(slots), 1, tx_id,
                                       Version(tx_id, LOG_SEQ_BASE + index)))
                    out.append(TraceOp(OP_STORE,
                                       shadow_addr(line_addr(op.addr)), 1,
                                       tx_id, op.version))
                    index += 1
                else:
                    out.append(op)
            if index:
                out.append(TraceOp(OP_STORE, dram_record_addr(tx_id), 1,
                                   tx_id, Version(tx_id, -1)))

        return self._instrument(trace, "hybrid", emit_tx)

    # ------------------------------------------------------------------
    # runtime: stores (log appends, shadow writes, mirror engine)
    # ------------------------------------------------------------------
    def store(self, core, op, on_issue, on_retire) -> None:
        line = line_addr(op.addr)
        if is_shadow(line) and op.tx_id is not None:
            home_line = home_of_shadow(line)
            self._visible[home_line] = op.version
            self._write_sets.setdefault(op.tx_id, {})[home_line] = op.version
            super().store(core, op, on_issue, on_retire)
            return
        if is_dram_log_entry(line) and op.tx_id is not None:
            # the DRAM append itself goes through the cache like any
            # store; the mirror engine picks the entry up immediately
            # and writes its NVM copy in the background
            self._mirror_outstanding += 1
            self._mirror_by_tx[op.tx_id] = (
                self._mirror_by_tx.get(op.tx_id, 0) + 1)
            self._mirror_counts.mirror_lines += 1
            self.memory.write(
                mirror_addr(line), op.version, persistent=True,
                tx_id=op.tx_id, on_complete=self._mirror_done,
                source="swtx.mirror")
            self.hierarchy.store(
                core.core_id, op.addr, op.version,
                persistent=op.persistent, tx_id=op.tx_id,
                on_complete=on_retire)
            if self._mirror_outstanding > self.MIRROR_WINDOW:
                # mirror engine saturated: the log append cannot issue
                # until the window frees up
                self._mirror_counts.mirror_stalls += 1
                core.attribute_stall("log_write")
                self._mirror_waiters.append(lambda: on_issue(1))
            else:
                on_issue(1)
            return
        super().store(core, op, on_issue, on_retire)

    def _mirror_done(self, request, cycle: int) -> None:
        self._mirror_outstanding -= 1
        tx_id = request.tx_id
        remaining = self._mirror_by_tx.get(tx_id, 0) - 1
        if remaining <= 0:
            self._mirror_by_tx.pop(tx_id, None)
            for waiter in self._epoch_waiters.pop(tx_id, []):
                waiter()
        else:
            self._mirror_by_tx[tx_id] = remaining
        while (self._mirror_waiters
               and self._mirror_outstanding <= self.MIRROR_WINDOW):
            self._mirror_waiters.pop(0)()

    # ------------------------------------------------------------------
    # runtime: loads (DRAM shadow redirection)
    # ------------------------------------------------------------------
    def load(self, core, op, on_complete) -> None:
        line = line_addr(op.addr)
        if line in self._visible:
            self.hierarchy.load(core.core_id, shadow_addr(line), on_complete)
            return
        super().load(core, op, on_complete)

    # ------------------------------------------------------------------
    # runtime: commit (epoch fence + chained record mirror + replay)
    # ------------------------------------------------------------------
    def tx_end(self, core, op, resume) -> None:
        tx_id = op.tx_id
        writes = self._write_sets.get(tx_id)
        if not writes:
            resume()
            return
        self._mirror_counts.epoch_fences += 1

        def after_fence() -> None:
            self._enqueue_record(core.core_id, tx_id)
            resume()

        def fence() -> None:
            if self._mirror_by_tx.get(tx_id):
                # epoch fence: this transaction's log mirrors are not
                # durable yet — the only wait on the commit path
                self._counts.fence_waits += 1
                core.attribute_stall("log_flush")
                self._epoch_waiters.setdefault(tx_id, []).append(after_fence)
            else:
                after_fence()

        self._with_replay_window(core, fence)

    def _enqueue_record(self, core_id: int, tx_id: int) -> None:
        chain = self._record_chain.setdefault(core_id, [])
        chain.append(tx_id)
        if len(chain) == 1:
            self._issue_record(core_id)

    def _issue_record(self, core_id: int) -> None:
        tx_id = self._record_chain[core_id][0]

        def record_durable(request, cycle: int) -> None:
            if tx_id not in self.commit_cycle:
                self.commit_cycle[tx_id] = cycle
            chain = self._record_chain[core_id]
            chain.pop(0)
            self._replay(tx_id, self._write_sets.get(tx_id, {}))
            if chain:
                self._issue_record(core_id)

        self.memory.write(
            record_addr(tx_id), Version(tx_id, -1), persistent=True,
            tx_id=tx_id, on_complete=record_durable, source="swtx.record")

    # ------------------------------------------------------------------
    # completion / recovery
    # ------------------------------------------------------------------
    def busy(self) -> bool:
        return bool(
            super().busy()
            or self._mirror_outstanding
            or self._mirror_waiters
            or any(self._record_chain.values())
            or self._epoch_waiters
        )
