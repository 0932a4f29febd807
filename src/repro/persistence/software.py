"""SP — software-supported persistence (write-ahead logging baseline).

The paper's SP baseline (§5.1) "supports write-ahead logging and
ensures the write ordering through software instructions" — the
``log()`` calls, ``clwb`` flushes and fences of Fig. 2(b)/3(a).

:meth:`SoftwareScheme._rewrite` rewrites each transaction into the
undo-log protocol a library like Mnemosyne/NV-heaps executes:

1. for every persistent store, construct a log entry (a few ALU
   instructions), store it to the per-core log region, and ``clwb`` it;
2. ``sfence`` — the undo log is durable before any in-place write;
3. the original transaction body (in-place writes, cached);
4. ``clwb`` every written data line and ``sfence`` — data durable;
5. store + ``clwb`` + ``sfence`` a per-transaction commit record — the
   atomicity point.

SP is the undo-log scheme with the whole transaction's log batched
behind one fence, so it subclasses
:class:`~repro.persistence.swtx.UndoLogScheme` and shares its log
layout, clwb bookkeeping, runtime undo capture and recovery
(transactions whose commit record is durable are complete; all others
are rolled back from the undo log).  Only the instrumentation and the
fence differ: an SP fence that waits is charged to the core's generic
``fence`` stall, not to ``log_flush``.

This is where the paper's SP costs come from: roughly 2x NVM write
traffic (log + data + record) and serialized flush/fence stalls on the
critical path.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.types import SchemeName, Version, line_addr
from ..cpu.trace import (
    KIND_STORE,
    OP_CLWB,
    OP_COMPUTE,
    OP_SFENCE,
    OP_STORE,
    Trace,
    TraceOp,
)
from .base import Resume
from .swtx.base import (
    LOG_COMPUTE_COST,
    LOG_SEQ_BASE,
    log_base,
    log_slots,
    record_addr,
)
from .swtx.undo import UndoLogScheme


class SoftwareScheme(UndoLogScheme):
    """SP: write-ahead logging + clwb/sfence ordering in software."""

    name = SchemeName.SP

    # ------------------------------------------------------------------
    # trace instrumentation (the 'software instructions' of Fig. 2b)
    # ------------------------------------------------------------------
    def _rewrite(self, trace: Trace, region: int) -> Trace:
        slots = log_slots(log_base(region))

        def emit_tx(out: List[TraceOp], tx_id: int,
                    body: List[TraceOp]) -> None:
            stores = [op for op in body
                      if op.kind == KIND_STORE and op.persistent]
            writes: Dict[int, Version] = {}
            # 1. build + persist the undo log.  Each log record is
            # 16 B (address + 64-bit old value), packed four per line;
            # one clwb per touched log line.
            touched_log_lines: Dict[int, None] = {}
            for index, store in enumerate(stores):
                writes[line_addr(store.addr)] = store.version
                log_entry = next(slots)
                out.append(TraceOp(OP_COMPUTE, 0, LOG_COMPUTE_COST))
                out.append(TraceOp(OP_STORE, log_entry, 1, tx_id,
                                   Version(tx_id, LOG_SEQ_BASE + index)))
                touched_log_lines[line_addr(log_entry)] = None
            for log_line in touched_log_lines:
                out.append(TraceOp(OP_CLWB, log_line, 1, tx_id))
            if stores:
                out.append(TraceOp(OP_SFENCE, 0, 1, tx_id))
            # 2. original body
            out.extend(body)
            # 3. force data home, then the commit record
            if stores:
                for data_line in writes:
                    out.append(TraceOp(OP_CLWB, data_line, 1, tx_id))
                out.append(TraceOp(OP_SFENCE, 0, 1, tx_id))
                record = record_addr(tx_id)
                out.append(TraceOp(OP_STORE, record, 1, tx_id,
                                   Version(tx_id, -1)))
                out.append(TraceOp(OP_CLWB, record, 1, tx_id))
                out.append(TraceOp(OP_SFENCE, 0, 1, tx_id))

        return self._instrument(trace, "sp", emit_tx)

    # ------------------------------------------------------------------
    # runtime: sfence
    # ------------------------------------------------------------------
    def sfence(self, core, op, resume: Resume) -> None:
        core_id = core.core_id
        if (not self._outstanding_log.get(core_id, 0)
                and not self._outstanding_data.get(core_id, 0)):
            resume()
            return
        self._counts.fence_waits += 1
        # the core charges the wait to "fence" by default; the phase
        # marker makes the ordering stall visible on the scheme track
        if self.tracer.enabled:
            start = self.sim.now
            inner = resume

            def traced_resume() -> None:
                self.tracer.complete("scheme", f"sp.core{core_id}",
                                     "fence.wait", start,
                                     self.sim.now - start)
                inner()

            resume = traced_resume
        self._fence_waiters.setdefault(core_id, []).append(resume)
