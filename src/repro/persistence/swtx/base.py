"""Shared machinery of the software-transaction (swtx) schemes.

The three swtx schemes — undo-log, redo-log and hybrid DRAM-logged —
are *software* competitors to the paper's hardware transaction cache:
like SP they instrument the trace and drive ordinary clwb/sfence
ordering, but each picks a different point in the classic WAL design
space (see :mod:`repro.persistence.swtx`).

This base class centralizes what all three share:

* the **log address layout** — per-core NVM log windows, per-tx commit
  record lines and per-core truncation-head lines above the application
  home region, plus the DRAM-side log window the hybrid scheme uses;
* **clwb/sfence ordering** with *split* outstanding-writeback counts:
  an sfence that waits on log-line writebacks attributes its stall to
  ``log_flush`` (the new swtx stall kind) instead of the generic
  ``fence``, so the Fig.-6-style breakdown separates "waiting for the
  log" from "waiting for data";
* **commit-record durability** observed at runtime (the base
  ``commit_cycle`` map that :meth:`durably_committed` reads), and the
  shared **redo-replay engine**: post-commit in-place writes with a
  bounded backlog window whose back-pressure parks commits under
  ``log_replay``;
* the **transaction rewrite loop** every ``prepare_trace`` runs
  (:meth:`SwTxScheme._instrument`), built once per (scheme, log
  region) and kept on the source trace, and redo-style **recovery**
  (record-durable write sets replayed in record order), which undo
  logging overrides with a rollback.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Dict, Iterator, List, Optional

from ...common.types import (
    DRAM_LOG_BASE,
    HOME_REGION_LIMIT,
    NVM_BASE,
    Version,
    is_home_line,
    line_addr,
)
from ...cpu.trace import (
    KIND_TX_BEGIN,
    KIND_TX_END,
    OP_TX_BEGIN,
    OP_TX_END,
    Trace,
    TraceOp,
)
from ...obs.tracer import NULL_TRACER
from ..base import PersistenceScheme, Resume
from ..recovery import replay

#: emits one instrumented transaction body: (out ops, tx id, body ops)
EmitTx = Callable[[List[TraceOp], int, List[TraceOp]], None]

# -- NVM log layout (scheme metadata: above the application home region)
#: per-core log windows
LOG_BASE = HOME_REGION_LIMIT
LOG_STRIDE = 1 << 30         # per-core log spacing
LOG_WRAP = 1 << 20           # circular log size per core
LOG_ENTRY_BYTES = 16         # address + 64-bit value, four per line
#: per-core log truncation heads, one line each
HEAD_BASE = HOME_REGION_LIMIT + (1 << 34)
#: per-transaction commit records, one line each
RECORD_BASE = HOME_REGION_LIMIT + (1 << 35)
RECORD_LIMIT = HOME_REGION_LIMIT + (1 << 36)
#: NVM mirror of the hybrid scheme's DRAM log (same offsets)
MIRROR_BASE = NVM_BASE + (1 << 37)

# -- DRAM log layout (the hybrid scheme's volatile side)
#: per-core DRAM log windows (same stride/wrap as the NVM ones)
DRAM_LOG_LIMIT = DRAM_LOG_BASE + (1 << 34)
#: DRAM-resident commit records, one line per transaction
DRAM_RECORD_BASE = DRAM_LOG_BASE + (1 << 35)
DRAM_RECORD_LIMIT = DRAM_LOG_BASE + (1 << 36)
#: DRAM shadow of the home region (DudeTM-style redirected writes)
SHADOW_BASE = DRAM_LOG_BASE + (1 << 37)

#: ALU instructions charged per log() call (address/value marshalling)
LOG_COMPUTE_COST = 2
#: sequence-number space for injected log stores (disjoint from app
#: stores, whose per-tx sequence numbers start at 0)
LOG_SEQ_BASE = 1 << 20


def log_base(region: int) -> int:
    """First NVM log entry of one per-trace log region."""
    return LOG_BASE + region * LOG_STRIDE


def log_slots(base: int) -> Iterator[int]:
    """Successive entry addresses of one circular log window."""
    return (base + offset % LOG_WRAP
            for offset in count(0, LOG_ENTRY_BYTES))


def record_addr(tx_id: int) -> int:
    """NVM commit-record line of one transaction."""
    return RECORD_BASE + tx_id * 64


def tx_of_record_line(line: int) -> Optional[int]:
    if not RECORD_BASE <= line < RECORD_LIMIT:
        return None
    return (line - RECORD_BASE) // 64


def head_addr(region: int) -> int:
    """Per-log-region truncation-head line (undo-log tail pointer)."""
    return HEAD_BASE + region * 64


def shadow_addr(home_line: int) -> int:
    """DRAM shadow line of a home-region line (hybrid scheme)."""
    return SHADOW_BASE + (home_line - NVM_BASE)


def home_of_shadow(addr: int) -> int:
    return NVM_BASE + (line_addr(addr) - SHADOW_BASE)


def mirror_addr(dram_log_addr: int) -> int:
    """NVM mirror line of a DRAM log line (hybrid scheme)."""
    return MIRROR_BASE + (line_addr(dram_log_addr) - DRAM_LOG_BASE)


def is_dram_log_entry(addr: int) -> bool:
    return DRAM_LOG_BASE <= addr < DRAM_LOG_LIMIT


def is_shadow(addr: int) -> bool:
    return SHADOW_BASE <= addr < SHADOW_BASE + (1 << 36)


class SwTxScheme(PersistenceScheme):
    """Common runtime for the software-transaction schemes."""

    #: post-commit in-place replay writes allowed in flight before a
    #: committing core is back-pressured (``log_replay`` stall)
    REPLAY_WINDOW = 8

    def __init__(self, sim, config, stats, hierarchy, memory,
                 tracer=NULL_TRACER) -> None:
        super().__init__(sim, config, stats, hierarchy, memory, tracer)
        #: per-trace log-region allocation (prepare_trace order)
        self._next_log_region = 0
        # outstanding clwb writebacks per core, split by target so a
        # waiting sfence can attribute its stall to the log when that
        # is what it is actually waiting on
        self._outstanding_log: Dict[int, int] = {}
        self._outstanding_data: Dict[int, int] = {}
        self._fence_waiters: Dict[int, List[Resume]] = {}
        #: per-tx final write sets (home line -> version), accumulated
        #: at runtime in program order; complete by the time the tx's
        #: commit record can possibly become durable
        self._write_sets: Dict[int, Dict[int, Version]] = {}
        # redo-replay engine (redo + hybrid)
        self._outstanding_replay = 0
        self._replay_waiters: List[Callable[[], None]] = []
        # counters bumped per fence or per replayed line
        self._counts = self.stats.cells("fences", "fence_waits",
                                        "replay.lines")

    # ------------------------------------------------------------------
    # trace preparation helpers
    # ------------------------------------------------------------------
    def prepare_trace(self, trace: Trace) -> Trace:
        return self._prepared(trace)

    def _prepared(self, trace: Trace):
        """Claim the next per-trace log region and return
        :meth:`_rewrite`'s result for it.  The rewrite depends only on
        the trace, the scheme and the region, so it is built once and
        kept on the source trace (:meth:`Trace.rewritten`): a System
        built again from the same traces skips the rewrite, its
        validation and its compiled columns."""
        region = self._next_log_region
        self._next_log_region += 1
        return trace.rewritten((self.name, region),
                               lambda: self._rewrite(trace, region))

    def _rewrite(self, trace: Trace, region: int):
        """This scheme's instrumentation of ``trace`` in log region
        ``region`` (the instrumented trace, or whatever the subclass's
        ``prepare_trace`` unpacks); must not touch runtime state."""
        raise NotImplementedError

    @staticmethod
    def _instrument(trace: Trace, suffix: str, emit_tx: EmitTx) -> Trace:
        """Rewrite every transaction of ``trace``: ``emit_tx`` appends
        the instrumented body of each TX_BEGIN..TX_END group between a
        fresh TX_BEGIN/TX_END pair; ops outside transactions pass
        through unchanged."""
        out = Trace(name=f"{trace.name}+{suffix}")
        ops = out.ops
        body: Optional[List[TraceOp]] = None
        tx_id = None
        for op in trace.ops:
            kind = op.kind
            if kind == KIND_TX_BEGIN:
                tx_id, body = op.tx_id, []
            elif kind == KIND_TX_END:
                ops.append(TraceOp(OP_TX_BEGIN, 0, 1, tx_id))
                emit_tx(ops, tx_id, body)
                ops.append(TraceOp(OP_TX_END, 0, 1, tx_id))
                body = None
            elif body is not None:
                body.append(op)
            else:
                ops.append(op)
        out.validate()
        return out

    # ------------------------------------------------------------------
    # runtime: clwb / sfence ordering
    # ------------------------------------------------------------------
    def clwb(self, core, op, resume: Resume) -> None:
        core_id = core.core_id
        line = line_addr(op.addr)
        # record lines live above HEAD_BASE too — everything outside
        # the home region counts as log metadata for attribution
        counters = (self._outstanding_log if not is_home_line(line)
                    else self._outstanding_data)
        counters[core_id] = counters.get(core_id, 0) + 1

        def written_back(cycle: int) -> None:
            tx_id = tx_of_record_line(line)
            if tx_id is not None and tx_id not in self.commit_cycle:
                self.commit_cycle[tx_id] = cycle
            counters[core_id] -= 1
            self._maybe_release_fence(core_id)

        self.hierarchy.writeback_line(core_id, line, written_back)
        resume()  # clwb itself is asynchronous; sfence orders it

    def sfence(self, core, op, resume: Resume) -> None:
        core_id = core.core_id
        self._counts.fences += 1
        waiting_log = self._outstanding_log.get(core_id, 0)
        waiting_data = self._outstanding_data.get(core_id, 0)
        if not waiting_log and not waiting_data:
            resume()
            return
        self._counts.fence_waits += 1
        if waiting_log:
            # the fence is ordering log writebacks: that is the
            # logging protocol's cost, not generic data ordering
            core.attribute_stall("log_flush")
        self._fence_waiters.setdefault(core_id, []).append(resume)

    def _maybe_release_fence(self, core_id: int) -> None:
        if (not self._outstanding_log.get(core_id, 0)
                and not self._outstanding_data.get(core_id, 0)):
            for waiter in self._fence_waiters.pop(core_id, []):
                waiter()

    # ------------------------------------------------------------------
    # runtime: post-commit in-place replay (redo + hybrid)
    # ------------------------------------------------------------------
    def _replay(self, tx_id: int, writes: Dict[int, Version]) -> None:
        """Enqueue the committed transaction's in-place home writes.

        Architectural contents update at enqueue (so subsequent misses
        fill the new versions); cached stale copies are dropped first.
        """
        for home_line, version in writes.items():
            self._outstanding_replay += 1
            self._counts.replay_lines += 1
            self.hierarchy.invalidate_everywhere(home_line)
            self.memory.write(home_line, version, persistent=True,
                              tx_id=tx_id, on_complete=self._replay_done,
                              source="swtx.replay")

    def _replay_done(self, request, cycle: int) -> None:
        self._outstanding_replay -= 1
        while (self._replay_waiters
               and self._outstanding_replay <= self.REPLAY_WINDOW):
            self._replay_waiters.pop(0)()

    def _with_replay_window(self, core, cont: Callable[[], None]) -> None:
        """Run ``cont`` once the replay backlog is under the window,
        charging any wait to ``log_replay``."""
        if self._outstanding_replay <= self.REPLAY_WINDOW:
            cont()
            return
        self.stats.inc("replay.stalls")
        core.attribute_stall("log_replay")
        self._replay_waiters.append(cont)

    # ------------------------------------------------------------------
    # completion / recovery
    # ------------------------------------------------------------------
    def busy(self) -> bool:
        return bool(
            any(self._outstanding_log.values())
            or any(self._outstanding_data.values())
            or self._outstanding_replay
            or self._replay_waiters
        )

    def durable_lines(self, crash_cycle: int,
                      committed: Optional[set] = None,
                      ) -> Dict[int, Optional[Version]]:
        """Redo recovery (redo_log, hybrid_dram): start from the home
        image the crash left behind, then replay the write set of every
        durably-committed transaction in record-durability order.

        Per core, records become durable in program order (redo fences
        each record; hybrid chains its record mirrors), so the last
        write applied to a line is some core's *last* committed writer
        of it — a member of the litmus oracle's legal persist set.  Any
        in-place home write the crash interrupted belongs to a
        record-durable transaction (replay starts strictly after record
        durability), so it is always re-applied consistently.
        """
        durable = sorted((cycle, tx) for tx, cycle in self.commit_cycle.items()
                         if cycle <= crash_cycle)
        plan = [(tx, self._write_sets.get(tx, {})) for _cycle, tx in durable]
        return replay(self.home_image_at(crash_cycle), plan, self.commit_cycle)
