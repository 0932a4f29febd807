"""Kiln-style baseline: a nonvolatile last-level cache ([23] in the paper).

The prior hardware scheme the paper compares against keeps persistence
inside the cache hierarchy itself:

* the LLC is built from NVM technology, so data that reaches it is
  durable;
* **uncommitted** transaction lines that land in the LLC are *pinned* —
  they may not be evicted to memory (that would expose partial
  transactions) nor dropped (the LLC is their only durable copy).  This
  is the capacity pressure behind the paper's Fig. 8 (≈6 % higher LLC
  miss rate);
* at commit, the transaction's dirty lines are **flushed from L1/L2
  into the NV-LLC**, and the hierarchy is blocked while the flush
  drains — "blocks subsequent cache and memory requests during
  transaction commits and results in bursts of traffic" (paper §5.2).
  This is the source of Kiln's IPC/throughput gap (Fig. 6/7) and its
  ~2.4x persistent load latency (Fig. 10);
* committed lines are clean-on-commit from the transaction's point of
  view: they unpin and flow to the NVM only through normal LLC
  evictions (hence Kiln's NVM write traffic sits *below* the TC's in
  Fig. 9 — commits coalesce in the LLC).

Durability model: the NV-LLC guarantees that once a transaction's
commit flush completes, its writes survive a crash.  Recovery discards
pinned (uncommitted) lines and replays the committed ones in commit
order.  We track the committed-version map at the scheme level; the
mechanism (flush + pin) is simulated cycle-by-cycle.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..common.types import SchemeName, Version, line_addr
from ..obs.tracer import NULL_TRACER
from .base import PersistenceScheme, Resume, StoreIssue, StoreRetire
from .recovery import replay


class KilnScheme(PersistenceScheme):
    """Nonvolatile-LLC persistence (flush-on-commit, pin-uncommitted)."""

    name = SchemeName.KILN

    #: NV-LLC access-latency penalty vs the SRAM LLC it replaces
    #: (STT-RAM reads are slower; see paper §2.2 / [17]).
    NV_LLC_LATENCY_FACTOR = 1.5

    def __init__(self, sim, config, stats, hierarchy, memory,
                 tracer=NULL_TRACER) -> None:
        super().__init__(sim, config, stats, hierarchy, memory, tracer)
        # the LLC is now STT-RAM: every access through it is slower
        hierarchy.llc.latency = int(round(
            hierarchy.llc.latency * self.NV_LLC_LATENCY_FACTOR))
        #: lines written by each still-open transaction; its keys are
        #: the transactions whose dirty persistent LLC arrivals the
        #: hierarchy pins (data, not a bound method of this scheme, so
        #: the hierarchy holds no reference back to it)
        self._open_tx_lines: Dict[int, Set[int]] = {}
        hierarchy.llc_pinned_txs = self._open_tx_lines
        #: program-order versions written by each open transaction
        self._open_tx_versions: Dict[int, Dict[int, Version]] = {}
        #: per-transaction committed line versions (NV-LLC durability)
        self._tx_committed_writes: Dict[int, Dict[int, Version]] = {}
        #: commit order (tx -> position), the recovery replay order;
        #: ``commit_cycle`` holds when each commit flush completes
        self._commit_order: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def store(self, core, op, on_issue: StoreIssue,
              on_retire: StoreRetire) -> None:
        in_tx_persistent = core.mode_tx is not None and op.persistent
        self.hierarchy.store(
            core.core_id, op.addr, op.version,
            persistent=in_tx_persistent, tx_id=op.tx_id,
            on_complete=on_retire,
        )
        if in_tx_persistent:
            line = line_addr(op.addr)
            self._open_tx_lines.setdefault(core.mode_tx, set()).add(line)
            if op.version is not None:
                self._open_tx_versions.setdefault(
                    core.mode_tx, {})[line] = op.version
            # Uncommitted blocks already resident in the NV-LLC must not
            # be replaced (paper §5.2) — pin them where they stand; the
            # hierarchy pins any that arrive later (llc_pinned_txs).
            entry = self.hierarchy.llc.probe(line)
            if entry is not None:
                entry.pinned = True
                entry.tx_id = core.mode_tx
        on_issue(1)

    def tx_begin(self, core, op, resume: Resume) -> None:
        self._open_tx_lines.setdefault(op.tx_id, set())
        resume()

    def tx_end(self, core, op, resume: Resume) -> None:
        """Commit: flush the transaction's lines from L1/L2 into the
        NV-LLC, blocking the hierarchy for the duration."""
        tx_id = op.tx_id
        lines = sorted(self._open_tx_lines.pop(tx_id, set()))
        flush_cycles = 0
        for line in lines:
            flush_cycles += self.hierarchy.flush_to_llc(core.core_id, line)
            self.hierarchy.unpin_llc_line(line)
        done = self.sim.now + flush_cycles
        if lines:
            self.hierarchy.block_until(done)
            self.stats.inc("commit_flush_lines", len(lines))
            self.stats.inc("commit_flush_cycles", flush_cycles)
        self.commit_cycle[tx_id] = done
        self._commit_order[tx_id] = len(self._commit_order)
        # record the now-durable versions (they are in the NV-LLC);
        # taken from the program-order store record so a commit racing
        # an outstanding store-miss fill still captures the right data
        self._tx_committed_writes[tx_id] = \
            self._open_tx_versions.pop(tx_id, {})

        if flush_cycles:
            # the committing core waits out the flush: charge it to
            # "flush", not the generic tx_end default of "commit"
            core.attribute_stall("flush")
            if self.tracer.enabled:
                self.tracer.complete("scheme", "kiln", "commit.flush",
                                     self.sim.now, flush_cycles,
                                     tx=tx_id, lines=len(lines))
            self.sim.schedule(flush_cycles, resume)
        else:
            resume()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def durable_lines(self, crash_cycle: int,
                      committed: Optional[set] = None,
                      ) -> Dict[int, Optional[Version]]:
        """NV-LLC recovery: the NVM image plus every committed line
        still resident (durably) in the nonvolatile LLC, replayed in
        commit order; pinned (uncommitted) lines are discarded."""
        if committed is None:
            committed = self.durably_committed(crash_cycle)
        plan = [(tx, self._tx_committed_writes[tx])
                for tx in self._commit_order if tx in committed]
        return replay(self.home_image_at(crash_cycle), plan,
                      self._commit_order)
