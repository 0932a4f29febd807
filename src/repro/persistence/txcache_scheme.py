"""The paper's scheme: persistence via the transaction-cache accelerator.

Wiring (paper §3, "Persistent Memory Accelerator Working Flow"):

* In transaction mode, every persistent store goes to **both** the L1
  (tagged with the P/V flag, so the hierarchy can later drop it) and
  the core's transaction cache — non-blocking, unless the TC is full,
  in which case the CPU stalls until an NVM acknowledgment frees room.
* ``TX_END`` sends a commit request to the TC; the core continues
  immediately (commit work happens on the side data path).
* Dirty persistent LLC victims are **dropped** — the NVM only ever
  receives the consistent, ordered stream issued by the TC.
* LLC misses on persistent lines probe the TCs for the newest version.
* A transaction that would overflow the TC (≥ 90 % occupancy) falls
  back to hardware-controlled copy-on-write
  (:mod:`repro.core.overflow`).

Recovery: committed-but-unacked entries in the (nonvolatile) TCs are
replayed onto the NVM image; active entries are discarded; fallback
transactions apply iff their commit record is durable.  Both come from
one :meth:`TxCacheScheme.tc_replay_plan`, which the untimed model
(:meth:`TxCacheScheme.durable_lines`) and the timed procedure
(:func:`repro.core.recovery.simulate_recovery`) apply alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..cache.hierarchy import LlcProbe
from ..common.types import SchemeName, Version
from ..core.accelerator import PersistentMemoryAccelerator
from ..core.overflow import OverflowManager
from ..obs.tracer import NULL_TRACER
from .base import PersistenceScheme, Resume, StoreIssue, StoreRetire
from .recovery import PlanItem, replay


class TxCacheScheme(PersistenceScheme):
    """Persistent memory accelerator (the paper's 'TC' mechanism)."""

    name = SchemeName.TXCACHE

    def __init__(self, sim, config, stats, hierarchy, memory,
                 tracer=NULL_TRACER) -> None:
        super().__init__(sim, config, stats, hierarchy, memory, tracer)
        self.accelerator = PersistentMemoryAccelerator(
            sim, config, stats, memory, tracer=tracer)
        self.overflow = OverflowManager(sim, memory, stats.scoped("tc.overflow"))
        self._diversion = _Diversion(sim, self.stats, tracer,
                                     self.accelerator.tcs, self.overflow)
        self.accelerator.uncorrectable_handler = \
            self._diversion.on_uncorrectable
        hierarchy.drop_persistent_evictions = True
        hierarchy.llc_probe = _llc_probe(self.accelerator, self.overflow)
        # commit_cycle holds each transaction's commit-request arrival
        # (the durability point: the TC array is nonvolatile), or for a
        # fall-back transaction the cycle its commit record was durable

    # ------------------------------------------------------------------
    # execution hooks
    # ------------------------------------------------------------------
    def store(self, core, op, on_issue: StoreIssue,
              on_retire: StoreRetire) -> None:
        in_tx_persistent = core.mode_tx is not None and op.persistent
        # The L1 write happens in every mode; only transaction-mode
        # persistent stores carry the P/V flag (paper §4.2).
        self.hierarchy.store(
            core.core_id, op.addr, op.version,
            persistent=in_tx_persistent, tx_id=op.tx_id,
            on_complete=on_retire,
        )
        if not in_tx_persistent:
            on_issue(1)
            return
        tx_id = core.mode_tx
        if self.overflow.active_fallback_for(core.core_id) == tx_id:
            self.overflow.write(core.core_id, tx_id, op.addr, op.version)
            on_issue(1)
            return
        if self._should_fall_back(core.core_id, tx_id):
            self._diversion.divert(core.core_id, tx_id)
            self.overflow.write(core.core_id, tx_id, op.addr, op.version)
            on_issue(1)
            return
        self._tc_write(core, tx_id, op, on_issue)

    def _should_fall_back(self, core_id: int, tx_id: int) -> bool:
        """Fall back to copy-on-write only for the case the paper built
        it for: a *transaction* about to exceed the TC capacity (§4.1).
        Occupancy from committed entries awaiting acknowledgments is
        ordinary back-pressure and is handled by stalling instead.

        Graceful degradation (fault injection): a TC whose observed
        ECC error rate crossed the configured threshold is no longer
        trusted — every new transaction runs on the COW path."""
        if self.accelerator.degraded(core_id):
            self.stats.inc("degraded_fallbacks")
            return True
        if not self.accelerator.near_overflow(core_id):
            return False
        tc = self.accelerator.tcs[core_id]
        return tc.count_active(tx_id) >= tc.capacity // 4

    def _tc_write(self, core, tx_id: int, op, on_issue: StoreIssue) -> None:
        accepted = self.accelerator.cpu_write(
            core.core_id, tx_id, op.addr, op.version)
        if accepted:
            on_issue(1)
            return

        if not self.accelerator.tcs[core.core_id].is_full():
            # Rejected with free capacity: an *associativity* overflow
            # (only possible with the set-associative organization —
            # paper §4.1: the CAM FIFO "is not susceptible" to these).
            # Waiting could deadlock if the blocking entries belong to
            # this very transaction, so fall back to copy-on-write now.
            self.stats.inc("assoc_overflow_fallbacks")
            self._diversion.divert(core.core_id, tx_id)
            self.overflow.write(core.core_id, tx_id, op.addr, op.version)
            on_issue(1)
            return

        # TC full: the CPU stalls until an acknowledgment frees an entry.
        def retry() -> None:
            if self.overflow.is_fallback(tx_id):
                # Demoted while stalled (e.g. an uncorrectable ECC
                # error on one of its entries): continue on COW.
                self.overflow.write(core.core_id, tx_id, op.addr, op.version)
                on_issue(1)
                return
            if self._should_fall_back(core.core_id, tx_id):
                self._diversion.divert(core.core_id, tx_id)
                self.overflow.write(core.core_id, tx_id, op.addr, op.version)
                on_issue(1)
                return
            self._tc_write(core, tx_id, op, on_issue)

        self.stats.inc("tc_full_stalls")
        # the store's issue is now delayed by TC back-pressure: charge
        # the stalled cycles to "tc_full", not the generic store default
        core.attribute_stall("tc_full")
        if self.tracer.enabled:
            self.tracer.instant("scheme", "txcache", "tc.full_stall",
                                self.sim.now, core=core.core_id, tx=tx_id)
        self.accelerator.wait_for_space(core.core_id, retry)

    def tx_end(self, core, op, resume: Resume) -> None:
        tx_id = op.tx_id
        if self.overflow.is_fallback(tx_id):
            # the core waits for the COW commit record to be durable in
            # the NVM — an acknowledgment wait, not a commit flush
            core.attribute_stall("ack_wait")
            if self.tracer.enabled:
                start = self.sim.now

                def committed() -> None:
                    self.tracer.complete("scheme", "txcache", "cow.commit",
                                         start, self.sim.now - start,
                                         tx=tx_id)
                    self.commit_cycle[tx_id] = self.sim.now
                    resume()
            else:
                def committed() -> None:
                    self.commit_cycle[tx_id] = self.sim.now
                    resume()

            self.overflow.commit(core.core_id, tx_id, committed)
            return
        self.accelerator.cpu_commit(core.core_id, tx_id)
        if self.tracer.enabled:
            self.tracer.instant("scheme", "txcache", "commit.msg",
                                self.sim.now, core=core.core_id, tx=tx_id)
        self.commit_cycle[tx_id] = self.sim.now
        resume()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def busy(self) -> bool:
        return self.accelerator.busy() or self.overflow.busy()

    def tc_replay_plan(self, crash_cycle: int) -> List[PlanItem]:
        """What recovery writes home after a crash at ``crash_cycle``:
        the committed-but-unacked entries of every (nonvolatile) TC and
        the fall-back transactions whose commit record was durable,
        one write set per transaction, in commit order."""
        plan: List[PlanItem] = []
        for tc in self.accelerator.tcs:
            by_tx: Dict[int, Dict[int, Optional[Version]]] = {}
            for entry in tc.committed_unacked():
                by_tx.setdefault(entry.tx_id, {})[entry.tag] = entry.version
            plan.extend(by_tx.items())
        plan.extend((state.tx_id, state.writes)
                    for state in self.overflow.committed_at(crash_cycle))
        plan.sort(key=lambda item: self.commit_cycle[item[0]])
        return plan

    def durable_lines(self, crash_cycle: int,
                      committed: Optional[set] = None,
                      ) -> Dict[int, Optional[Version]]:
        """Recovery output after a crash at ``crash_cycle``.

        The simulation must be paused at (or after all activity up to)
        the crash cycle: the NVM image is replayed from its timeline,
        while the nonvolatile TC contents are read in place.  Replay
        ranks by commit cycle, so a line a *later*-committed
        transaction already put in place keeps it (a fall-back
        transaction's pending home copies can be older than a
        subsequent TC write to the line)."""
        return replay(self.home_image_at(crash_cycle),
                      self.tc_replay_plan(crash_cycle), self.commit_cycle)


def _llc_probe(accelerator: PersistentMemoryAccelerator,
               overflow: OverflowManager) -> LlcProbe:
    """The hierarchy's LLC-miss probe: the newest version of a line in
    any TC, else in the copy-on-write shadow region.

    A closure over the accelerator and the overflow manager, not a
    bound method of the scheme: the scheme holds the hierarchy, so a
    hook that held the scheme would make a reference cycle."""
    tc_probe = accelerator.llc_probe
    fallback = overflow.fallback

    def probe(line: int) -> Optional[Tuple[int, Optional[Version]]]:
        hit = tc_probe(line)
        if hit is not None:
            return hit
        # Copy-on-write path: data diverted to the shadow region is not
        # in any TC; serve the newest shadow value so the program always
        # observes its own writes.
        newest: Optional[Version] = None
        for state in fallback.values():
            version = state.writes.get(line)
            if version is not None and (newest is None or
                                        (version.seq, version.tx_id or 0)
                                        > (newest.seq, newest.tx_id or 0)):
                newest = version
        if newest is not None:
            return accelerator.latency, newest
        return None

    return probe


class _Diversion:
    """Demotes a running transaction from its TC to the copy-on-write
    fall-back path.

    Apart from the scheme because the accelerator calls back into it
    (:meth:`on_uncorrectable` is its ``uncorrectable_handler``): it
    holds the TCs and the overflow manager, never the accelerator or
    the scheme, so that hook closes no reference cycle."""

    __slots__ = ("sim", "stats", "tracer", "tcs", "overflow")

    def __init__(self, sim, stats, tracer, tcs, overflow) -> None:
        self.sim = sim
        self.stats = stats
        self.tracer = tracer
        self.tcs = tcs
        self.overflow = overflow

    def divert(self, core_id: int, tx_id: int) -> None:
        """Demote the running transaction to the COW fall-back path."""
        dropped = self.tcs[core_id].drop_transaction(tx_id)
        if self.tracer.enabled:
            self.tracer.instant("scheme", "txcache", "cow.divert",
                                self.sim.now, core=core_id, tx=tx_id,
                                dropped=len(dropped))
        self.overflow.divert(
            core_id, tx_id, [(e.tag, e.version) for e in dropped])

    def on_uncorrectable(self, core_id: int, entry) -> None:
        """An *active* TC entry read back with an uncorrectable double
        bit error: demote its transaction to the COW path (its write
        data is reconstructed from the P/V-flagged cache copies that
        every transactional store also updated) instead of failing."""
        tx_id = entry.tx_id
        if self.overflow.is_fallback(tx_id):
            return
        self.stats.inc("ecc_fallbacks")
        self.divert(core_id, tx_id)
