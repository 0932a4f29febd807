"""The three-level cache hierarchy with the paper's scheme hooks.

Private L1 and L2 per core, shared inclusive LLC, write-back +
write-allocate everywhere, true LRU.  A lightweight directory at the
LLC keeps multicore sharing coherent (invalidate-on-write).

The point of the paper is that persistence schemes attach to this
hierarchy *differently*:

* **TXCACHE** sets :attr:`drop_persistent_evictions` (persistent dirty
  LLC victims are discarded, the NVM only ever receives TC-ordered
  data) and installs :attr:`llc_probe` so LLC misses on persistent
  lines consult the transaction cache for the newest version
  (paper §3, "Persistent Memory Accelerator Working Flow").
* **Kiln** pins uncommitted lines in the (nonvolatile) LLC through
  :attr:`llc_pinned_txs`, unpins them with :meth:`unpin_llc_line`,
  flushes on commit with :meth:`flush_to_llc`, and blocks the
  hierarchy during commit with :meth:`block_until`.
* **SP** uses :meth:`writeback_line` for ``clwb`` semantics.
* **Optimal** uses none of the hooks.

All lookups are synchronous latency arithmetic; only accesses that
reach a memory controller become events.  Callbacks may therefore fire
synchronously (cache hit) or later (memory fill) — callers must accept
both.
"""

from __future__ import annotations

from typing import Callable, Container, Dict, List, Optional, Set, Tuple

from ..common.config import MachineConfig
from ..common.event import Simulator
from ..common.stats import Stats
from ..common.types import (
    CACHE_LINE_SIZE,
    LINE_MASK,
    NVM_BASE,
    Version,
    is_persistent_addr,
    line_addr,
)
from ..memory.system import MemorySystem
from ..obs.tracer import NULL_TRACER, NullTracer
from .coherence import CoherenceState, MesiDirectory
from .level import CacheLevel
from .line import CacheLine, EvictionImpossible

#: ``llc_probe(line) -> (extra_latency, version)`` or None on probe miss.
LlcProbe = Callable[[int], Optional[Tuple[int, Optional[Version]]]]

LoadCallback = Callable[[int, Optional[Version]], None]
StoreCallback = Callable[[int], None]

#: the directory entry of a line no core holds (read-only)
_NO_HOLDERS: Dict[int, CoherenceState] = {}
_MODIFIED = CoherenceState.MODIFIED

#: One access waiting on a memory fill, a plain tuple: ``(core_id,
#: start_cycle, is_store, persistent, tx_id, store_version, on_load,
#: on_store)``.
_MissWaiter = Tuple[int, int, bool, bool, Optional[int], Optional[Version],
                    Optional[LoadCallback], Optional[StoreCallback]]


class CacheHierarchy:
    """L1/L2 per core + shared LLC, with persistence-scheme hooks."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        stats: Stats,
        memory: MemorySystem,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.config = config
        self.memory = memory
        self.tracer = tracer
        self.num_cores = config.num_cores
        freq = config.freq_ghz
        self.l1: List[CacheLevel] = [
            CacheLevel(config.l1, stats.scoped(f"l1.{i}"), freq)
            for i in range(self.num_cores)
        ]
        self.l2: List[CacheLevel] = [
            CacheLevel(config.l2, stats.scoped(f"l2.{i}"), freq)
            for i in range(self.num_cores)
        ]
        self.llc = CacheLevel(config.llc, stats.scoped("llc"), freq)
        self.stats = stats.scoped("hierarchy")
        # statistics recorded per access or per miss are cells
        self._counts = self.stats.cells(
            "mshr.coalesced", "llc_probe.hit", "llc_probe.miss",
            "llc.clean_evictions", "llc.dropped_evictions",
            "llc.writebacks", "clwb.writebacks", "kiln.commit_flushes",
            "blocked_cycles")
        self._persist_llc_latency = self.stats.tally(
            "persist_llc_load.latency", histogram=True)
        #: memory request source tag of each core's LLC-miss fill
        self._fill_sources = tuple(f"fill.core{i}"
                                   for i in range(self.num_cores))
        # scheme hooks ---------------------------------------------------
        self.drop_persistent_evictions = False
        self.llc_probe: Optional[LlcProbe] = None
        #: Kiln: the transactions whose dirty persistent lines are
        #: pinned when they land in the LLC (uncommitted data must stay)
        self.llc_pinned_txs: Optional[Container[int]] = None
        self._blocked_until = 0
        # MESI directory over the private cache stacks
        self.coherence = MesiDirectory(self.num_cores,
                                       stats.scoped("coherence"))
        #: the directory's line -> {core: state} map, read by the store
        #: path to skip lines the storing core already holds MODIFIED
        self._holders = self.coherence._lines
        # MSHR-style coalescing of outstanding memory fills
        self._pending: Dict[int, List[_MissWaiter]] = {}
        # newer TC data to merge over in-flight fills (line → version)
        self._probe_override: Dict[int, Optional[Version]] = {}
        # program-order architectural version per stored line (updated
        # synchronously at store issue; authoritative for clwb)
        self._arch_version: Dict[int, Optional[Version]] = {}

    # ------------------------------------------------------------------
    # public access path
    # ------------------------------------------------------------------
    def load(self, core_id: int, addr: int, on_complete: LoadCallback) -> None:
        """Load one line for ``core_id``; ``on_complete(latency, version)``."""
        line = addr & LINE_MASK
        l1 = self.l1[core_id]
        latency = l1.latency
        entry = l1.access(line)
        if entry is not None:
            on_complete(latency, entry.version)
            return
        start = self.sim.now
        outcome = self.coherence.on_read(core_id, line)
        if outcome.supplier_was_dirty:
            # another core owns the line MODIFIED: snoop its data into
            # the shared level before this read proceeds
            self._snoop_dirty(outcome.supplier, line)
        l2 = self.l2[core_id]
        latency += l2.latency
        entry = l2.access(line)
        if entry is not None:
            self._fill_private(l1, l2, line, entry.version, False,
                               entry.persistent, entry.tx_id)
            on_complete(latency, entry.version)
            return
        # the shared LLC honours commit blocking (Kiln)
        if self._blocked_until > start:
            latency += self._block_wait()
        latency += self.llc.latency
        entry = self.llc.access(line)
        persistent = line >= NVM_BASE
        if entry is not None:
            version = entry.version
            self._fill_private(l2, None, line, version, False,
                               entry.persistent, entry.tx_id)
            self._fill_private(l1, l2, line, version, False,
                               entry.persistent, entry.tx_id)
            if persistent:
                # Fig. 10 metric: persistent loads served at/below the LLC
                self._persist_llc_latency[latency] += 1
            on_complete(latency, version)
            return
        # a persistent load's fill latency is sampled by _fill
        self._llc_miss(core_id, line, start, latency, False, persistent,
                       None, None, on_complete, None)

    def store(
        self,
        core_id: int,
        addr: int,
        version: Optional[Version],
        persistent: bool = False,
        tx_id: Optional[int] = None,
        on_complete: Optional[StoreCallback] = None,
    ) -> None:
        """Store one line (write-allocate, write-back).

        ``on_complete(latency)`` fires when the line is written in L1 —
        after a fill if the store missed.  The architectural version is
        installed immediately so program order is preserved for any
        probe that observes the hierarchy."""
        line = addr & LINE_MASK
        self._arch_version[line] = version
        # MESI: take exclusive ownership up front (covers the miss path
        # too — the fill below installs into an already-owned line).  A
        # core that already holds the line MODIFIED skips the directory:
        # on_write makes no transition and records nothing for it.
        if self._holders.get(line, _NO_HOLDERS).get(core_id) is not _MODIFIED:
            self._invalidate_other_sharers(core_id, line)
        l1 = self.l1[core_id]
        latency = l1.latency
        entry = l1.access(line)
        if entry is not None:
            entry.dirty = True
            entry.version = version
            entry.persistent = persistent or entry.persistent
            entry.tx_id = tx_id
            if on_complete is not None:
                on_complete(latency)
            return
        start = self.sim.now
        l2 = self.l2[core_id]
        latency += l2.latency
        entry = l2.access(line)
        if entry is not None:
            self._fill_private(l1, l2, line, version, True, persistent,
                               tx_id)
            # L2 copy becomes stale; drop it so write-back comes from L1.
            l2.invalidate(line)
            self._fill_private(l2, None, line, version, False, persistent,
                               tx_id)
            if on_complete is not None:
                on_complete(latency)
            return
        if self._blocked_until > start:
            latency += self._block_wait()
        latency += self.llc.latency
        entry = self.llc.access(line)
        if entry is not None:
            self._fill_private(l2, None, line, entry.version, False,
                               persistent, tx_id)
            self._fill_private(l1, l2, line, version, True, persistent,
                               tx_id)
            if on_complete is not None:
                on_complete(latency)
            return
        self._llc_miss(core_id, line, start, latency, True, persistent,
                       tx_id, version, None, on_complete)

    # ------------------------------------------------------------------
    # LLC miss handling (memory fill + TC probe)
    # ------------------------------------------------------------------
    def _llc_miss(self, core_id, line, start, latency, is_store,
                  persistent, tx_id, store_version, on_load,
                  on_store) -> None:
        if self.tracer.enabled:
            self.tracer.instant("cache", "llc", "miss", self.sim.now,
                                line=line, core=core_id,
                                store=int(is_store))
        if self.llc_probe is not None and line >= NVM_BASE:
            # Paper §3: the LLC issues the miss toward *both* the NVM and
            # the transaction cache.  The TC buffers the written words of
            # the line, so its (newer) data is merged over the NVM line
            # when the memory fill returns — the TC supplies freshness,
            # not a faster fill.
            probed = self.llc_probe(line)
            if probed is not None:
                self._counts.llc_probe_hit += 1
                _probe_latency, version = probed
                self._probe_override[line] = version
            else:
                self._counts.llc_probe_miss += 1
        waiter = (core_id, start, is_store, persistent, tx_id,
                  store_version, on_load, on_store)
        waiters = self._pending.get(line)
        if waiters is not None:
            waiters.append(waiter)
            self._counts.mshr_coalesced += 1
            return
        self._pending[line] = [waiter]
        # the miss leaves the chip only after the L1/L2/LLC lookups
        # (and any commit-block wait) have elapsed
        self.sim.schedule_at(self.sim.now + latency, self.memory.read, line,
                             self._fill, self._fill_sources[core_id])

    def _fill(self, line: int, version: Optional[Version],
              _cycle: int) -> None:
        """The memory read of ``line`` returned: install it for every
        waiter in arrival order (inclusive: LLC, L2, L1), applying each
        waiting store over the data the waiters before it saw."""
        now = self.sim.now
        if line in self._probe_override:
            # merge the transaction cache's newer data over the NVM line
            version = self._probe_override.pop(line)
        current = version  # newest data as waiters apply in order
        for (core_id, start, is_store, persistent, tx_id, store_version,
             on_load, on_store) in self._pending.pop(line, ()):
            l1 = self.l1[core_id]
            l2 = self.l2[core_id]
            self._insert_llc(line, current, False, persistent, tx_id)
            self._fill_private(l2, None, line, current, False, persistent,
                               tx_id)
            self._fill_private(l1, l2, line, current, False, persistent,
                               tx_id)
            latency = now - start
            if is_store:
                entry = l1.probe(line)
                if entry is None:
                    # pathological: L1 victimized by a same-set fill
                    self._fill_private(l1, l2, line, store_version, True,
                                       persistent, tx_id)
                else:
                    entry.dirty = True
                    entry.version = store_version
                    entry.persistent = persistent or entry.persistent
                    entry.tx_id = tx_id
                current = store_version
                if on_store is not None:
                    on_store(latency)
            elif on_load is not None:
                if persistent:
                    # Fig. 10 metric: a persistent load's fill latency
                    self._persist_llc_latency[latency] += 1
                on_load(latency, current)

    # ------------------------------------------------------------------
    # fills and evictions (inclusive hierarchy)
    # ------------------------------------------------------------------
    def _fill_private(self, level: CacheLevel, below: Optional[CacheLevel],
                      line, version, dirty, persistent, tx_id) -> None:
        """Install a line into a private level without ever downgrading
        a resident copy: a fill must not clear the dirty bit or clobber
        newer store data already applied by an earlier MSHR waiter.

        A dirty victim moves down a level: into ``below`` (the core's
        L2, when filling its L1) or, when ``below`` is None (filling
        the L2), into the LLC.  The set is indexed once for the lookup
        and the insert; the LRU clock ticks as ``CacheArray.lookup``
        and ``CacheArray.fill`` tick it."""
        array = level.array
        cache_set = level._sets[(line // CACHE_LINE_SIZE) % level._num_sets]
        existing = cache_set.get(line)
        if existing is not None:
            array._use_clock += 1
            existing.last_use = array._use_clock
            existing.persistent = existing.persistent or persistent
            if dirty:
                existing.dirty = True
                existing.version = version
                existing.tx_id = tx_id
            return
        victim = array.fill(line, dirty, persistent, False, tx_id, version,
                            cache_set)
        if victim is not None and victim.dirty:
            if below is not None:
                self._fill_private(below, None, victim.tag, victim.version,
                                   True, victim.persistent, victim.tx_id)
            else:
                self._insert_llc(victim.tag, victim.version, True,
                                 victim.persistent, victim.tx_id)

    def _insert_llc(self, line, version, dirty=False,
                    persistent=False, tx_id=None) -> None:
        pinned = False
        if (dirty and persistent and self.llc_pinned_txs is not None
                and tx_id in self.llc_pinned_txs):
            pinned = True
        # index the set once for the untimed probe and the fill, as
        # _fill_private does (no LRU touch on the probe)
        llc = self.llc
        cache_set = llc._sets[(line // CACHE_LINE_SIZE) % llc._num_sets]
        existing = cache_set.get(line)
        if existing is not None:
            if dirty:
                existing.version = version
                existing.dirty = True
            elif not existing.dirty:
                # never let a clean (possibly stale) fill clobber dirty data
                existing.version = version
            existing.persistent = existing.persistent or persistent
            existing.tx_id = tx_id if tx_id is not None else existing.tx_id
            existing.pinned = existing.pinned or pinned
            return
        try:
            victim = llc.array.fill(line, dirty, persistent, pinned,
                                    tx_id, version, cache_set)
        except EvictionImpossible:
            # Kiln pathology: the whole set is pinned.  Bypass the LLC.
            self.stats.inc("llc.bypass")
            if dirty:
                self.memory.write(line, version, source="llc.bypass")
            return
        if victim is not None:
            self._evict_from_llc(victim)

    def _evict_from_llc(self, victim: CacheLine) -> None:
        """Inclusive back-invalidation + write-back (or drop) of a victim."""
        line = victim.tag
        newest = victim.version
        dirty = victim.dirty
        for core_id in self.coherence.drop_line(line):
            upper = self.l1[core_id].invalidate(line)
            if upper is not None and upper.dirty:
                newest, dirty = upper.version, True
                victim.persistent = victim.persistent or upper.persistent
            upper2 = self.l2[core_id].invalidate(line)
            if upper2 is not None and upper2.dirty:
                if upper is None or not upper.dirty:
                    newest = upper2.version
                dirty = True
                victim.persistent = victim.persistent or upper2.persistent
        if not dirty:
            self._counts.llc_clean_evictions += 1
            return
        if victim.persistent and self.drop_persistent_evictions:
            # Paper §3: persistent LLC victims are discarded; the NVM only
            # ever receives the consistent data issued by the TC.
            self._counts.llc_dropped_evictions += 1
            if self.tracer.enabled:
                self.tracer.instant("cache", "llc", "eviction.dropped",
                                    self.sim.now, line=line)
            return
        self._counts.llc_writebacks += 1
        if self.tracer.enabled:
            self.tracer.instant("cache", "llc", "writeback",
                                self.sim.now, line=line)
        self.memory.write(line, newest, source="llc.writeback")

    # ------------------------------------------------------------------
    # coherence (MESI directory consequences on the data path)
    # ------------------------------------------------------------------
    def _snoop_dirty(self, owner: int, line: int) -> None:
        """Pull a remote MODIFIED line's data into the shared LLC; the
        owner's copies stay resident but clean (M → S)."""
        for level in (self.l1[owner], self.l2[owner]):
            remote = level.probe(line)
            if remote is not None and remote.dirty:
                remote.dirty = False
                self._insert_llc(line, remote.version, dirty=True,
                                 persistent=remote.persistent,
                                 tx_id=remote.tx_id)
                self.stats.inc("coherence.snoops")
                return
        # the dirty copy already drained into the LLC via eviction

    def _invalidate_other_sharers(self, core_id: int, line: int) -> None:
        """Write by ``core_id``: take exclusive ownership, invalidating
        every other holder (dirty remote data merges into the LLC)."""
        outcome = self.coherence.on_write(core_id, line)
        for other in outcome.invalidated:
            for level in (self.l1[other], self.l2[other]):
                dropped = level.invalidate(line)
                if dropped is not None and dropped.dirty:
                    self._insert_llc(line, dropped.version, dirty=True,
                                     persistent=dropped.persistent,
                                     tx_id=dropped.tx_id)
            self.stats.inc("coherence.invalidations")

    # ------------------------------------------------------------------
    # scheme hooks
    # ------------------------------------------------------------------
    def _block_wait(self) -> int:
        """Cycles left of a commit block (Kiln), counted as blocked;
        the access paths call it only while a block is in force."""
        wait = self._blocked_until - self.sim.now
        self._counts.blocked_cycles += wait
        return wait

    def block_until(self, cycle: int) -> None:
        """Kiln: stall all subsequent hierarchy accesses until ``cycle``."""
        if self.tracer.enabled and cycle > self.sim.now:
            self.tracer.complete("cache", "llc", "blocked", self.sim.now,
                                 cycle - self.sim.now)
        self._blocked_until = max(self._blocked_until, cycle)

    @property
    def blocked_until(self) -> int:
        return self._blocked_until

    def arch_version(self, line: int) -> Optional[Version]:
        """Version of the last store issued to ``line`` in program
        order (None if it was never stored to).  Set synchronously at
        store issue, before the store reaches any cache array."""
        return self._arch_version.get(line)

    def newest_version(self, core_id: int, line: int) -> Optional[Version]:
        """Architecturally newest version, searching L1→L2→LLC→memory."""
        line = line_addr(line)
        for level in (self.l1[core_id], self.l2[core_id], self.llc):
            entry = level.probe(line)
            if entry is not None:
                return entry.version
        return self.memory.peek(line)

    def writeback_line(
        self,
        core_id: int,
        addr: int,
        on_complete: Callable[[int], None],
    ) -> None:
        """``clwb`` semantics: force the architecturally newest version
        of the line back to memory (keeping it cached, now clean).

        ``on_complete(cycle)`` fires when the memory write finishes —
        this is what an ``sfence``/``pcommit`` waits on.  The version
        comes from the program-order store record, not the cache
        arrays, so a clwb racing a still-outstanding store-miss fill
        (or a line already evicted with its write-back still queued)
        still makes exactly the right data durable.  If the line was
        never stored to, the callback fires after the L1 latency."""
        line = line_addr(addr)
        newest = self._arch_version.get(line)
        for level in (self.l1[core_id], self.l2[core_id], self.llc):
            entry = level.probe(line)
            if entry is not None:
                entry.dirty = False
                # a clean copy must agree with what was made durable:
                # refresh stale lower-level copies, or a silent clean
                # eviction of the L1 copy would resurrect old data
                if newest is not None:
                    entry.version = newest
        if newest is None or (is_persistent_addr(line)
                              and self.memory.durable_now(line) == newest):
            # never stored, or the newest version is already physically
            # durable (e.g. an earlier clwb or a completed write-back)
            self.sim.schedule(self.l1[core_id].latency,
                              on_complete, self.sim.now)
            return
        self._counts.clwb_writebacks += 1
        if self.tracer.enabled:
            self.tracer.instant("cache", "llc", "clwb.writeback",
                                self.sim.now, line=line, core=core_id)
        self.memory.write(line, newest,
                          on_complete=lambda req, cycle: on_complete(cycle),
                          source="clwb")

    def flush_to_llc(self, core_id: int, addr: int) -> int:
        """Kiln commit flush: push the line's newest copy from L1/L2
        into the (nonvolatile) LLC.  Returns the charged latency."""
        line = line_addr(addr)
        newest: Optional[Version] = None
        dirty = False
        tx_id = None
        for level in (self.l1[core_id], self.l2[core_id]):
            entry = level.probe(line)
            if entry is not None and entry.dirty:
                if not dirty:
                    newest = entry.version
                    tx_id = entry.tx_id
                dirty = True
                entry.dirty = False
        if not dirty:
            return self.l1[core_id].latency
        for level in (self.l1[core_id], self.l2[core_id]):
            entry = level.probe(line)
            if entry is not None:
                # same rule as clwb: copies left cached-and-clean must
                # carry the version that was just pushed to the LLC
                entry.version = newest
                entry.tx_id = tx_id
        self._insert_llc(line, newest, dirty=True, persistent=True,
                         tx_id=tx_id)
        self._counts.kiln_commit_flushes += 1
        return self.llc.latency

    def unpin_llc_line(self, addr: int) -> None:
        entry = self.llc.probe(line_addr(addr))
        if entry is not None:
            entry.pinned = False

    def invalidate_everywhere(self, addr: int) -> None:
        """Drop every cached copy of a line (recovery helper)."""
        line = line_addr(addr)
        for core_id in range(self.num_cores):
            self.l1[core_id].invalidate(line)
            self.l2[core_id].invalidate(line)
        self.llc.invalidate(line)
        self.coherence.drop_line(line)
