"""MESI directory coherence for the multicore hierarchy.

The paper's four-core machine keeps private L1/L2 caches coherent
through the shared LLC.  This module is the protocol brain: a
directory tracking, per line, which cores hold it and in which MESI
state, deciding on every access what must happen — who supplies the
data, who gets invalidated, who downgrades — and enforcing the MESI
invariants (at most one M or E owner; an M/E owner excludes everyone
else).

The timed hierarchy consults the directory on loads and stores (the
data-path consequences — snooping dirty data into the LLC,
invalidating remote copies — are applied by
:class:`~repro.cache.hierarchy.CacheHierarchy`); the protocol itself is
unit- and property-tested standalone against the invariants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..common.stats import ScopedStats


class CoherenceState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


@dataclass
class ReadOutcome:
    """Directory decision for a read by ``requester``."""

    requester_state: CoherenceState
    #: core that must supply the line (None → fetch from LLC/memory)
    supplier: Optional[int] = None
    #: True when the supplier held the line MODIFIED (dirty data must
    #: be merged into the shared level)
    supplier_was_dirty: bool = False
    #: cores downgraded M/E → S by this read
    downgraded: List[int] = field(default_factory=list)


@dataclass
class WriteOutcome:
    """Directory decision for a write by ``requester``."""

    #: cores whose copies must be invalidated
    invalidated: List[int] = field(default_factory=list)
    #: a core that held the line MODIFIED (its data must be merged
    #: before the write overwrites it)
    dirty_owner: Optional[int] = None
    #: the requester already held the line (S→M upgrade, no fetch)
    was_upgrade: bool = False


#: Shared outcomes for the no-transition hot paths (a hit in a state
#: the access doesn't change).  Consumers only read outcomes, so the
#: empty lists inside are never mutated — one allocation for the whole
#: process instead of one per cache access.
_SILENT_WRITE = WriteOutcome(was_upgrade=True)
_FRESH_WRITE = WriteOutcome()
_SILENT_READS = {state: ReadOutcome(requester_state=state)
                 for state in CoherenceState}


class MesiDirectory:
    """Directory MESI over ``num_cores`` private cache stacks."""

    def __init__(self, num_cores: int, stats: ScopedStats) -> None:
        self.num_cores = num_cores
        self.stats = stats
        self._counts = stats.cells(
            "read.exclusive_grants", "read.dirty_supplies",
            "read.downgrades", "write.upgrades", "write.invalidations")
        # line → {core: state}; absent core ≡ INVALID
        self._lines: Dict[int, Dict[int, CoherenceState]] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def state_of(self, core: int, line: int) -> CoherenceState:
        return self._lines.get(line, {}).get(core, CoherenceState.INVALID)

    def holders(self, line: int) -> Set[int]:
        return set(self._lines.get(line, {}))

    def owner(self, line: int) -> Optional[int]:
        """The M or E holder, if any."""
        for core, state in self._lines.get(line, {}).items():
            if state in (CoherenceState.MODIFIED, CoherenceState.EXCLUSIVE):
                return core
        return None

    # ------------------------------------------------------------------
    # protocol transitions
    # ------------------------------------------------------------------
    def on_read(self, requester: int, line: int) -> ReadOutcome:
        holders = self._lines.setdefault(line, {})
        current = holders.get(requester, CoherenceState.INVALID)
        if current is not CoherenceState.INVALID:
            # silent hit: no transition
            return _SILENT_READS[current]
        if not holders:
            holders[requester] = CoherenceState.EXCLUSIVE
            self._counts.read_exclusive_grants += 1
            return ReadOutcome(requester_state=CoherenceState.EXCLUSIVE)
        outcome = ReadOutcome(requester_state=CoherenceState.SHARED)
        for core, state in list(holders.items()):
            if state is CoherenceState.MODIFIED:
                outcome.supplier = core
                outcome.supplier_was_dirty = True
                outcome.downgraded.append(core)
                holders[core] = CoherenceState.SHARED
                self._counts.read_dirty_supplies += 1
            elif state is CoherenceState.EXCLUSIVE:
                outcome.supplier = core
                outcome.downgraded.append(core)
                holders[core] = CoherenceState.SHARED
                self._counts.read_downgrades += 1
        holders[requester] = CoherenceState.SHARED
        return outcome

    def on_write(self, requester: int, line: int) -> WriteOutcome:
        holders = self._lines.setdefault(line, {})
        current = holders.get(requester, CoherenceState.INVALID)
        if current is CoherenceState.MODIFIED:
            return _SILENT_WRITE  # already exclusive-dirty: silent
        others = len(holders)
        if current is not CoherenceState.INVALID:
            others -= 1
        if not others:
            # nobody to invalidate: I/E/S(sole) → M without allocating
            holders[requester] = CoherenceState.MODIFIED
            if current is CoherenceState.INVALID:
                return _FRESH_WRITE
            if current is CoherenceState.SHARED:
                self._counts.write_upgrades += 1
            return _SILENT_WRITE
        outcome = WriteOutcome(
            was_upgrade=current is not CoherenceState.INVALID)
        for core, state in list(holders.items()):
            if core == requester:
                continue
            if state is CoherenceState.MODIFIED:
                outcome.dirty_owner = core
            outcome.invalidated.append(core)
            del holders[core]
            self._counts.write_invalidations += 1
        if current is CoherenceState.SHARED:
            self._counts.write_upgrades += 1
        holders[requester] = CoherenceState.MODIFIED
        return outcome

    def on_evict(self, core: int, line: int) -> None:
        """A core's private copies of ``line`` are gone."""
        holders = self._lines.get(line)
        if holders and core in holders:
            del holders[core]
            if not holders:
                del self._lines[line]

    def drop_line(self, line: int) -> Set[int]:
        """Back-invalidation (LLC eviction): every copy dies; returns
        the cores that held it."""
        holders = self._lines.pop(line, {})
        return set(holders)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError on any MESI invariant violation."""
        for line, holders in self._lines.items():
            exclusive = [core for core, state in holders.items()
                         if state in (CoherenceState.MODIFIED,
                                      CoherenceState.EXCLUSIVE)]
            assert len(exclusive) <= 1, (
                f"line {line:#x}: multiple M/E owners {exclusive}")
            if exclusive:
                assert len(holders) == 1, (
                    f"line {line:#x}: M/E owner coexists with sharers "
                    f"{set(holders)}")
            for core, state in holders.items():
                assert state is not CoherenceState.INVALID, (
                    f"line {line:#x}: INVALID entry for core {core}")
