"""Cache line metadata and the set-associative storage array.

Every line carries the persistent/volatile (P/V) flag the paper adds to
the existing hierarchy (Fig. 5), the transaction id of the writer, and
a logical :class:`~repro.common.types.Version` payload used by the
functional data path and the crash-consistency checker.  Lines can be
*pinned* — the Kiln baseline pins uncommitted transaction lines in the
nonvolatile LLC so they cannot be evicted, which is the mechanism
behind the elevated LLC miss rate in the paper's Fig. 8.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.types import Version


class CacheLine:
    """Metadata of one resident cache line.

    ``__slots__`` rather than a dataclass: every cache lookup on a hit
    touches a line's fields, and sweeps over resident lines (flushes,
    recovery scans) touch all of them."""

    __slots__ = ("tag", "dirty", "persistent", "pinned", "tx_id",
                 "version", "last_use")

    def __init__(self, tag: int, dirty: bool = False,
                 persistent: bool = False, pinned: bool = False,
                 tx_id: Optional[int] = None,
                 version: Optional[Version] = None,
                 last_use: int = 0) -> None:
        self.tag = tag                   # full line address
        self.dirty = dirty
        self.persistent = persistent     # the paper's P/V flag
        self.pinned = pinned             # Kiln: uncommitted, not evictable
        self.tx_id = tx_id
        self.version = version
        self.last_use = last_use

    def __repr__(self) -> str:
        return (f"CacheLine(tag={self.tag:#x}, dirty={self.dirty}, "
                f"persistent={self.persistent}, pinned={self.pinned}, "
                f"tx_id={self.tx_id}, version={self.version})")


class EvictionImpossible(Exception):
    """Raised when every way in a set is pinned (Kiln overflow case)."""


class CacheArray:
    """Set-associative array with true-LRU replacement.

    Replacement ignores pinned lines; when a set is entirely pinned
    :meth:`fill` raises :class:`EvictionImpossible` and the caller
    decides on a bypass policy.  Lookups, LRU touches and invalidation
    go through :class:`~repro.cache.level.CacheLevel`, which indexes
    the sets directly.
    """

    __slots__ = ("num_sets", "assoc", "line_size", "_sets", "_use_clock")

    def __init__(self, num_sets: int, assoc: int, line_size: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_size = line_size
        self._sets: List[Dict[int, CacheLine]] = [{} for _ in range(num_sets)]
        self._use_clock = 0

    def fill(self, line: int, dirty: bool, persistent: bool, pinned: bool,
             tx_id: Optional[int], version: Optional[Version],
             cache_set: Optional[Dict[int, CacheLine]] = None,
             ) -> Optional[CacheLine]:
        """Insert a line known to be absent (the caller just looked it
        up), evicting the set's least recently used unpinned line when
        the set is full.  ``cache_set`` is the line's set when the
        caller's lookup already indexed it.  Returns the evicted victim
        if any."""
        if cache_set is None:
            cache_set = self._sets[(line // self.line_size) % self.num_sets]
        victim = None
        if len(cache_set) >= self.assoc:
            victim = self._select_victim(cache_set)
            del cache_set[victim.tag]
        self._use_clock += 1
        cache_set[line] = CacheLine(line, dirty, persistent, pinned,
                                    tx_id, version, self._use_clock)
        return victim

    def _select_victim(self, cache_set: Dict[int, CacheLine]) -> CacheLine:
        # manual argmin: runs on every fill into a full set, so no
        # candidate list / key-lambda allocations
        victim: Optional[CacheLine] = None
        victim_use = 0
        for entry in cache_set.values():
            if not entry.pinned and (victim is None
                                     or entry.last_use < victim_use):
                victim = entry
                victim_use = entry.last_use
        if victim is None:
            raise EvictionImpossible("all ways pinned")
        return victim
