"""One cache level: a storage array plus latency and hit/miss stats."""

from __future__ import annotations

from typing import Optional

from ..common.config import CacheLevelConfig
from ..common.stats import ScopedStats
from ..common.types import CACHE_LINE_SIZE
from .line import CacheArray, CacheLine


#: a level's hit count, derived from its access and miss cells
_HIT = (("hit", "access", "miss"),)


class CacheLevel:
    """Thin wrapper binding a :class:`CacheArray` to timing and stats."""

    __slots__ = ("name", "config", "stats", "latency", "array",
                 "_counts", "_sets", "_num_sets")

    def __init__(
        self,
        config: CacheLevelConfig,
        stats: ScopedStats,
        freq_ghz: float,
    ) -> None:
        geometry = config.geometry(freq_ghz)  # computed once per config
        self.name = config.name
        self.config = config
        self.stats = stats
        # per level, not per config: Kiln rewrites its LLC's latency
        self.latency = geometry.latency
        self.array = CacheArray(geometry.num_sets, config.assoc,
                                CACHE_LINE_SIZE)
        # every cache access records at most 2 counters: cells, not
        # registry calls; ``hit`` is derived as access - miss when the
        # stats are read
        self._counts = stats.cells("access", "miss", derived=_HIT)
        # access() is the hottest cache call: keep direct references to
        # the array internals so a timed lookup is one dict probe
        self._sets = self.array._sets
        self._num_sets = geometry.num_sets

    def access(self, line: int) -> Optional[CacheLine]:
        """Timed lookup: counts an access, and a miss on a miss.

        A hit ticks the array's LRU clock into the line's ``last_use``
        — this method runs a few times per simulated memory op.
        """
        self._counts.access += 1
        entry = self._sets[(line // CACHE_LINE_SIZE) % self._num_sets].get(line)
        if entry is None:
            self._counts.miss += 1
            return None
        array = self.array
        array._use_clock += 1
        entry.last_use = array._use_clock
        return entry

    def probe(self, line: int) -> Optional[CacheLine]:
        """Untimed lookup (no stats, no LRU update)."""
        return self._sets[(line // CACHE_LINE_SIZE) % self._num_sets].get(line)

    def invalidate(self, line: int) -> Optional[CacheLine]:
        """Remove a line; returns it (with its dirty state) if present."""
        return self._sets[(line // CACHE_LINE_SIZE) % self._num_sets].pop(
            line, None)
