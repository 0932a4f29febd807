"""Unit tests for a cache level's LRU and pinning policies, through the
calls the hierarchy makes: ``CacheLevel.access``/``probe``/
``invalidate`` and ``CacheArray.fill``."""

import pytest

from repro.cache.level import CacheLevel
from repro.cache.line import EvictionImpossible
from repro.common.config import CacheLevelConfig
from repro.common.stats import Stats
from repro.common.types import CACHE_LINE_SIZE, Version

SETS = 4
ASSOC = 2


def make_level():
    config = CacheLevelConfig("t", SETS * ASSOC * CACHE_LINE_SIZE, ASSOC,
                              1.0)
    return CacheLevel(config, Stats().scoped("t"), 1.0)


def fill(level, line, *, dirty=False, pinned=False, version=None):
    """The hierarchy's fill of a line it just missed on; returns the
    evicted victim if any."""
    assert level.probe(line) is None
    return level.array.fill(line, dirty, False, pinned, None, version)


def addr_for_set(set_index, way):
    """An address mapping to ``set_index``, distinct per ``way``."""
    return (way * SETS + set_index) * CACHE_LINE_SIZE


class TestAccessFill:
    def test_miss_then_hit(self):
        level = make_level()
        assert level.access(0) is None
        fill(level, 0)
        assert level.access(0) is not None
        assert (level.stats.counter("access"), level.stats.counter("miss"),
                level.stats.counter("hit")) == (2, 1, 1)

    def test_distinct_sets_do_not_conflict(self):
        level = make_level()
        lines = [addr_for_set(set_index, 0) for set_index in range(SETS)]
        assert [fill(level, line) for line in lines] == [None] * SETS
        assert all(level.probe(line) is not None for line in lines)

    def test_lru_eviction_order(self):
        level = make_level()
        a, b, c = (addr_for_set(0, w) for w in range(3))
        fill(level, a)
        fill(level, b)
        level.access(a)  # refresh a: b becomes LRU
        victim = fill(level, c)
        assert victim is not None and victim.tag == b
        assert level.probe(a) is not None and level.probe(c) is not None
        assert level.probe(b) is None

    def test_eviction_returns_dirty_state(self):
        level = make_level()
        a, b, c = (addr_for_set(1, w) for w in range(3))
        fill(level, a, dirty=True, version=Version(7, 3))
        fill(level, b)
        level.access(b)
        victim = fill(level, c)
        assert victim.tag == a
        assert victim.dirty and victim.version == Version(7, 3)


class TestPinning:
    def test_pinned_line_survives_eviction_pressure(self):
        level = make_level()
        pinned = addr_for_set(2, 0)
        fill(level, pinned, pinned=True)
        for way in range(1, 5):
            fill(level, addr_for_set(2, way))  # pinned is always LRU
        assert level.probe(pinned) is not None

    def test_fully_pinned_set_raises(self):
        level = make_level()
        for way in range(ASSOC):
            fill(level, addr_for_set(3, way), pinned=True)
        with pytest.raises(EvictionImpossible):
            fill(level, addr_for_set(3, ASSOC))


class TestInvalidate:
    def test_invalidate_removes_line(self):
        level = make_level()
        fill(level, 0, dirty=True)
        removed = level.invalidate(0)
        assert removed is not None and removed.dirty
        assert level.access(0) is None

    def test_invalidate_absent_returns_none(self):
        level = make_level()
        assert level.invalidate(64) is None

    def test_probe_preserves_lru(self):
        level = make_level()
        a, b, c = (addr_for_set(0, w) for w in range(3))
        fill(level, a)
        fill(level, b)
        level.probe(a)  # must NOT refresh a
        victim = fill(level, c)
        assert victim.tag == a
