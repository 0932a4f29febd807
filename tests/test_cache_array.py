"""Unit tests for the set-associative array and LRU/pinning policies."""

import pytest

from repro.cache.line import CacheArray, EvictionImpossible
from repro.common.types import CACHE_LINE_SIZE, Version

SETS = 4
ASSOC = 2


def make_array():
    return CacheArray(SETS, ASSOC, CACHE_LINE_SIZE)


def addr_for_set(set_index, way):
    """An address mapping to ``set_index``, distinct per ``way``."""
    return (way * SETS + set_index) * CACHE_LINE_SIZE


class TestLookupInsert:
    def test_miss_then_hit(self):
        array = make_array()
        assert array.lookup(0) is None
        array.insert(0)
        assert array.lookup(0) is not None

    def test_insert_existing_updates_attrs(self):
        array = make_array()
        array.insert(0, version=Version(1, 0))
        victim = array.insert(0, version=Version(2, 0), dirty=True)
        assert victim is None
        entry = array.lookup(0)
        assert entry.version == Version(2, 0)
        assert entry.dirty

    def test_distinct_sets_do_not_conflict(self):
        array = make_array()
        for set_index in range(SETS):
            array.insert(addr_for_set(set_index, 0))
        assert array.resident_count() == SETS

    def test_lru_eviction_order(self):
        array = make_array()
        a, b, c = (addr_for_set(0, w) for w in range(3))
        array.insert(a)
        array.insert(b)
        array.lookup(a)  # refresh a: b becomes LRU
        victim = array.insert(c)
        assert victim is not None and victim.tag == b
        assert array.contains(a) and array.contains(c)

    def test_eviction_returns_dirty_state(self):
        array = make_array()
        a, b, c = (addr_for_set(1, w) for w in range(3))
        array.insert(a, dirty=True, version=Version(7, 3))
        array.insert(b)
        array.lookup(b)
        victim = array.insert(c)
        assert victim.tag == a
        assert victim.dirty and victim.version == Version(7, 3)


class TestPinning:
    def test_pinned_line_survives_eviction_pressure(self):
        array = make_array()
        pinned = addr_for_set(2, 0)
        array.insert(pinned, pinned=True)
        for way in range(1, 5):
            array.insert(addr_for_set(2, way))
        assert array.contains(pinned)

    def test_fully_pinned_set_raises(self):
        array = make_array()
        for way in range(ASSOC):
            array.insert(addr_for_set(3, way), pinned=True)
        with pytest.raises(EvictionImpossible):
            array.insert(addr_for_set(3, ASSOC))


class TestInvalidate:
    def test_invalidate_removes_line(self):
        array = make_array()
        array.insert(0, dirty=True)
        removed = array.invalidate(0)
        assert removed is not None and removed.dirty
        assert array.lookup(0) is None

    def test_invalidate_absent_returns_none(self):
        array = make_array()
        assert array.invalidate(64) is None

    def test_untouched_lookup_preserves_lru(self):
        array = make_array()
        a, b, c = (addr_for_set(0, w) for w in range(3))
        array.insert(a)
        array.insert(b)
        array.lookup(a, touch=False)  # must NOT refresh a
        victim = array.insert(c)
        assert victim.tag == a
