"""Persistent/volatile heap allocators behind :class:`PersistentArena`.

Mirrors the paper's Fig. 1 process address space: a *persistent heap*
(``p_malloc``) living in the NVM home region and an ordinary volatile
heap in DRAM.  Allocation is a bump pointer — nothing is ever freed —
with 8-byte alignment so the 64-bit key/value fields of the paper's
benchmarks map naturally.
"""

from __future__ import annotations

from ..common.types import HOME_REGION_LIMIT, NVM_BASE

#: address-space slice given to each core's persistent heap
CORE_REGION_BYTES = 1 << 28


class OutOfMemory(Exception):
    """Raised when a bump heap exhausts its region."""


class BumpHeap:
    """A bounded bump allocator over [base, base + capacity)."""

    def __init__(self, base: int, capacity: int, align: int = 8) -> None:
        self.base = base
        self.capacity = capacity
        self.align = align
        self._cursor = base

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the base address."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        aligned = (self._cursor + self.align - 1) & ~(self.align - 1)
        if aligned + size > self.base + self.capacity:
            raise OutOfMemory(
                f"heap at {self.base:#x} exhausted ({self.capacity} bytes)")
        self._cursor = aligned + size
        return aligned

    @property
    def used(self) -> int:
        return self._cursor - self.base

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.capacity


class PersistentHeap(BumpHeap):
    """``p_malloc``: persistent allocations in the NVM home region.

    Each core gets a disjoint region so multicore runs never conflict.
    """

    def __init__(self, core_id: int = 0,
                 capacity: int = CORE_REGION_BYTES) -> None:
        base = NVM_BASE + core_id * CORE_REGION_BYTES
        if base + capacity > HOME_REGION_LIMIT:
            raise ValueError(
                f"core {core_id}: persistent heap exceeds the home region")
        super().__init__(base, capacity)


class VolatileHeap(BumpHeap):
    """``malloc``: ordinary DRAM allocations."""

    def __init__(self, core_id: int = 0,
                 capacity: int = CORE_REGION_BYTES) -> None:
        # keep clear of page 0; give each core a disjoint DRAM slice
        super().__init__((1 << 20) + core_id * CORE_REGION_BYTES, capacity)
