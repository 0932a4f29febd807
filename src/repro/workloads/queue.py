"""queue — a persistent circular FIFO (extension workload).

Not one of the paper's Table 3 benchmarks, but the structure most
durable-logging systems are built from: a ring buffer of fixed-size
records with persistent head/tail cursors.  Every enqueue/dequeue is a
transaction; the cursor-and-payload update is exactly the kind of
two-location atomicity persistent memory schemes must protect (a
published tail pointing at an unwritten record is the Fig. 2 failure).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..pheap.arena import WORD
from .base import Workload

#: record layout: two 64-bit words (id, payload)
RECORD_WORDS = 2


class QueueWorkload(Workload):
    name = "queue"
    description = "Enqueue/dequeue records in a persistent circular FIFO."

    def __init__(self, core_id: int = 0, seed: int = 42,
                 capacity: int = 1024, enqueue_ratio: float = 0.6) -> None:
        super().__init__(core_id=core_id, seed=seed)
        self.capacity = capacity
        self.enqueue_ratio = enqueue_ratio
        # head cursor, tail cursor, then the slot array
        self.head_addr = self.arena.p_malloc(WORD)
        self.tail_addr = self.arena.p_malloc(WORD)
        self.slots_base = self.arena.p_malloc(capacity * RECORD_WORDS * WORD)
        #: functional mirror
        self.items: Deque[int] = deque()
        self._head = 0
        self._tail = 0
        self._next_id = 0

    def _slot_addr(self, index: int) -> int:
        return self.slots_base + (index % self.capacity) * RECORD_WORDS * WORD

    def setup(self) -> None:
        with self.arena.transaction():
            self.arena.write_word(self.head_addr)
            self.arena.write_word(self.tail_addr)

    # -- operations -----------------------------------------------------
    def enqueue(self, payload: int) -> bool:
        """Append a record; returns False when full (no trace emitted
        beyond the capacity check)."""
        with self.arena.transaction():
            self.arena.read_word(self.head_addr)
            self.arena.read_word(self.tail_addr)
            self.arena.compute(2)  # fullness check + slot arithmetic
            if len(self.items) >= self.capacity:
                return False
            slot = self._slot_addr(self._tail)
            self.arena.write_word(slot)            # record id
            self.arena.write_word(slot + WORD)     # payload...
            self.arena.write_word(self.tail_addr)  # ...then publish the cursor
        self.items.append(payload)
        self._tail += 1
        return True

    def dequeue(self) -> Optional[int]:
        """Pop the oldest record; None when empty."""
        with self.arena.transaction():
            self.arena.read_word(self.head_addr)
            self.arena.read_word(self.tail_addr)
            self.arena.compute(2)
            if not self.items:
                return None
            slot = self._slot_addr(self._head)
            self.arena.read_word(slot)
            self.arena.read_word(slot + WORD)
            self.arena.write_word(self.head_addr)
        self._head += 1
        return self.items.popleft()

    def run_operation(self, index: int) -> None:
        if self.rng.random() < self.enqueue_ratio or not self.items:
            payload = self._next_id * 31 + 7
            self._next_id += 1
            self.enqueue(payload)
        else:
            self.dequeue()

    # -- oracle -----------------------------------------------------------
    def depth(self) -> int:
        return len(self.items)
