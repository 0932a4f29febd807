"""sps — random swaps of array elements (paper Table 3).

The highest-write-intensity benchmark: each transaction reads two
random 64-bit elements and writes both back — two persistent stores
per four memory ops, with almost no compute to hide behind.  In the
paper this is the only workload that ever stalls on a full TC
(0.67 % of execution time, §5.2).
"""

from __future__ import annotations

from ..pheap.arena import WORD
from .base import Workload

#: elements initialized per setup transaction (bounded so a setup
#: transaction can never overflow a default 64-entry TC)
SETUP_BATCH = 8


class SpsWorkload(Workload):
    name = "sps"
    description = "Randomly swap elements in an array."

    # a tight swap loop: barely any surrounding work, so this is the
    # highest-write-intensity workload (paper §5.2)
    interop_compute = 600
    interop_volatile = 3

    def __init__(self, core_id: int = 0, seed: int = 42,
                 array_elements: int = 2048) -> None:
        super().__init__(core_id=core_id, seed=seed)
        self.array_elements = array_elements
        self.base = self.arena.p_malloc(array_elements * WORD)
        #: functional mirror: the value stored at each index
        self.values = list(range(array_elements))

    def _addr(self, index: int) -> int:
        return self.base + index * WORD

    def setup(self) -> None:
        for start in range(0, self.array_elements, SETUP_BATCH):
            with self.arena.transaction():
                for index in range(start,
                                   min(start + SETUP_BATCH, self.array_elements)):
                    self.arena.compute(1)
                    self.arena.write_word(self._addr(index))

    def run_operation(self, index: int) -> None:
        i = self.rng.randrange(self.array_elements)
        j = self.rng.randrange(self.array_elements)
        with self.arena.transaction():
            self.arena.compute(1)          # index arithmetic
            self.arena.read_word(self._addr(i))
            self.arena.read_word(self._addr(j))
            self.arena.write_word(self._addr(i))
            self.arena.write_word(self._addr(j))
        self.values[i], self.values[j] = self.values[j], self.values[i]
