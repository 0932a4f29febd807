"""Workload framework: instrumented data structures emitting traces.

The paper's five benchmarks (Table 3) are real data structures — the
implementations here actually maintain the structure (so functional
tests can check search results and invariants) while every field
access is recorded through a :class:`~repro.pheap.PersistentArena`
into the trace the simulator executes.  One benchmark *operation*
(insert, search, swap) is one ``with self.arena.transaction():``
block, matching NV-heaps-style usage.
"""

from __future__ import annotations

import abc
import random

from ..cpu.trace import Trace
from ..pheap.arena import PersistentArena


class Workload(abc.ABC):
    """One benchmark generator: instance per core, disjoint heaps."""

    #: ``WORKLOADS`` key (Table 3 row)
    name: str = ""
    #: Table 3 description
    description: str = ""

    #: non-transactional program work emitted between operations —
    #: ALU instructions and volatile (DRAM) accesses.  Real programs do
    #: work around their persistent updates; without this the
    #: persistence overhead ratios are wildly exaggerated relative to
    #: the paper's full-program benchmarks.
    interop_compute: int = 2400
    interop_volatile: int = 10
    #: lines of volatile scratch the inter-op accesses walk over
    scratch_lines: int = 64

    def __init__(self, core_id: int = 0, seed: int = 42) -> None:
        self.core_id = core_id
        self.rng = random.Random(seed + core_id * 7919)
        self.arena = PersistentArena(self.name, core_id)
        self._scratch = self.arena.malloc(self.scratch_lines * 64)

    @abc.abstractmethod
    def setup(self) -> None:
        """Build initial structure state (runs inside transactions)."""

    @abc.abstractmethod
    def run_operation(self, index: int) -> None:
        """Execute one benchmark operation inside a transaction."""

    def interop_work(self) -> None:
        """Non-persistent program work between benchmark operations."""
        arena = self.arena
        for _ in range(self.interop_volatile):
            addr = self._scratch + self.rng.randrange(self.scratch_lines) * 64
            if self.rng.random() < 0.5:
                arena.read_word(addr)
            else:
                arena.write_word(addr)
        if self.interop_compute:
            arena.compute(self.interop_compute)

    def generate(self, operations: int) -> Trace:
        """Produce the trace for ``operations`` benchmark operations."""
        self.setup()
        for index in range(operations):
            self.run_operation(index)
            self.interop_work()
        return self.arena.trace()
