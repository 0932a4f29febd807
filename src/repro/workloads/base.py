"""Workload framework: instrumented data structures emitting traces.

The paper's five benchmarks (Table 3) are real data structures — the
implementations here actually maintain the structure (so functional
tests can check search results and invariants) while every field
access is recorded through a :class:`Memory` facade into the trace the
simulator executes.  One benchmark *operation* (insert, search, swap)
is one transaction, matching NV-heaps-style usage.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, Optional, Type

from ..cpu.trace import Trace, TraceBuilder
from .heap import PersistentHeap, VolatileHeap

WORD = 8  # all keys/values are 64-bit (paper §5.1)


class Memory:
    """Instrumentation facade: data structures read/write *fields*
    (addresses), and every access lands in the trace."""

    def __init__(self, builder: TraceBuilder) -> None:
        self._builder = builder

    def read(self, addr: int) -> None:
        self._builder.load(addr)

    def write(self, addr: int) -> None:
        self._builder.store(addr)

    def compute(self, count: int = 1) -> None:
        self._builder.compute(count)


class Workload(abc.ABC):
    """One benchmark generator: instance per core, disjoint heaps."""

    #: registry name (Table 3 row)
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
        self.heap = PersistentHeap(core_id)
        self.volatile_heap = VolatileHeap(core_id)
        self.builder = TraceBuilder(
            name=f"{self.name}.core{core_id}",
            start_tx_id=core_id * 10_000_000 + 1,
        )
        self.mem = Memory(self.builder)
        self._scratch = self.volatile_heap.alloc(self.scratch_lines * 64)

    @abc.abstractmethod
    def setup(self) -> None:
        """Build initial structure state (runs inside transactions)."""

    @abc.abstractmethod
    def run_operation(self, index: int) -> None:
        """Execute one benchmark operation inside a transaction."""

    def transaction(self) -> "_TxContext":
        return _TxContext(self.builder)

    def interop_work(self) -> None:
        """Non-persistent program work between benchmark operations."""
        for _ in range(self.interop_volatile):
            addr = self._scratch + self.rng.randrange(self.scratch_lines) * 64
            if self.rng.random() < 0.5:
                self.mem.read(addr)
            else:
                self.mem.write(addr)
        if self.interop_compute:
            self.mem.compute(self.interop_compute)

    def generate(self, operations: int) -> Trace:
        """Produce the trace for ``operations`` benchmark operations."""
        self.setup()
        for index in range(operations):
            self.run_operation(index)
            self.interop_work()
        return self.builder.build()


class _TxContext:
    """``with workload.transaction():`` — the paper's Transaction{}."""

    def __init__(self, builder: TraceBuilder) -> None:
        self._builder = builder

    def __enter__(self) -> int:
        return self._builder.begin_tx()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._builder.end_tx()


#: name → workload class (populated by register())
WORKLOADS: Dict[str, Type[Workload]] = {}


def register(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a name")
    WORKLOADS[cls.name] = cls
    return cls


def create_workload(name: str, core_id: int = 0, seed: int = 42,
                    **params) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(WORKLOADS)}"
        ) from None
    return cls(core_id=core_id, seed=seed, **params)


def workload_table() -> Dict[str, str]:
    """The rows of the paper's Table 3."""
    return {name: cls.description for name, cls in sorted(WORKLOADS.items())}
