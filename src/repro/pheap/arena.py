"""Persistent arena: the paper's software interface, made usable.

The paper's programming model (§4.2, Fig. 1) is NV-heaps-like: a
persistent heap (``p_malloc``), ordinary loads/stores, and
``Transaction { ... }`` blocks compiled to TX_BEGIN/TX_END.  This
package provides that interface for *Python programs*: code written
against :class:`PersistentArena` and the collections in
:mod:`repro.pheap.collections` executes functionally (your data is
really there) while every persistent access is recorded as a trace —
which can then be run through the simulator under any persistence
scheme, timed, and crash-tested.

    arena = PersistentArena("inventory")
    stock = PersistentDict(arena)
    with arena.transaction():
        stock["widgets"] = 12
    result = arena.run("txcache")          # simulate the program
    report = arena.crash_test("txcache")   # prove it is atomic
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..common.config import MachineConfig, small_machine_config
from ..common.types import SchemeName
from ..cpu.trace import Trace, TraceBuilder
from .heap import PersistentHeap, VolatileHeap

WORD = 8  # all keys/values are 64-bit (paper §5.1)


class TransactionError(RuntimeError):
    """Raised when persistent state is mutated outside a transaction."""


class PersistentArena:
    """A persistent heap plus the trace of everything done to it."""

    def __init__(self, name: str = "pheap", core_id: int = 0) -> None:
        self.name = name
        self.core_id = core_id
        self._builder = TraceBuilder(name=f"{name}.core{core_id}",
                                     start_tx_id=core_id * 10_000_000 + 1)
        self._allocator = PersistentHeap(core_id)
        self._volatile = VolatileHeap(core_id)
        self._finalized: Optional[Trace] = None

    # ------------------------------------------------------------------
    # the software interface
    # ------------------------------------------------------------------
    def transaction(self) -> "_ArenaTx":
        """The paper's ``Transaction { ... }`` block."""
        if self._finalized is not None:
            self._refuse()
        return _ArenaTx(self)

    @property
    def in_transaction(self) -> bool:
        return self._builder.in_tx

    def p_malloc(self, size: int) -> int:
        """Allocate persistent bytes; returns the address."""
        if self._finalized is not None:
            self._refuse()
        return self._allocator.alloc(size)

    def malloc(self, size: int) -> int:
        """Allocate volatile (DRAM) bytes."""
        if self._finalized is not None:
            self._refuse()
        return self._volatile.alloc(size)

    # -- instrumented accesses (workloads and collections call these) ---
    # Every recorded access goes through one of these, so the checks
    # are inlined attribute tests rather than method calls.
    def read_word(self, addr: int) -> None:
        if self._finalized is not None:
            self._refuse()
        self._builder.load(addr)

    def write_word(self, addr: int) -> None:
        if self._finalized is not None:
            self._refuse()
        builder = self._builder
        if builder._open_tx is None and self._allocator.contains(addr):
            raise TransactionError(
                f"persistent store to {addr:#x} outside a transaction — "
                "wrap the mutation in `with arena.transaction():`")
        builder.store(addr)

    def compute(self, count: int = 1) -> None:
        if self._finalized is not None:
            self._refuse()
        self._builder.compute(count)

    @staticmethod
    def _refuse() -> None:
        raise TransactionError(
            "arena already finalized (trace() was called); create a "
            "new arena to record more work")

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def trace(self) -> Trace:
        """Finalize and return the recorded trace (idempotent)."""
        if self._finalized is None:
            self._finalized = self._builder.build()
        return self._finalized

    def run(self, scheme: Union[str, SchemeName] = "txcache",
            config: Optional[MachineConfig] = None):
        """Simulate the recorded program under ``scheme``."""
        from ..sim.runner import run_experiment

        return run_experiment(self.name, scheme,
                              config=config or small_machine_config(num_cores=1),
                              traces=[self.trace()])

    def crash_test(self, scheme: Union[str, SchemeName] = "txcache",
                   fractions=(0.25, 0.5, 0.75),
                   config: Optional[MachineConfig] = None) -> List:
        """Crash the recorded program at several points and check that
        recovery is atomic; returns the list of CrashReports."""
        from ..sim.crash import crash_at_fractions

        return crash_at_fractions(
            self.name, scheme, config or small_machine_config(num_cores=1),
            fractions, traces=[self.trace()])


class _ArenaTx:
    """Context manager implementing ``Transaction { ... }``."""

    def __init__(self, arena: PersistentArena) -> None:
        self._arena = arena

    def __enter__(self) -> int:
        return self._arena._builder.begin_tx()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._arena._builder.end_tx()
