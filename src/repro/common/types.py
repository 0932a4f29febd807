"""Shared value types: address spaces, memory requests, trace versions.

Addresses are plain integers (byte addresses).  The machine exposes two
physical spaces — volatile DRAM and persistent NVM — split by a fixed
base address (see :data:`NVM_BASE`): the persistent heap allocator hands
out NVM addresses, everything else lives in DRAM.  This mirrors the
paper's hybrid memory bus with one controller per space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Cache line size in bytes (paper: 64 B lines).
CACHE_LINE_SIZE = 64

#: Byte addresses at or above this value live in the persistent (NVM)
#: space; everything below is volatile DRAM.
NVM_BASE = 1 << 40


class MemSpace(enum.Enum):
    """Which physical memory a request targets."""

    DRAM = "dram"
    NVM = "nvm"

    @staticmethod
    def of(addr: int) -> "MemSpace":
        """Classify a byte address into its physical space."""
        return MemSpace.NVM if addr >= NVM_BASE else MemSpace.DRAM


def line_addr(addr: int) -> int:
    """Round a byte address down to its cache-line address."""
    return addr & ~(CACHE_LINE_SIZE - 1)


#: Application persistent heaps live in [NVM_BASE, HOME_REGION_LIMIT);
#: everything above is scheme metadata (logs, shadow copies, commit
#: records) and is excluded from recovered application images.
HOME_REGION_LIMIT = NVM_BASE + (1 << 36)

#: DRAM-resident log regions (the hybrid DRAM-logged scheme's write-set
#: log) live at [DRAM_LOG_BASE, NVM_BASE); ordinary volatile heaps stay
#: below.
DRAM_LOG_BASE = 1 << 38


def is_persistent_addr(addr: int) -> bool:
    """True if the address belongs to the persistent (NVM) space."""
    return addr >= NVM_BASE


def is_home_line(addr: int) -> bool:
    """True for application persistent-heap lines (not scheme metadata)."""
    return NVM_BASE <= addr < HOME_REGION_LIMIT


@dataclass(frozen=True)
class Version:
    """A logical data version used by the crash-consistency checker.

    Rather than modelling byte payloads, every persistent store carries
    a ``Version`` identifying which transaction wrote it and where in
    that transaction's program order the write sits.  The recovery
    checker compares recovered versions against the set of durable
    transactions.  ``tx_id`` is ``None`` for non-transactional writes.
    """

    tx_id: Optional[int]
    seq: int

    def __repr__(self) -> str:  # compact for test failure output
        return f"V(tx={self.tx_id},seq={self.seq})"


class MemReqType(enum.Enum):
    """Request kinds accepted by a memory controller."""

    READ = "read"
    WRITE = "write"


class MemRequest:
    """A single line-granular request to a memory controller.

    A hand-rolled ``__slots__`` class rather than a dataclass: requests
    are the hottest allocation in the simulator and sit on the memory
    controller's scan path, so ``line`` and ``is_write`` are computed
    once at construction (the address never changes after that) and
    ``bank``/``row`` are filled in by the owning controller at enqueue
    so queue scans never re-run the address map.  Identity equality is
    deliberate — queue membership means *this* request, not any
    equal-valued one.

    Attributes:
        addr: byte address (any address within the line is accepted;
            controllers operate on :func:`line_addr` internally).
        req_type: read or write.
        persistent: True when the write carries persistent data whose
            completion must be acknowledged (the TC drains on acks).
        tx_id: transaction the data belongs to, if any.
        version: logical payload for the crash-consistency checker.
        callback: invoked as ``callback(request, completion_cycle)``
            when the controller finishes servicing the request.
        issue_cycle: stamped by the controller at enqueue time.
        source: free-form tag identifying the requester (stats/debug).
        line: cache-line address of ``addr`` (precomputed).
        is_write: True for WRITE requests (precomputed).
        bank: owning controller's :class:`~repro.memory.bank.Bank`
            for this line (set at enqueue; None before that).
        row: row index within ``bank`` (set at enqueue).
        ready_cycle: first cycle the owning controller may grant the
            request (set at enqueue to the next cycle; a write-verify
            retry sets it to the end of its backoff).
    """

    __slots__ = ("addr", "req_type", "persistent", "tx_id", "version",
                 "callback", "issue_cycle", "source", "meta",
                 "line", "is_write", "bank", "row", "ready_cycle")

    def __init__(self, addr: int, req_type: MemReqType,
                 persistent: bool = False,
                 tx_id: Optional[int] = None,
                 version: Optional[Version] = None,
                 callback: Optional[Callable[["MemRequest", int], None]] = None,
                 issue_cycle: int = 0, source: str = "",
                 meta: Optional[dict] = None) -> None:
        self.addr = addr
        self.req_type = req_type
        self.persistent = persistent
        self.tx_id = tx_id
        self.version = version
        self.callback = callback
        self.issue_cycle = issue_cycle
        self.source = source
        self.meta = {} if meta is None else meta
        self.line = addr & ~(CACHE_LINE_SIZE - 1)
        self.is_write = req_type is MemReqType.WRITE
        self.bank = None
        self.row = 0
        self.ready_cycle = 0

    @property
    def space(self) -> MemSpace:
        return MemSpace.of(self.addr)

    def __repr__(self) -> str:
        return (f"MemRequest(addr={self.addr:#x}, "
                f"req_type={self.req_type.value}, "
                f"persistent={self.persistent}, tx_id={self.tx_id}, "
                f"source={self.source!r})")


class SchemeName(enum.Enum):
    """The four persistence mechanisms compared in the paper (§5.1),
    the software-transaction competitor schemes of
    :mod:`repro.persistence.swtx` (per arXiv:1804.00701 and
    arXiv:1903.06226), and the deliberately broken negative controls
    listed in :data:`NEGATIVE_CONTROLS`."""

    OPTIMAL = "optimal"   # native execution, no persistence guarantee
    SP = "sp"             # software WAL + flush/fence ordering
    KILN = "kiln"         # nonvolatile LLC, flush-on-commit ([23])
    TXCACHE = "txcache"   # this paper's transaction-cache accelerator
    UNDO_LOG = "undo_log"         # per-store undo WAL, fence-per-entry
    REDO_LOG = "redo_log"         # DRAM write set + redo WAL, 2 fences/tx
    HYBRID_DRAM = "hybrid_dram"   # DRAM log mirrored to NVM, epoch fence
    BROKEN_COMMIT = "broken_commit"  # commit claimed before any flush

    @staticmethod
    def parse(name: "str | SchemeName") -> "SchemeName":
        if isinstance(name, SchemeName):
            return name
        return SchemeName(name.lower())


#: schemes that exist to be caught by the atomicity oracle: every
#: in-process entry point runs them, the service refuses them
NEGATIVE_CONTROLS = frozenset({SchemeName.BROKEN_COMMIT})


def ns_to_cycles(ns: float, freq_ghz: float) -> int:
    """Convert nanoseconds to (rounded-up) CPU cycles at ``freq_ghz``."""
    cycles = ns * freq_ghz
    whole = int(cycles)
    return max(1, whole if cycles == whole else whole + 1)
