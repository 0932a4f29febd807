"""Bank / rank / row-buffer state for a memory device.

Each bank tracks its open row and the cycle until which it is busy.
The address map interleaves banks at cache-line granularity (a
"bank:column" style DRAMSim2 mapping): consecutive lines hit
consecutive banks, so both streaming and small-footprint random access
exploit full bank-level parallelism, while a bank's lines (one per
``num_banks``-line stripe round) group into row-buffer-sized rows.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.config import MemCtrlConfig
from ..common.types import NVM_BASE


class Bank:
    """One bank: open-row register plus a busy-until horizon.

    Refresh is accounted lazily: banks know the refresh period, and on
    each availability check / access they catch up with any refresh
    window that has elapsed since their last activity — no periodic
    events, so an idle memory system still drains its event queue.

    ``__slots__`` rather than a dataclass: bank state is read on every
    scheduler scan iteration, and slot access keeps those reads off the
    instance-dict path.
    """

    __slots__ = ("index", "open_row", "busy_until", "row_hits",
                 "row_misses", "refresh_interval", "refresh_cycles",
                 "refreshes", "_refresh_epoch")

    def __init__(self, index: int, open_row: Optional[int] = None,
                 busy_until: int = 0, row_hits: int = 0,
                 row_misses: int = 0,
                 refresh_interval: int = 0,   # cycles; 0 = no refresh (NVM)
                 refresh_cycles: int = 0, refreshes: int = 0) -> None:
        self.index = index
        self.open_row = open_row
        self.busy_until = busy_until
        self.row_hits = row_hits
        self.row_misses = row_misses
        self.refresh_interval = refresh_interval
        self.refresh_cycles = refresh_cycles
        self.refreshes = refreshes
        self._refresh_epoch = 0

    def __repr__(self) -> str:
        return (f"Bank(index={self.index}, open_row={self.open_row}, "
                f"busy_until={self.busy_until})")

    def _catch_up_refresh(self, now: int) -> None:
        if self.refresh_interval <= 0:
            return
        epoch = now // self.refresh_interval
        if epoch > self._refresh_epoch:
            # the most recent refresh closes the row and occupies the
            # bank for tRFC
            start = epoch * self.refresh_interval
            self.busy_until = max(self.busy_until,
                                  start + self.refresh_cycles)
            self.open_row = None
            self.refreshes += epoch - self._refresh_epoch
            self._refresh_epoch = epoch

    def available(self, now: int) -> bool:
        self._catch_up_refresh(now)
        return now >= self.busy_until

    def access(self, row: int, now: int, hit_cycles: int, miss_cycles: int) -> int:
        """Perform an access to ``row``; returns the completion cycle.

        The caller must have checked :meth:`available`.  Refresh-free
        (NVM) banks skip the refresh catch-up call, as the scheduler's
        scan does.
        """
        if self.refresh_interval > 0:
            self._catch_up_refresh(now)
        if self.open_row == row:
            self.row_hits += 1
            duration = hit_cycles
        else:
            self.row_misses += 1
            duration = miss_cycles
            self.open_row = row
        self.busy_until = now + duration
        return self.busy_until


class BankArray:
    """All banks of one memory controller, plus the address map.

    A bank is created the first time a request maps to it: a short run
    touches a few of the 32 banks.  Refresh is caught up lazily from
    cycle 0, so a bank first touched at any cycle is in the state an
    untouched bank built up front would be in by then."""

    LINE_STRIPE = 64  # bank-interleave granularity (one cache line)

    def __init__(self, config: MemCtrlConfig, freq_ghz: float = 2.0) -> None:
        self._config = config
        self._row_size = config.timing.row_size_bytes
        self._lines_per_row = max(1, self._row_size // self.LINE_STRIPE)
        self._num_banks = config.num_banks
        self._interleave = config.interleave
        cycles = config.timing.cycles(freq_ghz)
        self._refresh_interval = cycles.refresh_interval
        self._refresh_cycles = cycles.refresh_cycles
        #: bank ``i``, or None until a request first maps to it; public
        #: for the controller's enqueue path, read-only outside this
        #: class (:meth:`bank` creates)
        self.by_index: List[Optional[Bank]] = [None] * self._num_banks

    def bank(self, index: int) -> Bank:
        """Bank ``index``, created on first use."""
        bank = self.by_index[index]
        if bank is None:
            bank = self.by_index[index] = Bank(
                index, refresh_interval=self._refresh_interval,
                refresh_cycles=self._refresh_cycles)
        return bank

    @property
    def banks(self) -> List[Bank]:
        """Every bank, in index order (creating any not yet used)."""
        return [self.bank(index) for index in range(self._num_banks)]

    def map_address(self, addr: int) -> Tuple[int, int]:
        """Map a byte address to (bank index, row index).

        NVM addresses are rebased so the bank map is dense in both
        spaces."""
        if addr >= NVM_BASE:
            addr -= NVM_BASE
        num_banks = self._num_banks
        if self._interleave == "line":
            line = addr // self.LINE_STRIPE
            bank = line % num_banks
            row = (line // num_banks) // self._lines_per_row
        else:  # "row": whole row buffers contiguous per bank
            row_global = addr // self._row_size
            bank = row_global % num_banks
            row = row_global // num_banks
        return bank, row

    def bank_for(self, addr: int) -> Bank:
        bank, _row = self.map_address(addr)
        return self.bank(bank)

    def row_for(self, addr: int) -> int:
        _bank, row = self.map_address(addr)
        return row

    @property
    def row_hits(self) -> int:
        return sum(b.row_hits for b in self.by_index if b is not None)

    @property
    def row_misses(self) -> int:
        return sum(b.row_misses for b in self.by_index if b is not None)
