"""Bounded request queues for memory controllers.

The controller owns one :class:`RequestQueue` for reads and one for
writes (paper: 8 / 64 entries).  A queue that is full does not reject
work; incoming requests wait in an unbounded *backlog* and are admitted
in order as entries free up.  This models the back-pressure latency a
full queue imposes without forcing every requester to implement retry
loops, and the time spent in the backlog is visible in the request's
total latency.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Iterator, Optional

from ..common.types import MemRequest


class RequestQueue:
    """FIFO with a hard capacity and an overflow backlog.

    ``entries`` (the admitted deque) is public on purpose: the memory
    controller's scheduler scans it every tick, and going through an
    iterator wrapper or accessor shows up in profiles.  Treat it as
    read-only outside this class.
    """

    __slots__ = ("name", "capacity", "entries", "_backlog",
                 "_line_counts", "peak_occupancy", "total_admitted",
                 "total_backlogged")

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity
        self.entries: Deque[MemRequest] = deque()
        self._backlog: Deque[MemRequest] = deque()
        #: line -> queued-request count (entries + backlog): makes the
        #: common ``find_line`` miss (read forwarding probe) O(1)
        #: instead of a scan over up to capacity+backlog requests
        self._line_counts: dict = {}
        self.peak_occupancy = 0
        self.total_admitted = 0
        self.total_backlogged = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[MemRequest]:
        return iter(self.entries)

    @property
    def backlog_depth(self) -> int:
        return len(self._backlog)

    @property
    def occupancy(self) -> float:
        """Fraction of the hard capacity in use."""
        return len(self.entries) / self.capacity

    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    def is_empty(self) -> bool:
        return not self.entries and not self._backlog

    def push(self, request: MemRequest) -> bool:
        """Add a request.  Returns True if admitted directly, False if
        it had to wait in the backlog."""
        counts = self._line_counts
        line = request.line
        counts[line] = counts.get(line, 0) + 1
        if len(self.entries) >= self.capacity:
            self._backlog.append(request)
            self.total_backlogged += 1
            return False
        self._admit(request)
        return True

    def requeue(self, request: MemRequest) -> None:
        """Put a request back at the head, ahead of every queued
        request (a write-verify retry keeps its place before newer
        same-line writes).  A full queue spills its newest entry back
        to the front of the backlog."""
        counts = self._line_counts
        counts[request.line] = counts.get(request.line, 0) + 1
        entries = self.entries
        entries.appendleft(request)
        if len(entries) > self.capacity:
            self._backlog.appendleft(entries.pop())

    def _admit(self, request: MemRequest) -> None:
        self.entries.append(request)
        self.total_admitted += 1
        if len(self.entries) > self.peak_occupancy:
            self.peak_occupancy = len(self.entries)

    def pop(self, request: MemRequest) -> None:
        """Remove a specific (scheduled) request, then admit backlog."""
        self.entries.remove(request)
        counts = self._line_counts
        line = request.line
        remaining = counts[line] - 1
        if remaining:
            counts[line] = remaining
        else:
            del counts[line]
        backlog = self._backlog
        while backlog and len(self.entries) < self.capacity:
            self._admit(backlog.popleft())

    def find_line(self, line: int) -> Optional[MemRequest]:
        """Oldest queued request for ``line`` (backlog included)."""
        if line not in self._line_counts:
            return None
        for request in self.entries:
            if request.line == line:
                return request
        for request in self._backlog:
            if request.line == line:
                return request
        return None
