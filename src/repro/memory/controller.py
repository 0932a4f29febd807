"""Event-driven memory controller (one per memory space).

Implements the policy the paper inherits from DRAMSim2 (Table 2):

* separate read and write queues (8 / 64 entries),
* **read-first** scheduling — reads have priority over writes,
* **write drain** — when the write queue reaches 80 % occupancy the
  controller switches to draining writes until occupancy falls below a
  low watermark,
* per-bank row-buffer timing via :class:`~repro.memory.bank.BankArray`,
* FR-FCFS arbitration inside each queue (row hits first, then oldest),
  with the guarantee that same-line requests are never reordered (the
  paper requires conflicting persistent writes to reach the NVM in
  program order — same line implies same bank and row, so FIFO scan
  order preserves it),
* read forwarding from the write queue (a read that matches a pending
  write is served from the queue entry, not the array),
* an **acknowledgment path**: after a persistent write is written into
  the array, the controller invokes ``ack_handler`` — this is the
  message the transaction cache drains on (paper §3/§4.3).

Writes into the NVM are additionally recorded into a
:class:`DurableImage` timeline so crash points can be replayed exactly.

When a :class:`~repro.faults.injector.FaultInjector` is attached (NVM
controller only), two fault models run here:

* **write-verify-retry** — an STT-RAM array write can fail
  verification; the controller retries with exponential backoff up to
  ``max_write_retries`` times, then remaps the line to a spare row
  (``write.remaps``) so durability is never silently lost;
* **ack fates** — an acknowledgment can be dropped, delayed, or
  duplicated on its way to the transaction cache; the TC's ack-timeout
  reissue mechanism (see :mod:`repro.core.accelerator`) recovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..common.config import MemCtrlConfig
from ..common.event import Simulator
from ..common.stats import ScopedStats
from ..common.types import MemReqType, MemRequest, Version, is_home_line
from ..obs.tracer import NULL_TRACER, NullTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector

AckHandler = Callable[[MemRequest, int], None]


class _ForwardReplay:
    """A replay of a :class:`DurableImage` timeline that moves forward
    lazily: each query applies only the records it has not applied
    yet, up to the queried cycle.  A query for an earlier cycle than
    the previous one starts again from an empty image.  ``keep``
    restricts the image to the lines it accepts."""

    __slots__ = ("events", "keep", "cycle", "index", "state")

    def __init__(self, events: List[Tuple[int, int, int, Optional[Version]]],
                 keep: Optional[Callable[[int], bool]] = None) -> None:
        self.events = events
        self.keep = keep
        self.cycle = 0
        self.index = 0
        self.state: Dict[int, Optional[Version]] = {}

    def at(self, cycle: int) -> Dict[int, Optional[Version]]:
        if cycle < self.cycle:
            self.index, self.state = 0, {}
        events, keep, state = self.events, self.keep, self.state
        index, end = self.index, len(events)
        while index < end:
            event_cycle, _seq, line, version = events[index]
            if event_cycle > cycle:
                break
            if keep is None or keep(line):
                state[line] = version
            index += 1
        self.cycle, self.index = cycle, index
        # a copy: recovery routines rewrite the image they are given
        return dict(state)


class DurableImage:
    """Timeline of versions that have physically reached the memory.

    ``record`` is called by the controller at the cycle each write
    completes in the array, so records arrive in cycle order (and
    ``record`` refuses one that does not).  ``state_at(cycle)`` replays
    the timeline up to an arbitrary crash point, yielding exactly the
    line→version map a post-crash recovery procedure would find in the
    NVM; ``home_state_at`` is the same map restricted to the home
    region.  Both keep a forward cursor, built on the first query, so a
    crash sweep that queries cycles in increasing order replays each
    record once rather than once per query.
    """

    def __init__(self) -> None:
        self._events: List[Tuple[int, int, int, Optional[Version]]] = []
        self._seq = 0
        self._current: Dict[int, Optional[Version]] = {}
        self._all: Optional[_ForwardReplay] = None
        self._home: Optional[_ForwardReplay] = None

    def record(self, cycle: int, line: int, version: Optional[Version]) -> None:
        if self._events and cycle < self._events[-1][0]:
            raise ValueError(
                f"durable record at cycle {cycle} is earlier than the "
                f"last one at cycle {self._events[-1][0]}")
        self._events.append((cycle, self._seq, line, version))
        self._seq += 1
        self._current[line] = version

    def state_at(self, cycle: int) -> Dict[int, Optional[Version]]:
        """Line→version map as of ``cycle`` (inclusive)."""
        if self._all is None:
            self._all = _ForwardReplay(self._events)
        return self._all.at(cycle)

    def home_state_at(self, cycle: int) -> Dict[int, Optional[Version]]:
        """:meth:`state_at` restricted to home-region lines (log and
        record lines filtered out)."""
        if self._home is None:
            self._home = _ForwardReplay(self._events, is_home_line)
        return self._home.at(cycle)

    def final_state(self) -> Dict[int, Optional[Version]]:
        return dict(self._current)

    def current(self, line: int) -> Optional[Version]:
        """The version durably in the array right now (O(1))."""
        return self._current.get(line)

    @property
    def events(self) -> List[Tuple[int, int, int, Optional[Version]]]:
        return list(self._events)

    @property
    def last_cycle(self) -> int:
        return self._events[-1][0] if self._events else 0


class MemoryController:
    """One memory channel: queues, scheduler, banks, ack path."""

    #: extra cycles for serving a read out of the write queue
    FORWARD_LATENCY = 4
    #: cycles between scheduler decisions (command bus rate)
    SCHEDULER_PERIOD = 2
    #: anti-starvation: a write is serviced ahead of reads if none was
    #: serviced in this many cycles (read-first must not let a steady
    #: read stream starve the write queue — acknowledgments would stop)
    WRITE_STARVATION_LIMIT = 250

    def __init__(
        self,
        sim: Simulator,
        config: MemCtrlConfig,
        stats: ScopedStats,
        freq_ghz: float,
        durable_image: Optional[DurableImage] = None,
        ack_handler: Optional[AckHandler] = None,
        faults: Optional["FaultInjector"] = None,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        from .bank import BankArray
        from .queues import RequestQueue

        self.sim = sim
        self.config = config
        self.stats = stats
        self.freq_ghz = freq_ghz
        self.durable_image = durable_image
        self.ack_handler = ack_handler
        self.faults = faults
        self.tracer = tracer
        self._track = config.name  # tracer thread label for this channel
        self.banks = BankArray(config, freq_ghz=freq_ghz)
        self._bank_list = self.banks.banks
        self.read_queue = RequestQueue(f"{config.name}.rq", config.read_queue_entries)
        self.write_queue = RequestQueue(f"{config.name}.wq", config.write_queue_entries)
        self._drain_mode = False
        self._tick_at: Optional[int] = None
        self._inflight = 0
        self._last_write_service = 0
        self._last_grant = -self.SCHEDULER_PERIOD
        # Hot-path precomputation: bank timings (pure functions of the
        # frozen config) are resolved once here instead of per event,
        # and per-request statistics are cells and tallies.
        timing = config.timing
        self._write_hit_cycles = timing.write_cycles(freq_ghz, row_hit=True)
        self._write_miss_cycles = timing.write_cycles(freq_ghz, row_hit=False)
        self._read_hit_cycles = timing.read_cycles(freq_ghz, row_hit=True)
        self._read_miss_cycles = timing.read_cycles(freq_ghz, row_hit=False)
        self._drain_high = config.write_drain_threshold
        self._drain_low = self._drain_high / 2
        self._counts = stats.cells(
            "write.requests", "write.lines", "read.requests",
            "read.forwarded", "write.acks", "write.starvation_grants")
        self._read_latency = stats.tally("read.latency", histogram=True)
        self._write_latency = stats.tally("write.latency", histogram=True)

    # ------------------------------------------------------------------
    # external interface
    # ------------------------------------------------------------------
    def enqueue(self, request: MemRequest) -> None:
        """Accept a line-granular request; completion is signalled via
        ``request.callback(request, cycle)``."""
        now = self.sim.now
        request.issue_cycle = now
        request.ready_cycle = now + 1
        # Resolve the address map once; every scheduler scan after this
        # reads the cached (bank, row) instead of redoing the division.
        bank, request.row = self.banks.map_address(request.line)
        request.bank = self._bank_list[bank]
        if request.is_write:
            counts = self._counts
            counts.write_requests += 1
            counts.write_lines += 1
            self.write_queue.push(request)
        else:
            self._counts.read_requests += 1
            pending_write = self.write_queue.find_line(request.line)
            if pending_write is not None:
                # Serve the read from the queued write (newest data).
                self._counts.read_forwarded += 1
                request.meta["forwarded"] = True
                self.sim.schedule(self.FORWARD_LATENCY, self._finish_read, request)
                return
            self.read_queue.push(request)
        if self.tracer.enabled:
            self._trace_queues()
        self._kick(now + 1)

    def _trace_queues(self) -> None:
        self.tracer.counter("mem", self._track, "queues", self.sim.now,
                            read=len(self.read_queue),
                            write=len(self.write_queue))

    def busy(self) -> bool:
        """True while any request is queued or in the banks."""
        return (
            not self.read_queue.is_empty()
            or not self.write_queue.is_empty()
            or self._inflight > 0
        )

    # ------------------------------------------------------------------
    # scheduler
    # ------------------------------------------------------------------
    def _kick(self, at_time: int) -> None:
        """Ensure a scheduler tick is pending no later than ``at_time``,
        but not within ``SCHEDULER_PERIOD`` of the last grant."""
        at_time = max(at_time, self.sim.now,
                      self._last_grant + self.SCHEDULER_PERIOD)
        if self._tick_at is not None and self._tick_at <= at_time:
            return
        self._tick_at = at_time
        self.sim.schedule_at(at_time, self._tick)

    def _tick(self) -> None:
        """One scheduler decision: drain-mode hysteresis, FR-FCFS pick
        over the priority-ordered queues, then service or sleep.

        The scheduler wakes only when something it depends on changes:
        a request becomes eligible (the cycle after it arrives, or the
        end of a retry's backoff) or a candidate's bank frees up.  A
        tick that grants nothing re-arms once, at the earliest such
        cycle over the candidates it scanned; new arrivals kick it
        earlier.  Starvation needs no timer of its own: it only reorders
        requests that are already serviceable.

        ``entries`` alone decides queue emptiness throughout: the
        backlog admits into ``entries`` whenever there is room, so a
        non-empty backlog implies non-empty entries."""
        # A non-superseded tick always fires at its scheduled time, so
        # the clock *is* the scheduled time — taking no argument saves
        # an args tuple on every re-arm.
        now = self.sim.now
        if self._tick_at != now:
            return  # superseded by an earlier kick
        self._tick_at = None
        read_queue = self.read_queue
        write_queue = self.write_queue
        w_entries = write_queue.entries
        # drain-mode hysteresis (flips are rare; the helper keeps the
        # stats/tracer bookkeeping out of the per-tick path)
        occupancy = len(w_entries) / write_queue.capacity
        drain = self._drain_mode
        if not drain:
            if occupancy >= self._drain_high:
                drain = True
                self._flip_drain_mode(True, len(w_entries))
        elif occupancy <= self._drain_low:
            drain = False
            self._flip_drain_mode(False, len(w_entries))
        # FR-FCFS pick, writes first under drain or anti-starvation
        starved = bool(w_entries) and (now - self._last_write_service
                                       > self.WRITE_STARVATION_LIMIT)
        if drain or starved:
            queues = (write_queue, read_queue)
        else:
            queues = (read_queue, write_queue)
        wake: Optional[int] = None
        for queue in queues:
            chosen, free_at = self._scan(queue, now)
            if chosen is not None:
                break
            if free_at is not None and (wake is None or free_at < wake):
                wake = free_at
        else:
            if wake is not None:
                # Nothing is serviceable before ``wake``.  No tick is
                # pending here (this one was just consumed and nothing
                # above kicks), so arm directly instead of via _kick.
                self._tick_at = wake
                self.sim.schedule_at(wake, self._tick)
            return
        queue.pop(chosen)
        if self.tracer.enabled:
            self._trace_queues()
        if chosen.is_write:
            self._last_write_service = now
            if starved and not drain:
                self._counts.write_starvation_grants += 1
        self._last_grant = now
        self._service(chosen)
        if read_queue.entries or write_queue.entries:
            at_time = now + self.SCHEDULER_PERIOD
            self._tick_at = at_time
            self.sim.schedule_at(at_time, self._tick)

    def _flip_drain_mode(self, drain: bool, write_depth: int) -> None:
        self._drain_mode = drain
        if drain:
            self.stats.inc("write.drain_entries")
        if self.tracer.enabled:
            self.tracer.instant("mem", self._track,
                                "drain.enter" if drain else "drain.exit",
                                self.sim.now, write_queue=write_depth)

    def _scan(self, queue,
              now: int) -> Tuple[Optional[MemRequest], Optional[int]]:
        """FR-FCFS pick over one queue: ``(request, None)`` for the
        first row hit whose bank is free, else the first bank-free
        entry; ``(None, free_at)`` when no entry is serviceable, where
        ``free_at`` is the earliest cycle one can be (``None`` for an
        empty queue).

        Only requests whose ``ready_cycle`` has come are candidates.  A
        request is skipped if an *older* request to the same line
        exists earlier in the queue — same-line order is preserved
        unconditionally.

        This runs over the admitted queue on every tick, so it reads
        the (bank, row) pair precomputed at enqueue and inlines the
        bank availability and row-hit checks (refresh catch-up is
        skipped outright for refresh-free NVM banks)."""
        fallback: Optional[MemRequest] = None
        seen_lines = set()
        seen_add = seen_lines.add
        wake: Optional[int] = None
        for request in queue.entries:
            line = request.line
            if line in seen_lines:
                continue
            seen_add(line)
            bank = request.bank
            if bank.refresh_interval > 0:
                bank._catch_up_refresh(now)
            free_at = bank.busy_until
            if request.ready_cycle > free_at:
                free_at = request.ready_cycle
            if now < free_at:
                if wake is None or free_at < wake:
                    wake = free_at
                continue
            if bank.open_row == request.row:
                return request, None
            if fallback is None:
                fallback = request
        return fallback, wake

    def _service(self, request: MemRequest) -> None:
        now = self.sim.now
        bank_state = request.bank
        row = request.row
        if request.is_write:
            hit_cycles = self._write_hit_cycles
            miss_cycles = self._write_miss_cycles
        else:
            hit_cycles = self._read_hit_cycles
            miss_cycles = self._read_miss_cycles
        hits_before = bank_state.row_hits
        done = bank_state.access(row, now, hit_cycles, miss_cycles)
        self._inflight += 1
        if self.tracer.enabled:
            # one track per bank: service window + actual row-hit outcome
            self.tracer.complete(
                "mem", f"{self._track}.bank{bank_state.index}",
                "write" if request.is_write else "read",
                now, done - now, line=request.line,
                row_hit=int(bank_state.row_hits > hits_before))
        if request.is_write:
            self.sim.schedule_at(done, self._finish_write, request)
        else:
            self.sim.schedule_at(done, self._finish_read, request)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _finish_read(self, request: MemRequest) -> None:
        now = self.sim.now
        self._read_latency[now - request.issue_cycle] += 1
        if not request.meta.get("forwarded"):
            self._inflight -= 1
        if request.callback is not None:
            request.callback(request, now)

    def _finish_write(self, request: MemRequest) -> None:
        now = self.sim.now
        if self.faults is not None and self.faults.nvm_write_fails():
            attempt = request.meta.get("write_attempts", 1)
            self.stats.inc("write.verify_failures")
            if attempt <= self.faults.config.max_write_retries:
                # write-verify-retry: the array write failed
                # verification.  The request goes back to the head of
                # the write queue, ahead of newer writes to its line,
                # and waits out an exponential backoff and then its
                # bank like any other request.
                request.meta["write_attempts"] = attempt + 1
                self.stats.inc("write.retries")
                self._inflight -= 1
                request.ready_cycle = \
                    now + self.faults.write_retry_backoff(attempt)
                self.write_queue.requeue(request)
                self._kick(request.ready_cycle)
                return
            # Bounded retries exhausted: the cell is worn out.  Remap
            # the line to a spare row — the write then completes, so
            # durability is degraded (extra latency), never lost.
            self.stats.inc("write.remaps")
        self._write_latency[now - request.issue_cycle] += 1
        self._inflight -= 1
        if self.durable_image is not None:
            self.durable_image.record(now, request.line, request.version)
        if request.callback is not None:
            request.callback(request, now)
        if request.persistent and self.ack_handler is not None:
            self._counts.write_acks += 1
            self._send_ack(request, now)

    def _send_ack(self, request: MemRequest, now: int) -> None:
        """Deliver the completion acknowledgment, subject to the
        injected interconnect fault model (lost / delayed / duplicated
        messages).  Fault-free operation calls the handler inline."""
        if self.faults is None:
            self.ack_handler(request, now)
            return
        from ..faults.injector import AckFate

        fate, delay = self.faults.ack_fate()
        if fate is AckFate.DROP:
            self.stats.inc("ack.dropped")
            return
        if fate is AckFate.DELAY:
            self.stats.inc("ack.delayed")
            self.sim.schedule(delay, self._deliver_ack, request)
            return
        if fate is AckFate.DUPLICATE:
            self.stats.inc("ack.duplicated")
            self.ack_handler(request, now)
            self.sim.schedule(1, self._deliver_ack, request)
            return
        self.ack_handler(request, now)

    def _deliver_ack(self, request: MemRequest) -> None:
        if self.ack_handler is not None:
            self.ack_handler(request, self.sim.now)
