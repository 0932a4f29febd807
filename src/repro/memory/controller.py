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

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..common.config import MemCtrlConfig
from ..common.event import Simulator
from ..common.stats import ScopedStats
from ..common.types import MemReqType, MemRequest, Version
from ..obs.tracer import NULL_TRACER, NullTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector

AckHandler = Callable[[MemRequest, int], None]


class DurableImage:
    """Timeline of versions that have physically reached the memory.

    ``record`` is called by the controller at the cycle each write
    completes in the array.  ``state_at(cycle)`` replays the timeline
    up to an arbitrary crash point, yielding exactly the line→version
    map a post-crash recovery procedure would find in the NVM.
    """

    def __init__(self) -> None:
        self._events: List[Tuple[int, int, int, Optional[Version]]] = []
        self._seq = 0
        self._current: Dict[int, Optional[Version]] = {}

    def record(self, cycle: int, line: int, version: Optional[Version]) -> None:
        self._events.append((cycle, self._seq, line, version))
        self._seq += 1
        self._current[line] = version

    def state_at(self, cycle: int) -> Dict[int, Optional[Version]]:
        """Line→version map as of ``cycle`` (inclusive)."""
        state: Dict[int, Optional[Version]] = {}
        for event_cycle, _seq, line, version in self._events:
            if event_cycle > cycle:
                break
            state[line] = version
        return state

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
        self.read_queue = RequestQueue(f"{config.name}.rq", config.read_queue_entries)
        self.write_queue = RequestQueue(f"{config.name}.wq", config.write_queue_entries)
        self._drain_mode = False
        self._tick_at: Optional[int] = None
        self._inflight = 0
        self._retries_pending = 0
        self._last_write_service = 0
        # Hot-path precomputation: the scheduler runs every few cycles,
        # so bank timings (pure functions of the frozen config) and
        # fully-qualified stat keys are resolved once here instead of
        # per event.
        timing = config.timing
        self._write_hit_cycles = timing.write_cycles(freq_ghz, row_hit=True)
        self._write_miss_cycles = timing.write_cycles(freq_ghz, row_hit=False)
        self._read_hit_cycles = timing.read_cycles(freq_ghz, row_hit=True)
        self._read_miss_cycles = timing.read_cycles(freq_ghz, row_hit=False)
        self._period = config.scheduler_period_cycles
        self._drain_high = config.write_drain_threshold
        self._drain_low = self._drain_high / 2
        # Refresh-free (NVM) banks have *pure* scans: a scan's only side
        # effect is DRAM refresh catch-up, so for NVM a failed scan can
        # be memoized and the bank-availability horizon cached without
        # perturbing any timing.  DRAM keeps the exact per-tick path
        # (its per-tick catch-ups move busy_until, which feeds the
        # re-kick target).
        self._no_refresh = config.timing.refresh_interval_ns <= 0
        # cached banks.earliest_available(); invalidated on every access
        self._earliest: Optional[int] = None
        # queue.name -> (queue.version, none_until): a failed scan of
        # that queue version provably stays None while now < none_until
        # (busy_until never decreases between bank accesses)
        self._scan_memo: Dict[str, Tuple[int, int]] = {}
        base = stats.base
        self._inc = base.inc
        self._hist = base.hist
        self._k_write_requests = stats.resolve("write.requests")
        self._k_write_lines = stats.resolve("write.lines")
        self._k_read_requests = stats.resolve("read.requests")
        self._k_read_forwarded = stats.resolve("read.forwarded")
        self._k_read_latency = stats.resolve("read.latency")
        self._k_write_latency = stats.resolve("write.latency")
        self._k_write_acks = stats.resolve("write.acks")
        self._k_starvation_grants = stats.resolve("write.starvation_grants")

    # ------------------------------------------------------------------
    # external interface
    # ------------------------------------------------------------------
    def enqueue(self, request: MemRequest) -> None:
        """Accept a line-granular request; completion is signalled via
        ``request.callback(request, cycle)``."""
        now = self.sim.now
        request.issue_cycle = now
        # Resolve the address map once; every scheduler scan after this
        # reads the cached (bank, row) instead of redoing the division.
        request.bank, request.row = self.banks.locate(request.line)
        inc = self._inc
        if request.is_write:
            inc(self._k_write_requests)
            inc(self._k_write_lines)
            self.write_queue.push(request)
        else:
            inc(self._k_read_requests)
            pending_write = self.write_queue.find_line(request.line)
            if pending_write is not None:
                # Serve the read from the queued write (newest data).
                inc(self._k_read_forwarded)
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
            or self._retries_pending > 0
        )

    # ------------------------------------------------------------------
    # scheduler
    # ------------------------------------------------------------------
    def _kick(self, at_time: int) -> None:
        """Ensure a scheduler tick is pending no later than ``at_time``."""
        at_time = max(at_time, self.sim.now)
        if self._tick_at is not None and self._tick_at <= at_time:
            return
        self._tick_at = at_time
        self.sim.schedule_at(at_time, self._tick)

    def _tick(self) -> None:
        """One scheduler decision: drain-mode hysteresis, FR-FCFS pick
        over the priority-ordered queues, service or re-arm.

        The whole decision is fused into one function on purpose: on a
        bank-busy poll (by far the common tick outcome) the cost is a
        few attribute reads and the re-arm ``schedule_at`` — profiling
        showed the previous helper-per-step layout spending more time
        on call frames than on the decision itself.

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
            if starved and not drain:
                self._inc(self._k_starvation_grants)
            queues = (write_queue, read_queue)
        else:
            queues = (read_queue, write_queue)
        request: Optional[MemRequest] = None
        for queue in queues:
            chosen = self._scan(queue, now)
            if chosen is not None:
                queue.pop(chosen)
                if self.tracer.enabled:
                    self._trace_queues()
                if chosen.is_write:
                    self._last_write_service = now
                request = chosen
                break
        if request is None:
            if read_queue.entries or w_entries:
                # All candidate banks are busy; retry when one frees
                # up.  No tick is pending here (this one was just
                # consumed and nothing above kicks), so arm directly
                # instead of going through _kick.
                if self._no_refresh:
                    earliest = self._earliest
                    if earliest is None:
                        earliest = self._earliest = \
                            self.banks.earliest_available()
                else:
                    earliest = self.banks.earliest_available()
                if earliest <= now:
                    earliest = now + 1
                self._tick_at = earliest
                self.sim.schedule_at(earliest, self._tick)
            return
        self._service(request)
        if read_queue.entries or write_queue.entries:
            at_time = now + self._period
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

    def _scan(self, queue, now: int) -> Optional[MemRequest]:
        """First row-hit whose bank is free; else first bank-free entry.

        A row-hit entry is skipped if an *older* request to the same
        line exists earlier in the queue — same-line order is preserved
        unconditionally.

        This is the hottest loop in the simulator: it runs over the
        admitted queue every scheduler tick, so it reads the (bank,
        row) pair precomputed at enqueue and inlines
        ``Bank.available`` / row-hit checks (``_catch_up_refresh`` is a
        no-op for refresh-free NVM banks and is skipped outright)."""
        entries = queue.entries
        if not entries:
            return None
        memo = self._scan_memo.get(queue.name)
        if memo is not None and memo[0] == queue.version and now < memo[1]:
            # A scan of this exact queue content already failed, and no
            # candidate bank frees up before memo[1]: busy_until only
            # moves through _service (which clears the memo), so the
            # scan outcome cannot have changed.  Skipping it is safe
            # because refresh-free scans have no side effects.
            return None
        if len(entries) == 1:
            # single candidate (the common read-queue case): no seen-set
            # or fallback bookkeeping needed — free bank means this
            # request wins whether or not its row is open
            request = entries[0]
            bank = request.bank
            if bank.refresh_interval > 0:
                bank._catch_up_refresh(now)
            busy_until = bank.busy_until
            if now < busy_until:
                if self._no_refresh:
                    self._scan_memo[queue.name] = (queue.version, busy_until)
                return None
            return request
        fallback: Optional[MemRequest] = None
        seen_lines = set()
        seen_add = seen_lines.add
        min_busy: Optional[int] = None
        for request in entries:
            line = request.line
            if line in seen_lines:
                continue
            seen_add(line)
            bank = request.bank
            if bank.refresh_interval > 0:
                bank._catch_up_refresh(now)
            busy_until = bank.busy_until
            if now < busy_until:
                if min_busy is None or busy_until < min_busy:
                    min_busy = busy_until
                continue
            if bank.open_row == request.row:
                return request
            if fallback is None:
                fallback = request
        if fallback is None and min_busy is not None and self._no_refresh:
            # the earliest any of this queue's candidates frees up
            self._scan_memo[queue.name] = (queue.version, min_busy)
        return fallback

    def _service(self, request: MemRequest) -> None:
        now = self.sim.now
        # The bank access below moves busy_until (fault-injected write
        # retries may even *lower* it, servicing a busy bank), so every
        # cached availability fact is stale after this point (fault
        # retries reach here directly, outside any scheduler tick).
        self._earliest = None
        if self._scan_memo:
            self._scan_memo.clear()
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
        self._hist(self._k_read_latency, now - request.issue_cycle)
        if not request.meta.get("forwarded"):
            self._inflight -= 1
        if request.callback is not None:
            request.callback(request, now)
        self._kick(now + 1)

    def _finish_write(self, request: MemRequest) -> None:
        now = self.sim.now
        if self.faults is not None and self.faults.nvm_write_fails():
            attempt = request.meta.get("write_attempts", 1)
            self.stats.inc("write.verify_failures")
            if attempt <= self.faults.config.max_write_retries:
                # write-verify-retry: the array write failed
                # verification; back off exponentially and redo the
                # bank access with the same request (same-line order
                # is safe: the line's newest data is rewritten).
                request.meta["write_attempts"] = attempt + 1
                self.stats.inc("write.retries")
                self._inflight -= 1
                self._retries_pending += 1
                self.sim.schedule(self.faults.write_retry_backoff(attempt),
                                  self._retry_write, request)
                self._kick(now + 1)
                return
            # Bounded retries exhausted: the cell is worn out.  Remap
            # the line to a spare row — the write then completes, so
            # durability is degraded (extra latency), never lost.
            self.stats.inc("write.remaps")
        self._hist(self._k_write_latency, now - request.issue_cycle)
        self._inflight -= 1
        if self.durable_image is not None:
            self.durable_image.record(now, request.line, request.version)
        if request.callback is not None:
            request.callback(request, now)
        if request.persistent and self.ack_handler is not None:
            self._inc(self._k_write_acks)
            self._send_ack(request, now)
        self._kick(now + 1)

    def _retry_write(self, request: MemRequest) -> None:
        self._retries_pending -= 1
        self._service(request)

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
