"""Trace-driven CPU core timing model.

Approximates the paper's 4-issue out-of-order core (simulated there
with MARSSx86/PTLsim) with the stall structure that actually drives the
paper's results:

* COMPUTE retires ``issue_width`` instructions per cycle;
* LOADs block the dependent instruction stream — an out-of-order
  window of ``hide_cycles`` is credited against *synchronously known*
  latencies (cache hits), while memory misses stall for their full
  duration (a 130+-cycle NVM miss cannot hide in a 16-cycle window);
* STOREs retire into a finite store buffer and only stall the core
  when the buffer is full — or when the persistence scheme itself
  back-pressures the issue (e.g. a full transaction cache, §4.1);
* TX_BEGIN / TX_END maintain the mode and TxID registers of the
  paper's Fig. 5 and delegate commit work to the scheme (SP fences,
  Kiln commit flushes, TC commit messages).

The core owns per-core stall statistics; IPC and throughput are
computed by the runner from ``instructions_retired`` /
``committed_transactions`` and the final ``cycle``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..common.config import CoreConfig
from ..common.event import Simulator
from ..common.stats import ScopedStats
from ..cpu.trace import (
    KIND_CLWB,
    KIND_COMPUTE,
    KIND_LOAD,
    KIND_SFENCE,
    KIND_STORE,
    KIND_TX_BEGIN,
    KIND_TX_END,
    OpType,
    Trace,
    TraceOp,
)
from ..obs.tracer import NULL_TRACER, NullTracer
from ..persistence.base import PersistenceScheme


class Core:
    """One CPU core executing a prepared trace under a scheme.

    ``__slots__`` plus a module-level dispatch table: the retire loop
    runs once per trace op, so attribute reads stay off the instance
    dict and op dispatch is a tuple index on the op's dense kind code
    instead of a dict built per call.
    """

    __slots__ = (
        "sim", "core_id", "config", "stats", "scheme", "tracer", "_track",
        "mode_tx", "next_tx_id", "cycle", "_ops", "_kinds", "_counts",
        "_ip", "_on_done", "_sb_tokens", "_sb_waiting", "done",
        "_stall_reason", "_tx_begin_cycle", "instructions_retired",
        "committed_transactions", "_issue_width",
        "_stalls", "_load_latency", "_persist_load_latency",
        "_cur_op", "_cur_issued", "_stepping", "_hide_cycles",
    )

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        config: CoreConfig,
        stats: ScopedStats,
        scheme: PersistenceScheme,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.core_id = core_id
        self.config = config
        self.stats = stats
        self.scheme = scheme
        self.tracer = tracer
        self._track = f"core{core_id}"  # tracer thread label
        # architectural registers of the paper's Fig. 5
        self.mode_tx: Optional[int] = None   # TxID/Mode register (None = normal)
        self.next_tx_id: int = 1             # Next TxID register
        # execution state
        self.cycle = 0
        self._ops: List[TraceOp] = []
        self._kinds: List[int] = []
        self._counts: List[int] = []
        self._ip = 0
        self._on_done: Optional[Callable[[], None]] = None
        self._sb_tokens = config.store_buffer_entries
        self._sb_waiting = False
        self.done = False
        # stall attribution: the scheme names the reason it is about to
        # delay this core for; the completion helper charges the cycles
        self._stall_reason: Optional[str] = None
        # the op currently blocking this core and its issue cycle: the
        # core retires strictly one op at a time, so its completion
        # callbacks are plain bound methods over these two fields
        # instead of a fresh closure per load/store/fence
        self._cur_op: Optional[TraceOp] = None
        self._cur_issued = 0
        #: True while the retire loop is on the stack, so a completion
        #: that fires inside it returns to the loop instead of
        #: re-entering it
        self._stepping = False
        self._tx_begin_cycle = 0
        # headline metrics
        self.instructions_retired = 0
        self.committed_transactions = 0
        # hot-path precomputation: issue width, and the stall and
        # latency cells
        self._issue_width = config.issue_width
        self._hide_cycles = config.hide_cycles
        self._stalls = stats.counter_map("stall")
        self._load_latency = stats.tally("load.latency")
        self._persist_load_latency = stats.tally("persist_load.latency")

    # ------------------------------------------------------------------
    def run_trace(self, trace: Trace, on_done: Optional[Callable[[], None]] = None) -> None:
        """Begin executing ``trace`` (already scheme-prepared)."""
        compiled = trace.compiled()
        self._ops = trace.ops
        self._kinds = compiled.kinds
        self._counts = compiled.counts
        self._ip = 0
        self._on_done = on_done
        self.done = False
        self.sim.schedule_at(max(self.cycle, self.sim.now), self._step)

    @property
    def in_transaction(self) -> bool:
        return self.mode_tx is not None

    # ------------------------------------------------------------------
    def _step(self, dispatched: bool = True) -> None:
        """Retire ops until one waits on the event system, then yield.

        A trampoline: an op whose completion fires synchronously (a
        cache hit, a fence with nothing to order) only marks itself
        retired (``_ip += 1``), and this loop goes on with the next
        op; a completion that fires later, from another component's
        event, re-enters the loop itself.  COMPUTE runs retire from the
        compiled flat arrays — two int list reads per op, with
        cycle/retired-instruction totals folded back into the instance
        before the next timed op.

        ``dispatched`` is True when the kernel runs this call as an
        event (the core schedules itself as ``self._step``) and False
        when a completion resumes the core inside another component's
        event.  Only a dispatched step may reach its next cycle by
        :meth:`Simulator.advance_inline` instead of rescheduling
        itself; the kernel refuses whenever that could change what
        runs next."""
        ops = self._ops
        kinds = self._kinds
        counts = self._counts
        handlers = _HANDLERS
        sim = self.sim
        step = self._step
        n = len(ops)
        ip = self._ip
        cycle = self.cycle
        issue = self._issue_width
        retired = 0
        self._stepping = True
        while ip < n:
            kind = kinds[ip]
            if kind == KIND_COMPUTE:
                count = counts[ip]
                cycle += (count + issue - 1) // issue
                retired += count
                ip += 1
                continue
            # every other op interacts with timing components: align the
            # kernel clock with the core clock first.
            if retired:
                self.instructions_retired += retired
                retired = 0
            self._ip = ip
            if cycle > sim.now and not (
                    dispatched and sim.advance_inline(cycle, step)):
                self.cycle = cycle
                self._stepping = False
                sim.schedule_at(cycle, step)
                return
            self.cycle = sim.now
            handlers[kind](self, ops[ip])
            if self._ip == ip:
                # the op waits on an event; its completion resumes us
                self._stepping = False
                return
            ip = self._ip
            cycle = self.cycle
        self._stepping = False
        self._ip = ip
        self.cycle = cycle
        if retired:
            self.instructions_retired += retired
        self.done = True
        self.stats.inc("finished", 1)
        if self.tracer.enabled:
            self.tracer.instant("core", self._track, "finished", self.cycle,
                                instructions=self.instructions_retired)
        if self._on_done is not None:
            self._on_done()

    # -- stall attribution ---------------------------------------------
    def attribute_stall(self, reason: str) -> None:
        """Called by the persistence scheme *before* it delays this
        core's current op: the next completion charges its stalled
        cycles to ``reason`` (e.g. ``tc_full``, ``flush``, ``ack_wait``)
        instead of the op's default."""
        self._stall_reason = reason

    def _account_stall(self, issued: int, default_reason: str) -> None:
        """Charge the current op's stall (cycles beyond its 1-cycle
        issue slot) to one reason, and maintain ``stall.total`` at the
        same site — so per-kind counters sum to the total *by
        construction* (the invariant :class:`repro.obs.StallReport`
        asserts).

        Completions call it only when there is something to do: a
        stall to charge or a pending reason to clear.  Every other
        completion (most cache hits) skips the call."""
        reason = self._stall_reason or default_reason
        self._stall_reason = None
        stall = self.cycle - issued - 1
        if stall > 0:
            stalls = self._stalls
            stalls[reason] += stall
            stalls["total"] += stall
            if self.tracer.enabled:
                self.tracer.complete("core", self._track,
                                     f"stall.{reason}", issued + 1, stall)

    # ------------------------------------------------------------------
    # -- loads ---------------------------------------------------------
    def _do_load(self, op: TraceOp) -> None:
        self._cur_issued = self.cycle
        self._cur_op = op
        self.scheme.load(self, op, self._load_complete)

    def _load_complete(self, latency: int, version) -> None:
        issued = self._cur_issued
        now = self.sim.now
        if now == issued:
            # Synchronous (cache hit): the OoO window hides part of it.
            cost = latency - self._hide_cycles
            cycle = issued + cost if cost > 1 else issued + 1
        else:
            # Memory miss: resumed by the fill event.
            cycle = now if now > issued else issued + 1
        self.cycle = cycle
        if cycle - issued > 1 or self._stall_reason is not None:
            self._account_stall(issued, "load")
        self._load_latency[latency] += 1
        if self._cur_op.persistent:
            self._persist_load_latency[latency] += 1
        self.instructions_retired += 1
        self._ip += 1
        if not self._stepping:
            self._step(False)

    # -- stores ----------------------------------------------------------
    def _do_store(self, op: TraceOp) -> None:
        if self._sb_tokens == 0:
            # Store buffer full: retry when a store retires.
            self._sb_waiting = True
            self.stats.inc("stall.store_buffer.events")
            return
        self._sb_tokens -= 1
        self._cur_issued = self.cycle
        self._cur_op = op
        self.scheme.store(self, op, self._store_issued, self._store_retired)

    def _store_issued(self, latency: int) -> None:
        issued = self._cur_issued
        now = self.sim.now
        if now == issued:
            cycle = issued + latency if latency > 1 else issued + 1
        else:
            cycle = now if now > issued else issued + 1
        self.cycle = cycle
        if cycle - issued > 1 or self._stall_reason is not None:
            self._account_stall(issued, "store_issue")
        self.instructions_retired += 1
        self._ip += 1
        if not self._stepping:
            self._step(False)

    def _store_retired(self, _latency: int) -> None:
        self._sb_tokens += 1
        if self._sb_waiting:
            self._sb_waiting = False
            cycle = self.cycle
            now = self.sim.now
            resume_at = now if now > cycle else cycle
            stall = resume_at - cycle
            if stall > 0:
                stalls = self._stalls
                stalls["store_buffer"] += stall
                stalls["total"] += stall
                if self.tracer.enabled:
                    self.tracer.complete("core", self._track,
                                         "stall.store_buffer",
                                         cycle, stall)
            self.cycle = resume_at
            self.sim.schedule_at(resume_at, self._step)

    # -- transactions ----------------------------------------------------
    def _do_tx_begin(self, op: TraceOp) -> None:
        issued = self.cycle
        # TX_BEGIN: copy next TxID into the mode register, bump it (§4.2).
        self.mode_tx = op.tx_id
        self.next_tx_id = (op.tx_id or 0) + 1
        self._tx_begin_cycle = issued
        self._cur_issued = issued
        self._cur_op = op
        self.scheme.tx_begin(self, op, self._tx_begin_resume)

    def _tx_begin_resume(self) -> None:
        issued = self._cur_issued
        now = self.sim.now
        cycle = self.cycle = now if now > issued else issued + 1
        if cycle - issued > 1 or self._stall_reason is not None:
            self._account_stall(issued, "commit")
        self.instructions_retired += 1
        self._ip += 1
        if not self._stepping:
            self._step(False)

    def _do_tx_end(self, op: TraceOp) -> None:
        self._cur_issued = self.cycle
        self._cur_op = op
        self.scheme.tx_end(self, op, self._tx_end_resume)

    def _tx_end_resume(self) -> None:
        issued = self._cur_issued
        now = self.sim.now
        cycle = self.cycle = now if now > issued else issued + 1
        if cycle - issued > 1 or self._stall_reason is not None:
            self._account_stall(issued, "commit")
        if self.tracer.enabled:
            self.tracer.complete(
                "core", self._track, "tx", self._tx_begin_cycle,
                self.cycle - self._tx_begin_cycle, tx=self._cur_op.tx_id)
        self.mode_tx = None
        self.committed_transactions += 1
        self.instructions_retired += 1
        self._ip += 1
        if not self._stepping:
            self._step(False)

    # -- SP instrumentation ops -------------------------------------------
    def _do_clwb(self, op: TraceOp) -> None:
        self._cur_issued = self.cycle
        self._cur_op = op
        self.scheme.clwb(self, op, self._fence_resume)

    def _do_sfence(self, op: TraceOp) -> None:
        self._cur_issued = self.cycle
        self._cur_op = op
        self.scheme.sfence(self, op, self._fence_resume)

    def _fence_resume(self) -> None:
        issued = self._cur_issued
        now = self.sim.now
        cycle = self.cycle = now if now > issued else issued + 1
        if cycle - issued > 1 or self._stall_reason is not None:
            self._account_stall(issued, "fence")
        self.instructions_retired += 1
        self._ip += 1
        if not self._stepping:
            self._step(False)


def _dispatch_table() -> tuple:
    """Op kind code -> ``Core`` handler, called as ``handler(core,
    op)``.  Plain functions, not bound methods: a core holding bound
    methods of itself is a reference cycle, which keeps a finished
    machine alive until the cyclic collector's next full pass."""
    handlers = [None] * 7
    handlers[KIND_LOAD] = Core._do_load
    handlers[KIND_STORE] = Core._do_store
    handlers[KIND_TX_BEGIN] = Core._do_tx_begin
    handlers[KIND_TX_END] = Core._do_tx_end
    handlers[KIND_CLWB] = Core._do_clwb
    handlers[KIND_SFENCE] = Core._do_sfence
    return tuple(handlers)


_HANDLERS = _dispatch_table()
