"""Discrete-event simulation kernel.

All timing components in the simulator (cores, caches, memory
controllers, the transaction cache) share one :class:`Simulator`
instance.  Time is measured in CPU cycles (integers).  Components
schedule callbacks with :meth:`Simulator.schedule` and the kernel runs
them in (time, insertion-order) order, so same-cycle events fire in the
order they were scheduled — a deterministic tie-break that keeps every
simulation run reproducible.

The kernel is a flat ``heapq`` of ``(time, seq, fn, args)`` tuples.
Bucketed queues (timing wheels) measured slower on the repository
benchmark; see ``docs/performance.md``.

An event that would only reschedule itself for a later cycle can ask
:meth:`Simulator.advance_inline` to continue in place instead: when no
queued event, ``run(until=...)`` bound or advance hook could tell the
difference, the kernel moves the clock and counts one event without a
heap round trip.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling into the past, etc.)."""


#: stands in for "no bound" in the inline-continuation limits
_NO_LIMIT = float("inf")


def _as_cycles(value: Any, what: str) -> int:
    """Validate ``value`` as a whole number of cycles.

    Accepts ints and integral floats (``2.0`` → ``2``); rejects
    fractional values instead of silently truncating them — a
    ``schedule(1.5, ...)`` bug used to fire one cycle early via
    ``int()``.
    """
    if type(value) is int:
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise SimulationError(
            f"non-integral {what} {value!r}: simulation time is counted "
            "in whole cycles (round explicitly at the call site)")
    if isinstance(value, int):  # bool / int subclasses
        return int(value)
    raise SimulationError(
        f"{what} must be an integral number of cycles, got {value!r}")


class Simulator:
    """A minimal deterministic discrete-event kernel.

    >>> sim = Simulator()
    >>> order = []
    >>> sim.schedule(5, order.append, 'b')
    >>> sim.schedule(1, order.append, 'a')
    >>> sim.run()
    2
    >>> order
    ['a', 'b']
    >>> sim.now
    5
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[int, int, Callable[..., Any], tuple]] = []
        #: current simulation time in cycles — a plain attribute, not a
        #: property: the clock is read millions of times per run and
        #: only the kernel writes it
        self.now: int = 0
        self._seq: int = 0
        self._on_advance: Optional[Callable[[int], None]] = None
        #: inline continuations granted so far (see advance_inline)
        self._inlined = 0
        #: last cycle an inline continuation may reach: run()'s bound
        #: while run() dispatches, -1 otherwise (step() grants none)
        self._inline_until = -1
        #: value of ``_inlined`` at which run()'s max_events budget is
        #: spent
        self._inline_stop = _NO_LIMIT

    def clock(self) -> int:
        """The current cycle, as a callable.  The transaction caches
        time-stamp their trace events with it: it references only the
        kernel, where a bound method of their owner would reference
        the owner back."""
        return self.now

    def set_advance_hook(self, hook: Optional[Callable[[int], None]]) -> None:
        """Install ``hook(new_time)``, called whenever the kernel
        advances simulation time — *between* events, never during one.

        This is how the observability layer's epoch sampler observes
        the clock without scheduling events of its own: a
        self-rescheduling sampler event would keep the queue non-empty
        forever and perturb same-cycle insertion order, whereas the
        hook leaves the event schedule untouched.  The hook must not
        call :meth:`schedule`; it fires with ``now`` already at the
        new time.  Pass ``None`` to remove.
        """
        self._on_advance = hook

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if type(delay) is not int:  # fast path: almost every call passes int
            delay = _as_cycles(delay, "delay")
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles into the past")
        self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at absolute ``time``."""
        if type(time) is not int:
            time = _as_cycles(time, "time")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}; current time is {self.now}"
            )
        heapq.heappush(self._queue, (time, self._seq, fn, args))
        self._seq += 1

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def next_event_time(self) -> Optional[int]:
        """Time of the next queued event, or ``None`` if none remain."""
        return self._queue[0][0] if self._queue else None

    def advance_inline(self, time: int, fn: Callable[..., Any]) -> bool:
        """Let the event being dispatched continue as ``fn``'s next
        event at ``time``, without a trip through the queue.

        Granted only while :meth:`run` dispatches, when ``time`` comes
        strictly before every queued event, lies within run's ``until``
        and the max_events budget, and no advance hook is installed: then
        scheduling ``fn`` at ``time`` would make it the very next event
        to fire, with nothing observable in between.  On a grant the
        clock moves to ``time`` and the continuation counts as one
        executed event; the caller then does what ``fn`` would have
        done.  On a refusal nothing changes and the caller schedules
        ``fn`` as usual.  ``fn`` names the continuation for event
        accounting (``count_events_by_owner``) only.
        """
        queue = self._queue
        if (time > self._inline_until or self._on_advance is not None
                or (queue and queue[0][0] <= time)
                or self._inlined >= self._inline_stop):
            return False
        self.now = time
        self._inlined += 1
        return True

    def step(self) -> bool:
        """Run the single next event.  Returns False if none remain."""
        if not self._queue:
            return False
        time, _seq, fn, args = heapq.heappop(self._queue)
        if time > self.now and self._on_advance is not None:
            self.now = time
            self._on_advance(time)
        else:
            self.now = time
        fn(*args)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Args:
            until: stop once simulation time would exceed this cycle
                (events at exactly ``until`` still run).
            max_events: safety valve — raise if more than this many
                events fire (guards against livelock bugs in components).
                Inline continuations count, and stop being granted
                once the budget is spent.

        Returns:
            The number of events executed, inline continuations
            included.
        """
        # step() inlined: one call per event instead of two.  The hook
        # is re-read per event, as step() does, so an event that
        # installs or removes it takes effect from the next event on.
        # Inline continuations (advance_inline) count as events too:
        # ``executed`` adds them from the _inlined counter.
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        inlined_at_start = self._inlined
        self._inline_until = _NO_LIMIT if until is None else until
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                time, _seq, fn, args = pop(queue)
                if time > self.now and self._on_advance is not None:
                    self.now = time
                    self._on_advance(time)
                else:
                    self.now = time
                if max_events is not None:
                    # the budget left for this event's inline
                    # continuations, this event itself included
                    self._inline_stop = (inlined_at_start + max_events
                                         - executed - 1)
                fn(*args)
                executed += 1
                if (max_events is not None and executed + self._inlined
                        - inlined_at_start > max_events):
                    raise SimulationError(
                        f"exceeded max_events={max_events}; probable livelock"
                    )
        finally:
            self._inline_until = -1
            self._inline_stop = _NO_LIMIT
        if until is not None and self.now < until:
            self.now = until
        return executed + self._inlined - inlined_at_start
