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
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling into the past, etc.)."""


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

        Returns:
            The number of events executed.
        """
        # step() inlined: one call per event instead of two.  The hook
        # is re-read per event, as step() does, so an event that
        # installs or removes it takes effect from the next event on.
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        while queue:
            if until is not None and queue[0][0] > until:
                break
            time, _seq, fn, args = pop(queue)
            if time > self.now and self._on_advance is not None:
                self.now = time
                self._on_advance(time)
            else:
                self.now = time
            fn(*args)
            executed += 1
            if max_events is not None and executed > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; probable livelock"
                )
        if until is not None and self.now < until:
            self.now = until
        return executed
