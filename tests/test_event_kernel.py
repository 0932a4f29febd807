"""Unit and property tests for the discrete-event kernel.

The unit tests pin individual behaviours of :class:`Simulator`; the
hypothesis layer at the end runs random recursive *schedule programs*
on it and on a sort-by-(time, insertion) model of the kernel contract,
and requires every observable to agree.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.event import SimulationError, Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(10, order.append, "late")
    sim.schedule(1, order.append, "early")
    sim.schedule(5, order.append, "middle")
    sim.run()
    assert order == ["early", "middle", "late"]


def test_same_cycle_events_run_in_insertion_order(sim):
    order = []
    for tag in range(8):
        sim.schedule(3, order.append, tag)
    sim.run()
    assert order == list(range(8))


def test_now_advances_to_last_event(sim):
    sim.schedule(42, lambda: None)
    sim.run()
    assert sim.now == 42


def test_schedule_during_run_is_executed(sim):
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 3:
            sim.schedule(2, chain, depth + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 6


def test_run_until_stops_before_future_events(sim):
    fired = []
    sim.schedule(5, fired.append, "a")
    sim.schedule(50, fired.append, "b")
    sim.run(until=10)
    assert fired == ["a"]
    assert sim.now == 10
    sim.run()
    assert fired == ["a", "b"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_max_events_guard_raises(sim):
    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False
    sim.schedule(1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_pending_counts_queued_events(sim):
    assert sim.pending() == 0
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending() == 2


def test_run_returns_executed_count(sim):
    for delay in (1, 1, 7):
        sim.schedule(delay, lambda: None)
    assert sim.run() == 3


def test_advance_hook_fires_between_time_steps(sim):
    """The hook fires once per distinct timestamp, after the clock
    moves and before any callback at the new time — even when several
    events share a cycle."""
    log = []
    sim.set_advance_hook(lambda t: log.append(("hook", t)))
    for tag in ("a", "b"):
        sim.schedule(3, lambda tag=tag: log.append(("ev3", tag)))
    sim.schedule(5, lambda: log.append(("ev5", "c")))
    sim.run()
    assert log == [("hook", 3), ("ev3", "a"), ("ev3", "b"),
                   ("hook", 5), ("ev5", "c")]


def test_advance_hook_not_fired_on_until_jump(sim):
    """run(until=...) jumping the clock past the last event is a quiet
    jump: the hook only fires on the way to an event."""
    log = []
    sim.schedule(2, lambda: None)
    sim.set_advance_hook(lambda t: log.append(t))
    sim.run(until=100)
    assert log == [2]
    assert sim.now == 100


# ---------------------------------------------------------------------------
# Integral-time validation (regression: `schedule` used to truncate
# floats via int(), silently firing 1.5-cycle delays one cycle early).

def test_fractional_delay_rejected(sim):
    with pytest.raises(SimulationError, match="non-integral"):
        sim.schedule(1.5, lambda: None)
    assert sim.pending() == 0


def test_fractional_absolute_time_rejected(sim):
    with pytest.raises(SimulationError, match="non-integral"):
        sim.schedule_at(2.25, lambda: None)
    assert sim.pending() == 0


def test_integral_float_times_accepted(sim):
    """Whole-number floats (e.g. from ns->cycle arithmetic) are fine
    and behave exactly like their int counterparts."""
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule_at(1.0, order.append, "a")
    sim.run()
    assert order == ["a", "b"]
    assert sim.now == 2
    assert isinstance(sim.now, int)


def test_non_numeric_time_rejected(sim):
    with pytest.raises(SimulationError, match="integral number of cycles"):
        sim.schedule("soon", lambda: None)


@pytest.mark.parametrize("entry", ["schedule", "schedule_at"])
@pytest.mark.parametrize("value", [None, "3", 1 + 2j, [1], (1,), 2.5,
                                   float("nan"), float("inf")],
                         ids=["None", "str", "complex", "list", "tuple",
                              "fraction", "nan", "inf"])
def test_invalid_times_rejected_without_queueing(sim, entry, value):
    """Every non-cycle value is refused by both entry points, and a
    refused call leaves nothing behind in the queue."""
    with pytest.raises(SimulationError):
        getattr(sim, entry)(value, lambda: None)
    assert sim.pending() == 0


@pytest.mark.parametrize("value", [True, 3], ids=["bool", "int"])
def test_int_subclass_times_accepted_as_plain_int(sim, value):
    sim.schedule_at(value, lambda: None)
    sim.run()
    assert sim.now == int(value)
    assert type(sim.now) is int


def test_run_until_includes_events_at_the_boundary(sim):
    fired = []
    sim.schedule(10, fired.append, "at")
    sim.schedule(11, fired.append, "after")
    assert sim.run(until=10) == 1
    assert fired == ["at"]
    assert sim.pending() == 1


def test_run_until_in_the_past_does_not_rewind(sim):
    sim.schedule(20, lambda: None)
    sim.run()
    assert sim.run(until=5) == 0
    assert sim.now == 20


def test_schedule_at_now_runs_after_already_queued_same_cycle_events(sim):
    """A zero-delay event scheduled from a callback joins the back of
    the current cycle: it runs after events already queued for it."""
    order = []

    def first():
        order.append("first")
        sim.schedule_at(sim.now, order.append, "spawned")

    sim.schedule(4, first)
    sim.schedule(4, order.append, "queued")
    sim.run()
    assert order == ["first", "queued", "spawned"]
    assert sim.now == 4


def test_callback_receives_positional_args(sim):
    seen = []
    sim.schedule(1, lambda *args: seen.append(args), 1, "two", None)
    sim.run()
    assert seen == [(1, "two", None)]


def test_max_events_equal_to_work_does_not_raise(sim):
    """The valve trips only when *more* than ``max_events`` fire."""
    for delay in range(5):
        sim.schedule(delay, lambda: None)
    assert sim.run(max_events=5) == 5


def test_step_fires_advance_hook_only_when_time_moves(sim):
    log = []
    sim.set_advance_hook(log.append)
    sim.schedule(0, lambda: None)
    sim.schedule(3, lambda: None)
    sim.schedule(3, lambda: None)
    while sim.step():
        pass
    assert log == [3]


def test_advance_hook_removed_with_none(sim):
    log = []
    sim.set_advance_hook(log.append)
    sim.schedule(1, lambda: None)
    sim.run()
    sim.set_advance_hook(None)
    sim.schedule(1, lambda: None)
    sim.run()
    assert log == [1]
    assert sim.now == 2


def test_max_events_abort_keeps_state_consistent(sim):
    """A max_events abort leaves already-run events removed, so a
    resumed run() continues from the right place."""
    order = []
    for tag in range(6):
        sim.schedule(1, order.append, tag)
    with pytest.raises(SimulationError):
        sim.run(max_events=3)
    assert order == [0, 1, 2, 3]
    assert sim.pending() == 2
    sim.run()
    assert order == list(range(6))


# ---------------------------------------------------------------------------
# Property layer: the kernel against a sort-by-(time, insertion) model.

class SortedModel:
    """The kernel contract spelled out: pending events kept in a plain
    list, the next one found by sorting on (time, insertion order)."""

    def __init__(self):
        self.now, self.hook, self._events, self._seq = 0, None, [], 0

    def set_advance_hook(self, hook):
        self.hook = hook

    def schedule(self, delay, fn, *args):
        self._events.append((self.now + delay, self._seq, fn, args))
        self._seq += 1

    def pending(self):
        return len(self._events)

    def run(self, until=None, max_events=None):
        executed = 0
        while self._events:
            self._events.sort(key=lambda event: event[:2])
            time, _seq, fn, args = self._events[0]
            if until is not None and time > until:
                break
            del self._events[0]
            advanced, self.now = time > self.now, time
            if advanced and self.hook is not None:
                self.hook(time)
            fn(*args)
            executed += 1
            if max_events is not None and executed > max_events:
                raise SimulationError("max_events")
        if until is not None and self.now < until:
            self.now = until
        return executed


# A schedule node is (delay, children): when the node's event fires, it
# schedules each child relative to the firing time.  Recursion gives
# programs where callbacks schedule callbacks — the shape every
# simulator component has.
_NODES = st.recursive(
    st.tuples(st.integers(min_value=0, max_value=40), st.just(())),
    lambda children: st.tuples(st.integers(min_value=0, max_value=40),
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=24,
)
_PROGRAMS = st.lists(_NODES, min_size=1, max_size=8)
_UNTILS = st.lists(st.integers(min_value=0, max_value=200),
                   max_size=3).map(sorted)


def _execute(kernel, program, untils=(), max_events=None):
    """Run ``program`` on ``kernel``; return every observable the
    kernel contract promises (firing log, hook calls, counts, clock,
    pending events)."""
    firing_log = []
    hook_calls = []
    kernel.set_advance_hook(hook_calls.append)
    labels = itertools.count()

    def fire(label, children):
        firing_log.append((kernel.now, label))
        for child in children:
            schedule(child)

    def schedule(node):
        delay, children = node
        kernel.schedule(delay, fire, next(labels), children)

    for node in program:
        schedule(node)
    executed = []
    aborted = False
    try:
        for until in untils:
            executed.append(kernel.run(until=until))
            executed.append(kernel.pending())
        executed.append(kernel.run(max_events=max_events))
    except SimulationError:
        aborted = True
    return {
        "firing_log": firing_log,
        "hook_calls": hook_calls,
        "executed": executed,
        "aborted": aborted,
        "now": kernel.now,
        "pending": kernel.pending(),
    }


@settings(max_examples=200, deadline=None)
@given(program=_PROGRAMS)
def test_kernel_matches_model_full_drain(program):
    assert _execute(Simulator(), program) == _execute(SortedModel(), program)


@settings(max_examples=200, deadline=None)
@given(program=_PROGRAMS, untils=_UNTILS)
def test_kernel_matches_model_segmented_run(program, untils):
    """run(until=...) segments, including quiet clock jumps past the
    last event, leave kernel and model in identical states."""
    assert (_execute(Simulator(), program, untils=untils)
            == _execute(SortedModel(), program, untils=untils))


@settings(max_examples=100, deadline=None)
@given(program=_PROGRAMS, max_events=st.integers(min_value=1, max_value=30))
def test_kernel_matches_model_max_events_abort(program, max_events):
    """The livelock valve trips after the same event as the model,
    leaving the same partial firing log, clock and pending count."""
    assert (_execute(Simulator(), program, max_events=max_events)
            == _execute(SortedModel(), program, max_events=max_events))
