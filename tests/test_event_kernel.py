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


def test_next_event_time_peeks_without_running(sim):
    assert sim.next_event_time() is None
    sim.schedule(7, lambda: None)
    sim.schedule(3, lambda: None)
    assert sim.next_event_time() == 3
    assert sim.pending() == 2 and sim.now == 0
    sim.run(until=5)
    assert sim.next_event_time() == 7
    sim.run()
    assert sim.next_event_time() is None


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


def _hook_log(drive):
    """Events that install and remove the advance hook mid-run; the
    log interleaves events with the hook's calls."""
    sim = Simulator()
    log = []

    def hook(time):
        log.append(("advance", time))

    def install():
        sim.set_advance_hook(hook)
        log.append(("install", sim.now))

    def remove():
        sim.set_advance_hook(None)
        log.append(("remove", sim.now))

    def event():
        log.append(("event", sim.now))

    sim.schedule(1, event)
    sim.schedule(2, install)
    sim.schedule(2, event)      # same cycle: no advance in between
    sim.schedule(4, event)
    sim.schedule(6, remove)
    sim.schedule(6, event)
    sim.schedule(9, event)
    drive(sim)
    return log


HOOK_LOG = [("event", 1), ("install", 2), ("event", 2), ("advance", 4),
            ("event", 4), ("advance", 6), ("remove", 6), ("event", 6),
            ("event", 9)]


def _step_all(sim):
    while sim.step():
        pass


def _run_in_pieces(sim):
    for until in (2, 4, 5):
        sim.run(until=until)
    sim.run()


@pytest.mark.parametrize("drive", [_step_all, lambda sim: sim.run(),
                                   _run_in_pieces],
                         ids=["step", "run", "run-until"])
def test_hook_installed_or_removed_by_an_event_takes_effect_next(drive):
    """run() drains the queue without calling step(), so it must see a
    hook change made inside an event exactly as step() does."""
    assert _hook_log(drive) == HOOK_LOG


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


# ---------------------------------------------------------------------------
# Inline continuations (Simulator.advance_inline) against a kernel that
# never grants one: every observable must agree.

class NoInlineSimulator(Simulator):
    """The reference kernel: every continuation goes through the queue."""

    def advance_inline(self, time, fn):
        return False


def _spinner(kernel, log, period, stop):
    """An event that, like the core's retire loop, continues as its own
    next event ``period`` cycles later up to ``stop``: inline when the
    kernel grants it, through the queue otherwise."""
    def tick():
        while True:
            log.append(("tick", kernel.now))
            if kernel.now + period > stop:
                return
            if not kernel.advance_inline(kernel.now + period, tick):
                kernel.schedule(period, tick)
                return
    return tick


def _steps(kernel):
    count = 0
    while kernel.step():
        count += 1
    return count


def _spin(kernel, drive, period=3, stop=40, others=(7, 9, 9, 20),
          hook=False):
    log = []
    if hook:
        kernel.set_advance_hook(lambda time: log.append(("advance", time)))
    kernel.schedule(0, _spinner(kernel, log, period, stop))
    for time in others:
        kernel.schedule(time, lambda: log.append(("other", kernel.now)))
    executed = drive(kernel)
    return log, executed, kernel.now, kernel.pending()


_DRIVES = {
    "run": lambda kernel: kernel.run(),
    "run-until": lambda kernel: sum(kernel.run(until=until)
                                    for until in (5, 9, 10, 31, None)),
    "step": _steps,
}


@pytest.mark.parametrize("drive", list(_DRIVES.values()), ids=list(_DRIVES))
@pytest.mark.parametrize("hook", [False, True], ids=["", "hook"])
def test_inline_continuations_keep_dispatch_order(drive, hook):
    """Same firing log, event count, clock and queue as the reference:
    a continuation never jumps a queued event (the ``other`` at 9 ties
    with a tick and was queued first), never crosses ``until``, and
    counts as one event."""
    got = _spin(Simulator(), drive, hook=hook)
    assert got == _spin(NoInlineSimulator(), drive, hook=hook)
    assert got[1] == len([entry for entry in got[0]
                          if entry[0] != "advance"])


def test_run_grants_inline_continuations():
    kernel = Simulator()
    _spin(kernel, _DRIVES["run"])
    assert kernel._inlined > 0


def test_step_runs_exactly_one_event():
    kernel = Simulator()
    log = []
    kernel.schedule(0, _spinner(kernel, log, 1, 10))
    for count in range(1, 12):
        assert kernel.step()
        assert len(log) == count
    assert not kernel.step()
    assert kernel._inlined == 0


def test_advance_inline_refused_outside_run():
    kernel = Simulator()
    assert kernel.advance_inline(5, lambda: None) is False
    assert kernel.now == 0


def test_advance_hook_fires_once_per_distinct_time():
    log = _spin(Simulator(), _DRIVES["run"], hook=True)[0]
    advances = [time for kind, time in log if kind == "advance"]
    fired = sorted({time for kind, time in log if kind != "advance"})
    assert advances == [time for time in fired if time > 0]


@pytest.mark.parametrize("max_events", [1, 2, 10, 25])
def test_max_events_counts_inline_continuations(max_events):
    """A spinner of 101 ticks trips the valve after as many events as
    on the reference kernel: continuations count, and stop being
    granted once the budget is spent."""
    def drive(kernel):
        with pytest.raises(SimulationError):
            kernel.run(max_events=max_events)
        return None

    got = _spin(Simulator(), drive, stop=300, others=())
    assert got == _spin(NoInlineSimulator(), drive, stop=300, others=())
    assert len(got[0]) == max_events + 1


@settings(max_examples=200, deadline=None)
@given(period=st.integers(min_value=1, max_value=7),
       stop=st.integers(min_value=0, max_value=60),
       others=st.lists(st.integers(min_value=0, max_value=60), max_size=6),
       untils=_UNTILS, hook=st.booleans())
def test_inline_continuations_match_reference(period, stop, others, untils,
                                               hook):
    def drive(kernel):
        return sum(kernel.run(until=until) for until in [*untils, None])

    assert (_spin(Simulator(), drive, period, stop, others, hook)
            == _spin(NoInlineSimulator(), drive, period, stop, others, hook))
