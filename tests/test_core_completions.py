"""The core's completion paths against the bodies they replaced.

``Core``'s completions (load, store issue, TX_BEGIN/TX_END, fence)
compute the resume cycle with comparisons instead of ``max()``, call
``_account_stall`` only when there is a stall to charge or a pending
reason to clear, and step the retire loop themselves.
``ReferenceCore`` keeps the earlier bodies — ``max()``,
``_account_stall`` on every op and an ``_advance`` hop back into the
loop — and is swapped into a built system with ``core.__class__``.
Both must simulate the same machine: the same result (raw stats
included), the same number of events and the same stall cycles per
kind, on the golden figure points, on the default litmus suite under
every real scheme and on random litmus programs.  The paper's schemes
never resume an op exactly one or two cycles late, or name a stall
reason for an op that then does not stall; a scheme whose hooks do
both, in every combination, covers those edges.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import small_machine_config
from repro.common.types import NVM_BASE
from repro.cpu.core import Core
from repro.cpu.trace import OpType, TraceBuilder, TraceOp
from repro.litmus.generator import default_suite, random_program
from repro.sim.runner import collect_result, make_traces
from repro.sim.system import System
from test_golden_figures import FIGURE_PAIRS, OPS, SEED

REAL_SCHEMES = ("sp", "kiln", "txcache", "undo_log", "redo_log",
                "hybrid_dram")


class ReferenceCore(Core):
    """``Core`` with the completion bodies it had before they were
    flattened.  Adds no slots, so ``core.__class__`` can be swapped."""

    __slots__ = ()

    def _advance(self) -> None:
        self._ip += 1
        if not self._stepping:
            self._step(False)

    def _load_complete(self, latency: int, version) -> None:
        issued = self._cur_issued
        if self.sim.now == issued:
            cost = max(1, latency - self.config.hide_cycles)
            self.cycle = issued + cost
        else:
            self.cycle = max(self.sim.now, issued + 1)
        self._account_stall(issued, "load")
        self._load_latency[latency] += 1
        if self._cur_op.persistent:
            self._persist_load_latency[latency] += 1
        self.instructions_retired += 1
        self._advance()

    def _store_issued(self, latency: int) -> None:
        issued = self._cur_issued
        if self.sim.now == issued:
            self.cycle = issued + max(1, latency)
        else:
            self.cycle = max(self.sim.now, issued + 1)
        self._account_stall(issued, "store_issue")
        self.instructions_retired += 1
        self._advance()

    def _tx_begin_resume(self) -> None:
        issued = self._cur_issued
        self.cycle = max(self.sim.now, issued + 1)
        self._account_stall(issued, "commit")
        self.instructions_retired += 1
        self._advance()

    def _tx_end_resume(self) -> None:
        issued = self._cur_issued
        self.cycle = max(self.sim.now, issued + 1)
        self._account_stall(issued, "commit")
        if self.tracer.enabled:
            self.tracer.complete(
                "core", self._track, "tx", self._tx_begin_cycle,
                self.cycle - self._tx_begin_cycle, tx=self._cur_op.tx_id)
        self.mode_tx = None
        self.committed_transactions += 1
        self.instructions_retired += 1
        self._advance()

    def _fence_resume(self) -> None:
        issued = self._cur_issued
        self.cycle = max(self.sim.now, issued + 1)
        self._account_stall(issued, "fence")
        self.instructions_retired += 1
        self._advance()


def outcome(system: System, traces, reference: bool):
    """Drain ``traces`` on ``system`` (its cores swapped to
    :class:`ReferenceCore` when ``reference``) and return what it
    simulated: the result dict, events executed and stall cycles per
    kind summed over the cores."""
    if reference:
        for core in system.cores:
            core.__class__ = ReferenceCore
    system.load_traces(traces)
    system.run()
    assert all(type(core) is (ReferenceCore if reference else Core)
               for core in system.cores)
    stalls = {}
    for name, value in system.stats.counters("core.").items():
        _core, _id, kind, *rest = name.split(".")
        if kind == "stall" and rest:
            key = ".".join(rest)
            stalls[key] = stalls.get(key, 0) + value
    return (collect_result(system).to_dict(include_raw=True),
            system.events_executed, stalls)


def assert_same(make_system, traces):
    """Both cores simulate ``traces`` alike; returns the stall cycles
    per kind, so a caller can check that the runs stalled at all."""
    reference = outcome(make_system(), traces, reference=True)
    assert reference == outcome(make_system(), traces, reference=False)
    return reference[2]


@pytest.mark.parametrize("figure", sorted(FIGURE_PAIRS))
def test_golden_points(figure):
    workload, scheme, config_factory = FIGURE_PAIRS[figure]
    traces = make_traces(workload, 2, OPS, seed=SEED)
    stalls = assert_same(lambda: System(config_factory(), scheme), traces)
    assert stalls["total"] > 0


@pytest.mark.parametrize("scheme", REAL_SCHEMES)
def test_default_litmus_suite(scheme):
    for program in default_suite(0):
        config = small_machine_config(num_cores=program.num_cores)
        assert_same(lambda: System(config, scheme), program.to_traces())


@given(seed=st.integers(0, 2**32 - 1),
       cores=st.integers(1, 3),
       scheme=st.sampled_from(REAL_SCHEMES))
@settings(max_examples=30, deadline=None)
def test_random_litmus_programs(seed, cores, scheme):
    program = random_program(seed, cores=cores)
    config = small_machine_config(num_cores=program.num_cores)
    assert_same(lambda: System(config, scheme), program.to_traces())


def edge_scheme(system: System) -> System:
    """Patch ``system``'s scheme hooks so that each call names no stall
    reason, ``flush`` or ``tc_full`` and resumes its op 0 to 3 cycles
    late (a store at once with an issue latency of 0 to 3, or 1 to 3
    cycles late), each drawn from one seeded generator: over the edge
    trace every op kind meets every pairing, and a reason left pending
    by one op meets the next op."""
    sim, hierarchy, rng = system.sim, system.hierarchy, random.Random(7)

    def charge(core):
        reason = rng.choice((None, "flush", "tc_full"))
        if reason is not None:
            core.attribute_stall(reason)

    def resume_later(core, op, resume):
        charge(core)
        delay = rng.randrange(4)
        if delay:
            sim.schedule(delay, resume)
        else:
            resume()

    def load(core, op, on_complete):
        charge(core)
        hierarchy.load(core.core_id, op.addr, on_complete)

    def store(core, op, on_issue, on_retire):
        charge(core)
        hierarchy.store(core.core_id, op.addr, op.version, op.persistent,
                        op.tx_id, on_retire)
        delay = rng.randrange(-3, 4)
        if delay > 0:
            sim.schedule(delay, on_issue, 1)
        else:
            on_issue(-delay)

    scheme = system.scheme
    scheme.load, scheme.store = load, store
    scheme.tx_begin = scheme.tx_end = resume_later
    scheme.clwb = scheme.sfence = resume_later
    return system


def edge_trace():
    builder = TraceBuilder("edges")
    for index in range(84):
        addr = NVM_BASE + (index % 5) * 4096
        builder.load(addr)
        builder.begin_tx()
        builder.load(addr + 64)
        builder.store(addr)
        builder.end_tx()
        ops = builder.trace.ops
        ops.append(TraceOp(OpType.CLWB, addr))
        ops.append(TraceOp(OpType.SFENCE))
        builder.compute(3)
    return builder.build()


def test_every_delay_meets_every_stall_reason():
    config = small_machine_config(num_cores=1)
    stalls = assert_same(lambda: edge_scheme(System(config, "optimal")),
                         [edge_trace()])
    assert stalls["flush"] > 0 and stalls["tc_full"] > 0
