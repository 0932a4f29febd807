"""Litmus runner: one scheme × one program × a crash at *every* cycle.

The naive shape — a fresh simulation per crash point — is quadratic in
run length and unusable at every-cycle granularity.  Instead every
crash check in the repo goes through one stepper,
:func:`step_crashes`: it pauses **one** simulation with
``system.run(until=cycle)`` at each cycle of an increasing schedule
and queries the scheme's recovery model in place.  That is sound
because every scheme's ``durable_lines``/``durably_committed`` are
pure functions of event history (the durable image replays a
timeline; TC/COW commit scans build fresh lists), and the fault
injector's per-site streams draw the same sequence however the run is
paused — differential tests in ``tests/test_litmus_runner.py`` and
``tests/test_crash_sweep.py`` hold the stepped states equal to
fresh-run states at sampled cycles, faults on and off.  The litmus
runner feeds the stepper the event-to-event schedule below; a crash
sweep (:func:`repro.sim.crash.crash_at_fractions`) feeds it its sorted
fraction cycles, and :func:`repro.sim.crash.run_with_crash` its one
crash cycle.

Between two consecutive events the machine state is frozen, so a
crash at any cycle in which no event executes exposes the state of
the previous check.  The runner therefore steps from event to event:
after each pause it jumps to the first stride cycle at or after the
next queued event (``crash_cycles`` counts every covered cycle,
``states_checked`` the pauses, each of which ran at least one event).
Consecutive pauses often expose the same committed set and recovered
image; :func:`check_crash_states` then reuses the oracle's verdict
rather than recomputing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from ..common.config import FaultConfig, MachineConfig, small_machine_config
from ..common.types import SchemeName, Version
from ..sim.system import System
from .oracle import TxSummary, all_tx_ids, check_membership, tx_summaries
from .program import LitmusProgram

#: per-result cap on recorded violating crash points (a broken scheme
#: violates at thousands of cycles; the report needs the shape, not all)
MAX_VIOLATION_RECORDS = 25


@dataclass
class LitmusResult:
    """Outcome of one (program, scheme) every-cycle crash sweep."""

    program: str
    fingerprint: str
    scheme: str
    total_cycles: int
    crash_cycles: int          # cycles covered (== total_cycles + 1)
    states_checked: int        # distinct machine states verified
    violations: List[Dict[str, object]] = field(default_factory=list)
    violating_cycles: int = 0  # total, beyond the recorded cap
    faulty: bool = False

    @property
    def consistent(self) -> bool:
        return self.violating_cycles == 0

    @property
    def first_violation(self) -> Optional[Dict[str, object]]:
        return self.violations[0] if self.violations else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "fingerprint": self.fingerprint,
            "scheme": self.scheme,
            "total_cycles": self.total_cycles,
            "crash_cycles": self.crash_cycles,
            "states_checked": self.states_checked,
            "violations": [dict(v) for v in self.violations],
            "violating_cycles": self.violating_cycles,
            "faulty": self.faulty,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LitmusResult":
        return cls(
            program=str(data["program"]),
            fingerprint=str(data["fingerprint"]),
            scheme=str(data["scheme"]),
            total_cycles=int(data["total_cycles"]),
            crash_cycles=int(data["crash_cycles"]),
            states_checked=int(data["states_checked"]),
            violations=[dict(v) for v in data["violations"]],
            violating_cycles=int(data["violating_cycles"]),
            faulty=bool(data["faulty"]),
        )


def _require_stride(check_every: int) -> None:
    if check_every < 1:
        raise ValueError(f"check_every must be >= 1, got {check_every}")


#: one paused machine as recovery sees it:
#: ``(cycle, durably_committed, recovered_image)``
CrashState = Tuple[int, set, Dict[int, Optional[Version]]]


def step_crashes(system: System,
                 cycles: Iterable[int]) -> Iterator[CrashState]:
    """The one crash sequence: for each cycle of the increasing
    ``cycles``, run the loaded ``system`` up to it (volatile state left
    as the crash finds it) and yield the scheme's recovery model read
    in place.  ``cycles`` is pulled one cycle at a time, after each
    pause, so a schedule may read the paused machine to pick the next
    crash; a crash past the end of the run sees the drained machine."""
    scheme = system.scheme
    for cycle in cycles:
        system.run(until=cycle)
        committed = scheme.durably_committed(cycle)
        yield cycle, committed, scheme.durable_lines(cycle, committed)


def _event_schedule(system: System, check_every: int) -> Iterator[int]:
    """Cycle 0, then the first stride cycle at or after each next
    queued event (the stride cycles before it would run nothing),
    until the queue drains."""
    cycle = 0
    while True:
        yield cycle
        next_event = system.sim.next_event_time()
        if next_event is None:
            return
        cycle += -((cycle - next_event) // check_every) * check_every


def iter_crash_states(
    system: System,
    *,
    check_every: int = 1,
) -> Iterator[CrashState]:
    """Step a loaded system, yielding ``(cycle, durably_committed,
    recovered_image)`` at cycle 0 and at every multiple of
    ``check_every`` where the machine state changed, the last being
    the cycle at which the event queue drained."""
    _require_stride(check_every)
    return step_crashes(system, _event_schedule(system, check_every))


def check_crash_states(
    system: System,
    summaries: Sequence[Sequence[TxSummary]],
    *,
    check_every: int = 1,
) -> Iterator[Tuple[int, set, List[str]]]:
    """:func:`iter_crash_states` with each state's oracle verdict:
    yields ``(cycle, durably_committed, violation messages)``.  A state
    whose committed set and recovered image equal the previous state's
    reuses that state's messages instead of checking again."""
    known_tx = all_tx_ids(summaries)
    last = None
    messages: List[str] = []
    for cycle, committed, recovered in iter_crash_states(
            system, check_every=check_every):
        if (committed, recovered) != last:
            messages = check_membership(summaries, committed, recovered,
                                        known_tx)
            last = (committed, recovered)
        yield cycle, committed, messages


def run_litmus(
    program: LitmusProgram,
    scheme: Union[str, SchemeName],
    *,
    config: Optional[MachineConfig] = None,
    fault_config: Optional[FaultConfig] = None,
    check_every: int = 1,
    max_violation_records: int = MAX_VIOLATION_RECORDS,
) -> LitmusResult:
    """Execute ``program`` under ``scheme``, crash at every cycle, and
    check each recovered image against the legal persist set."""
    _require_stride(check_every)
    program.validate()
    config = config or small_machine_config(num_cores=program.num_cores)
    if config.num_cores < program.num_cores:
        raise ValueError(
            f"program {program.name} needs {program.num_cores} cores, "
            f"config has {config.num_cores}")
    if fault_config is not None:
        config = replace(config, faults=fault_config)

    traces = program.to_traces()
    summaries = tx_summaries(traces)
    system = System(config, scheme)
    system.load_traces(traces)

    result = LitmusResult(
        program=program.name,
        fingerprint=program.fingerprint,
        scheme=SchemeName.parse(scheme).value,
        total_cycles=0,
        crash_cycles=0,
        states_checked=0,
        faulty=config.faults.enabled,
    )
    for cycle, committed, messages in check_crash_states(
            system, summaries, check_every=check_every):
        result.states_checked += 1
        if messages:
            result.violating_cycles += 1
            if len(result.violations) < max_violation_records:
                result.violations.append({
                    "crash_cycle": cycle,
                    "committed": sorted(committed),
                    "messages": messages,
                })
    result.total_cycles = system.sim.now
    result.crash_cycles = system.sim.now // check_every + 1
    return result


@dataclass
class LitmusMatrixReport:
    """Aggregate of a litmus matrix run."""

    results: List[LitmusResult] = field(default_factory=list)

    @property
    def total_runs(self) -> int:
        return len(self.results)

    @property
    def consistent_runs(self) -> int:
        return sum(r.consistent for r in self.results)

    @property
    def violations(self) -> List[str]:
        out = []
        for result in self.results:
            first = result.first_violation
            if first is not None:
                out.append(
                    f"{result.program}/{result.scheme}"
                    f"@{first['crash_cycle']}: "
                    f"{first['messages'][0]} "
                    f"({result.violating_cycles} violating cycles)")
        return out

    @property
    def total_states_checked(self) -> int:
        return sum(r.states_checked for r in self.results)

    @property
    def total_crash_cycles(self) -> int:
        return sum(r.crash_cycles for r in self.results)

    def format(self) -> str:
        lines = [
            f"litmus matrix: {self.total_runs} runs "
            f"({self.consistent_runs} consistent, "
            f"{self.total_runs - self.consistent_runs} violating), "
            f"{self.total_crash_cycles} crash points "
            f"({self.total_states_checked} distinct states checked)",
        ]
        for result in self.results:
            status = ("OK" if result.consistent
                      else f"VIOLATION x{result.violating_cycles}")
            tag = " +faults" if result.faulty else ""
            lines.append(
                f"  {result.program:<12} {result.scheme:<14} "
                f"{result.total_cycles:>7} cyc "
                f"{result.states_checked:>5} states{tag} -> {status}")
            first = result.first_violation
            if first is not None:
                lines.append(f"      first @ cycle {first['crash_cycle']} "
                             f"(committed={first['committed']}):")
                lines.extend(f"        {m}" for m in first["messages"][:3])
        return "\n".join(lines)


def run_litmus_matrix(
    programs: Sequence[LitmusProgram],
    schemes: Sequence[Union[str, SchemeName]],
    *,
    config: Optional[MachineConfig] = None,
    fault_config: Optional[FaultConfig] = None,
    check_every: int = 1,
    engine=None,
) -> LitmusMatrixReport:
    """Run every program under every scheme.

    With ``fault_config``, each run derives its own fault seed (base
    seed + run index) the way :func:`repro.sim.chaos.chaos_sweep`
    does, so the matrix explores distinct fault timings while staying
    exactly reproducible.  The runs are litmus points on ``engine`` (by
    default an inline :class:`~repro.sim.parallel.ExperimentEngine`:
    ``jobs=1``, no cache).
    """
    from ..sim.parallel import ExperimentEngine, LitmusPoint

    def config_for(program: LitmusProgram,
                   index: int) -> MachineConfig:
        cfg = config or small_machine_config(num_cores=program.num_cores)
        if fault_config is not None:
            cfg = replace(cfg, faults=replace(
                fault_config, seed=fault_config.seed + index))
        return cfg

    pairs = [(program, scheme)
             for program in programs for scheme in schemes]
    points = [
        LitmusPoint(
            program=program.canonical_json(),
            scheme=SchemeName.parse(scheme).value,
            config=config_for(program, index),
            check_every=check_every,
        )
        for index, (program, scheme) in enumerate(pairs)
    ]
    return LitmusMatrixReport(
        results=(engine or ExperimentEngine()).run(points))
