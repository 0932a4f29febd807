"""Litmus runner: one scheme × one program × a crash at *every* cycle.

The naive shape — a fresh simulation per crash point, as
:func:`repro.sim.crash.run_with_crash` does for a handful of
fractions — is quadratic in run length and unusable at every-cycle
granularity.  Instead the runner steps **one** simulation
(``system.run(until=cycle)`` cycle by cycle) and queries the scheme's
recovery model at each pause.  That is sound because every scheme's
``durable_lines``/``durably_committed`` are pure functions of event
history (the durable image replays a timeline; TC/COW commit scans
build fresh lists) — a differential test in
``tests/test_litmus_runner.py`` holds the stepped states equal to
fresh-run states at sampled cycles.

Between two consecutive events the machine state is frozen, so cycles
in which no event executed are covered by the previous check; the
runner skips re-verifying them (``crash_cycles`` counts every covered
cycle, ``states_checked`` the distinct states actually verified).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..common.config import FaultConfig, MachineConfig, small_machine_config
from ..common.types import SchemeName, Version
from ..sim.system import System
from . import broken  # noqa: F401  (registers the broken_commit scheme)
from .oracle import check_membership, tx_summaries
from .program import LitmusProgram

#: per-result cap on recorded violating crash points (a broken scheme
#: violates at thousands of cycles; the report needs the shape, not all)
MAX_VIOLATION_RECORDS = 25


def scheme_label(scheme: Union[str, SchemeName]) -> str:
    return scheme.value if isinstance(scheme, SchemeName) else str(scheme)


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


def iter_crash_states(
    system: System,
    *,
    check_every: int = 1,
) -> Iterator[Tuple[int, set, Dict[int, Optional[Version]]]]:
    """Step a loaded system, yielding ``(cycle, durably_committed,
    recovered_image)`` at every cycle where the machine state changed
    (plus cycle 0 and the final state)."""
    cycle = 0
    last_events = -1
    while True:
        system.run(until=cycle)
        if system.events_executed != last_events:
            last_events = system.events_executed
            yield (cycle,
                   system.scheme.durably_committed(cycle),
                   system.scheme.durable_lines(cycle))
        if system.sim.pending() == 0:
            return
        cycle += check_every


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
        scheme=scheme_label(scheme),
        total_cycles=0,
        crash_cycles=0,
        states_checked=0,
        faulty=config.faults.enabled,
    )
    for cycle, committed, recovered in iter_crash_states(
            system, check_every=check_every):
        result.states_checked += 1
        messages = check_membership(summaries, committed, recovered)
        if messages:
            result.violating_cycles += 1
            if len(result.violations) < max_violation_records:
                result.violations.append({
                    "crash_cycle": cycle,
                    "committed": sorted(committed),
                    "messages": messages,
                })
    result.total_cycles = system.sim.now
    result.crash_cycles = system.sim.now // max(1, check_every) + 1
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
            scheme=scheme_label(scheme),
            config=config_for(program, index),
            check_every=check_every,
        )
        for index, (program, scheme) in enumerate(pairs)
    ]
    return LitmusMatrixReport(
        results=(engine or ExperimentEngine()).run(points))
