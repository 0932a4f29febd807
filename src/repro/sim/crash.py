"""Crash injection and recovery checking.

The correctness contract of every persistence scheme is **failure
atomicity**: after a crash at any cycle, recovery must produce an NVM
image in which every transaction is either completely present (it is
*durably committed*) or completely absent — and for each line, the
version found must be the newest among durably committed writers in
program order (write-order control, paper §2).

:func:`run_with_crash` builds a fresh system, pauses the event loop at
the crash cycle, asks the scheme's recovery model for the recovered
image and the durably-committed set, and checks both against the
scheme-independent expectation derived from the workload traces.
:func:`crash_at_fractions` does the same at several fractions of one
experiment's run, stepping one system through every crash on a clean
config; it is the one body behind :func:`crash_sweep`, the chaos sweep
(:mod:`repro.sim.chaos`) and the persistent heap's ``crash_test``.
The machine config's ``faults`` field decides whether the hardware is
perfect or lossy; either way each report carries the resilience
machinery's counters (all 0 on a clean run).

The expectation machinery itself lives in :mod:`repro.litmus.oracle`
(the legal-persist-set oracle): :func:`check_recovery` is membership in
the legal persist set, and :func:`expected_image` is its degenerate
single-image case — exact whenever cores write disjoint heaps, which
is true for every built-in workload.  On shared conflict lines the
oracle accepts any per-core-maximal committed writer, which is what
the litmus matrix exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Union

from ..common.config import FaultConfig, MachineConfig, small_machine_config
from ..common.types import SchemeName, Version
from ..cpu.trace import Trace
from ..litmus.oracle import (check_membership, expected_image_from_summaries,
                             tx_summaries)
from .parallel import (CRASH_FRACTIONS, CrashPoint, ExperimentEngine,
                       capture_obs, make_params, write_trace)
from .runner import make_traces
from .system import System


def expected_image(traces: Sequence[Trace],
                   committed: Set[int]) -> Dict[int, Version]:
    """The line→version map implied by the traces if exactly the
    transactions in ``committed`` survived, in per-core program order
    (cores write disjoint heaps, so per-core order is total)."""
    return expected_image_from_summaries(tx_summaries(traces), committed)


def check_recovery(traces: Sequence[Trace],
                   recovered: Dict[int, Optional[Version]],
                   committed: Set[int]) -> List[str]:
    """Return atomicity/ordering violations (empty list = consistent).

    Membership in the scheme-independent legal persist set: per-core
    prefix closure of ``committed`` (write-order control), per-line
    candidate membership (all-or-nothing transactions, newest committed
    writer per core), and no uncommitted data leaked into the NVM.
    """
    return check_membership(tx_summaries(traces), committed, recovered)


def crash_and_check(system: System, traces: Sequence[Trace],
                    crash_cycle: int):
    """Run ``system`` up to ``crash_cycle`` (volatile state left as the
    crash finds it), query the scheme's recovery model in place, and
    check the recovered image against the legal persist set.  Returns
    ``(committed, recovered, violations)`` — the one crash/recover/check
    sequence :func:`run_with_crash` (and the litmus stepping runner,
    in spirit) is built on."""
    system.run(until=crash_cycle)
    committed = system.scheme.durably_committed(crash_cycle)
    recovered = system.scheme.durable_lines(crash_cycle, committed)
    return committed, recovered, check_recovery(traces, recovered, committed)


#: stats counters surfaced per crash run: (report key, counter name);
#: a ``{}`` in the name is the core id, summed over the per-core TCs
FAULT_COUNTERS = (
    ("nvm_write_retries", "mem.nvm.write.retries"),
    ("nvm_write_remaps", "mem.nvm.write.remaps"),
    ("acks_dropped", "mem.nvm.ack.dropped"),
    ("acks_delayed", "mem.nvm.ack.delayed"),
    ("acks_duplicated", "mem.nvm.ack.duplicated"),
    ("ack_timeouts", "tc.ack.timeouts"),
    ("ack_reissues", "tc.ack.reissues"),
    ("ecc_refills", "tc.ecc.refills"),
    ("ecc_fallbacks", "scheme.txcache.ecc_fallbacks"),
    ("degraded_fallbacks", "scheme.txcache.degraded_fallbacks"),
    ("unmatched_acks", "tc.{}.ack.unmatched"),
    ("ecc_corrected", "tc.{}.ecc.corrected"),
    ("ecc_uncorrectable", "tc.{}.ecc.uncorrectable"),
)


def _collect_fault_stats(system: System) -> Dict[str, float]:
    counter = system.stats.counter
    cores = range(system.config.num_cores)
    return {key: (sum(counter(name.format(i)) for i in cores)
                  if "{}" in name else counter(name))
            for key, name in FAULT_COUNTERS}


@dataclass
class CrashReport:
    """Outcome of one crash-injection run."""

    workload: str
    scheme: SchemeName
    crash_cycle: int
    total_cycles: int          # length of an uninterrupted run
    committed: Set[int] = field(default_factory=set)
    program_committed: int = 0  # TX_ENDs retired before the crash
    recovered_lines: int = 0
    violations: List[str] = field(default_factory=list)
    #: resilience counters keyed as in FAULT_COUNTERS
    fault_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (``committed`` as a sorted list so
        the output is deterministic and round-trips as a set)."""
        return {
            "workload": self.workload,
            "scheme": self.scheme.value,
            "crash_cycle": self.crash_cycle,
            "total_cycles": self.total_cycles,
            "committed": sorted(self.committed),
            "program_committed": self.program_committed,
            "recovered_lines": self.recovered_lines,
            "violations": list(self.violations),
            "fault_stats": dict(self.fault_stats),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CrashReport":
        return cls(
            workload=str(data["workload"]),
            scheme=SchemeName.parse(data["scheme"]),
            crash_cycle=int(data["crash_cycle"]),
            total_cycles=int(data["total_cycles"]),
            committed=set(data["committed"]),
            program_committed=int(data["program_committed"]),
            recovered_lines=int(data["recovered_lines"]),
            violations=list(data["violations"]),
            fault_stats=dict(data["fault_stats"]),
        )


def measure_run_length(
    workload: str,
    scheme: Union[str, SchemeName],
    *,
    config: Optional[MachineConfig] = None,
    num_cores: int = 1,
    operations: int = 50,
    seed: int = 42,
    traces: Optional[Sequence[Trace]] = None,
    **workload_params,
) -> int:
    """Cycles an uninterrupted run of this experiment takes (used to
    place crash points as fractions of the execution)."""
    config = config or small_machine_config(num_cores=num_cores)
    system = System(config, scheme)
    if traces is None:
        traces = make_traces(workload, config.num_cores, operations,
                             seed=seed, **workload_params)
    system.load_traces(traces)
    system.run()
    return system.sim.now


def _crash_report(system: System, workload: str,
                  scheme: Union[str, SchemeName], traces: Sequence[Trace],
                  crash_cycle: int, total_cycles: int) -> CrashReport:
    """Crash the loaded ``system`` at ``crash_cycle``, recover, check."""
    committed, recovered, violations = crash_and_check(
        system, traces, crash_cycle)
    return CrashReport(
        workload=workload,
        scheme=SchemeName.parse(scheme),
        crash_cycle=crash_cycle,
        total_cycles=total_cycles,
        committed=set(committed),
        program_committed=sum(core.committed_transactions
                              for core in system.cores),
        recovered_lines=len(recovered),
        violations=violations,
        fault_stats=_collect_fault_stats(system),
    )


def run_with_crash(
    workload: str,
    scheme: Union[str, SchemeName],
    crash_cycle: int,
    *,
    config: Optional[MachineConfig] = None,
    num_cores: int = 1,
    operations: int = 50,
    seed: int = 42,
    total_cycles: Optional[int] = None,
    traces: Optional[Sequence[Trace]] = None,
    obs=None,
    **workload_params,
) -> CrashReport:
    """Run a fresh system, crash it at ``crash_cycle``, recover, check.

    The system is paused exactly at the crash cycle, so volatile state
    (caches, queues) is as a real crash would find it, and the scheme's
    nonvolatile structures (NVM image, TC contents, logs) are read in
    place by its recovery model.  ``config.faults`` turns on fault
    injection; ``obs`` optionally captures a trace of the run up to
    the crash.
    """
    config = config or small_machine_config(num_cores=num_cores)
    system = System(config, scheme, obs=obs)
    if traces is None:
        traces = make_traces(workload, config.num_cores, operations,
                             seed=seed, **workload_params)
    system.load_traces(traces)
    return _crash_report(system, workload, scheme, traces, crash_cycle,
                         total_cycles or crash_cycle)


def crash_at_fractions(
    workload: str,
    scheme: Union[str, SchemeName],
    config: MachineConfig,
    fractions: Sequence[float],
    *,
    operations: int = 50,
    seed: int = 42,
    traces: Optional[Sequence[Trace]] = None,
    trace_dir=None,
    trace_epoch: int = 0,
    trace_stem: str = "crash",
    **workload_params,
) -> List[CrashReport]:
    """Crash one experiment at each fraction of its run; one report
    per fraction, in fraction order.

    The traces are built once.  An uninterrupted run of ``config`` with
    its faults cleared gives the length; fraction ``f`` crashes at
    cycle ``max(1, int(length * f))``, so a sweep at different fault
    rates crashes at comparable execution points.  On a fault-free
    config one system is stepped through the sorted crash cycles, as
    the litmus runner steps through every cycle (a crash pauses the
    run; it does not end it), and equal cycles share one check.  With
    faults on, fraction ``j`` runs a fresh system with fault seed
    ``config.faults.seed + j``, so each crash sees its own fault draws.

    ``trace_dir`` writes one Chrome trace per crash, taken at its
    pause, as ``<trace_stem>.<j>.trace.json``; ``trace_epoch`` turns
    on occupancy sampling.
    """
    if traces is None:
        traces = make_traces(workload, config.num_cores, operations,
                             seed=seed, **workload_params)
    total = measure_run_length(workload, scheme,
                               config=replace(config, faults=FaultConfig()),
                               traces=traces)
    cycles = [max(1, int(total * fraction)) for fraction in fractions]

    if config.faults.enabled:
        reports = []
        for index, cycle in enumerate(cycles):
            faults = replace(config.faults, seed=config.faults.seed + index)
            obs = capture_obs(trace_dir, trace_epoch)
            reports.append(run_with_crash(
                workload, scheme, cycle,
                config=replace(config, faults=faults), total_cycles=total,
                traces=traces, obs=obs))
            write_trace(trace_dir, f"{trace_stem}.{index}", obs)
        return reports

    obs = capture_obs(trace_dir, trace_epoch)
    system = System(config, scheme, obs=obs)
    system.load_traces(traces)
    by_cycle: Dict[int, CrashReport] = {}
    for cycle in sorted(set(cycles)):
        by_cycle[cycle] = _crash_report(system, workload, scheme, traces,
                                        cycle, total)
        for index, at in enumerate(cycles):
            if at == cycle:
                write_trace(trace_dir, f"{trace_stem}.{index}", obs)
    return [by_cycle[cycle] for cycle in cycles]


def crash_sweep(
    workload: str,
    scheme: Union[str, SchemeName],
    fractions: Sequence[float] = CRASH_FRACTIONS,
    *,
    config: Optional[MachineConfig] = None,
    num_cores: int = 1,
    operations: int = 50,
    seed: int = 42,
    engine: Optional[ExperimentEngine] = None,
    trace_dir=None,
    trace_epoch: int = 0,
    **workload_params,
) -> List[CrashReport]:
    """Crash the same experiment at several points of its execution.

    The sweep is one :class:`~repro.sim.parallel.CrashPoint` (see
    :func:`crash_at_fractions`) run on ``engine`` (by default an inline
    :class:`~repro.sim.parallel.ExperimentEngine`: ``jobs=1``, no
    cache).  The point regenerates its deterministic traces from the
    seed, so a pooled or cached sweep reports exactly what an inline
    one does.

    ``trace_dir`` writes one Chrome trace per crash, named by the
    point's cache key and the fraction index; ``trace_epoch`` turns on
    occupancy sampling.
    """
    if workload_params.pop("traces", None) is not None:
        raise ValueError("crash sweep points regenerate traces per point; "
                         "pass seed/operations instead of traces")
    point = CrashPoint(
        workload, SchemeName.parse(scheme).value,
        config or small_machine_config(num_cores=num_cores),
        tuple(fractions), operations=operations, seed=seed,
        workload_params=make_params(workload_params), trace_dir=trace_dir,
        trace_epoch=trace_epoch)
    return (engine or ExperimentEngine()).run([point])[0]
