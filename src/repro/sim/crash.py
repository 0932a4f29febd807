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
scheme-independent expectation derived from the workload traces.  The
machine config's ``faults`` field decides whether the hardware is
perfect or lossy, so the same call is one point of a crash sweep on a
clean config and one point of a chaos sweep (:mod:`repro.sim.chaos`)
on a faulty one; either way the report carries the resilience
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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from ..common.config import MachineConfig, small_machine_config
from ..common.types import SchemeName, Version
from ..cpu.trace import Trace
from ..litmus.oracle import (check_membership, expected_image_from_summaries,
                             tx_summaries)
from .parallel import (CrashPoint, ExperimentEngine, RunLengthPoint,
                       make_params)
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
    recovered = system.scheme.durable_lines(crash_cycle)
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
    committed, recovered, violations = crash_and_check(
        system, traces, crash_cycle)
    program_committed = sum(core.committed_transactions
                            for core in system.cores)
    return CrashReport(
        workload=workload,
        scheme=SchemeName.parse(scheme),
        crash_cycle=crash_cycle,
        total_cycles=total_cycles or crash_cycle,
        committed=set(committed),
        program_committed=program_committed,
        recovered_lines=len(recovered),
        violations=violations,
        fault_stats=_collect_fault_stats(system),
    )


def crash_sweep(
    workload: str,
    scheme: Union[str, SchemeName],
    fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
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

    A run-length point places the crash cycles as fractions of an
    uninterrupted run, then one crash point per fraction runs on
    ``engine`` (by default an inline
    :class:`~repro.sim.parallel.ExperimentEngine`: ``jobs=1``, no
    cache).  Every point regenerates its deterministic traces from the
    seed, so a pooled sweep reports exactly what an inline one does.

    ``trace_dir`` writes one Chrome trace per crash point, named by the
    point's cache key; ``trace_epoch`` turns on occupancy sampling.
    """
    if workload_params.pop("traces", None) is not None:
        raise ValueError("crash sweep points regenerate traces per point; "
                         "pass seed/operations instead of traces")
    config = config or small_machine_config(num_cores=num_cores)
    engine = engine or ExperimentEngine()
    scheme_value = SchemeName.parse(scheme).value
    params = make_params(workload_params)
    total = engine.run([RunLengthPoint(
        workload, scheme_value, config, operations=operations, seed=seed,
        workload_params=params)])[0]
    return engine.run([
        CrashPoint(workload, scheme_value, max(1, int(total * fraction)),
                   total, config, operations=operations, seed=seed,
                   workload_params=params, trace_dir=trace_dir,
                   trace_epoch=trace_epoch)
        for fraction in fractions])
