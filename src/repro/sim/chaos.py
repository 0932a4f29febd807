"""Chaos harness: crash injection × fault injection, checked end to end.

The crash tests (:mod:`repro.sim.crash`) prove failure atomicity under
*clean* power cuts on *perfect* hardware.  The chaos harness removes
the second assumption: it sweeps fault-injection configurations
(stochastic NVM write failures, lost/delayed/duplicated acks, TC bit
flips) × crash fractions × schemes × workloads.  A chaos sweep is a
crash sweep over faulty configs: every (workload, scheme) pair is one
crash point on a machine config whose ``faults`` field carries the
rates, each crash checked by the same legal-persist-set oracle as the
crash and litmus harnesses (:mod:`repro.litmus.oracle`).  The report
aggregates each run's ``fault_stats`` — retries, remaps, ack
timeouts/reissues, ECC corrections, COW degradations — so a sweep
shows not only *that* every run recovered consistently but *what it
cost*.

Determinism: the injector's per-site streams derive from
``FaultConfig.seed``, so a chaos sweep is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

from ..common.config import FaultConfig, MachineConfig, small_machine_config
from ..common.types import SchemeName
from .crash import CrashReport
from .parallel import CRASH_FRACTIONS, CrashPoint, ExperimentEngine


@dataclass
class ChaosReport:
    """Aggregate of a chaos sweep."""

    fault_config: FaultConfig
    runs: List[CrashReport] = field(default_factory=list)

    @property
    def total_runs(self) -> int:
        return len(self.runs)

    @property
    def violations(self) -> List[str]:
        out = []
        for run in self.runs:
            out.extend(
                f"{run.workload}/{run.scheme.value}@{run.crash_cycle}: {v}"
                for v in run.violations)
        return out

    @property
    def survived(self) -> int:
        return sum(run.consistent for run in self.runs)

    def totals(self) -> Dict[str, float]:
        """Summed fault/resilience counters over every run."""
        totals: Dict[str, float] = {}
        for run in self.runs:
            for name, value in run.fault_stats.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def format(self) -> str:
        cfg = self.fault_config
        lines = [
            "chaos sweep: "
            f"write-fail={cfg.nvm_write_fail_rate:g} "
            f"ack-loss={cfg.ack_loss_rate:g} "
            f"ack-delay={cfg.ack_delay_rate:g} "
            f"ack-dup={cfg.ack_duplicate_rate:g} "
            f"bit-flip={cfg.tc_bit_flip_rate:g} seed={cfg.seed}",
            f"  runs: {self.total_runs}, consistent: {self.survived}, "
            f"torn: {self.total_runs - self.survived}",
        ]
        totals = self.totals()
        active = {k: v for k, v in totals.items() if v}
        if active:
            lines.append("  resilience activity: " + ", ".join(
                f"{name}={value:.0f}" for name, value in sorted(active.items())))
        else:
            lines.append("  resilience activity: none (fault-free run)")
        for run in self.runs:
            status = "CONSISTENT" if run.consistent else "TORN"
            lines.append(
                f"  {run.workload:<10} {run.scheme.value:<8} "
                f"@ {run.crash_cycle:>8}/{run.total_cycles:<8} "
                f"{len(run.committed):>4} tx {run.recovered_lines:>5} lines "
                f"-> {status}")
            lines.extend(f"      {v}" for v in run.violations[:3])
        return "\n".join(lines)


def chaos_sweep(
    workloads: Sequence[str],
    schemes: Sequence[Union[str, SchemeName]] = (SchemeName.TXCACHE,),
    fault_config: Optional[FaultConfig] = None,
    fractions: Sequence[float] = CRASH_FRACTIONS,
    *,
    config: Optional[MachineConfig] = None,
    num_cores: int = 1,
    operations: int = 40,
    seed: int = 42,
    engine: Optional[ExperimentEngine] = None,
    trace_dir=None,
    trace_epoch: int = 0,
) -> ChaosReport:
    """Sweep fault injection × crash fractions × schemes × workloads.

    Each (workload, scheme) pair is one crash point on the faulty
    config (:func:`~repro.sim.crash.crash_at_fractions`): crashes are
    placed as fractions of the *fault-free* run length, so a sweep at
    different fault rates crashes at comparable execution points.  The
    points run as one batch on ``engine`` (by default an inline
    :class:`~repro.sim.parallel.ExperimentEngine`: ``jobs=1``, no
    cache); every point regenerates its traces from the same seed.

    Each run gets its own fault seed (``fault_config.seed`` + run
    index, pair by pair and fraction by fraction) so the sweep explores
    distinct fault timings instead of replaying one draw sequence 5×N
    times — while staying exactly reproducible for a given base seed.

    Every pair's config is built up front, so a bad fault knob raises
    before any point simulates.
    """
    fault_config = fault_config or FaultConfig()
    base = config or small_machine_config(num_cores=num_cores)
    pairs = [(workload, SchemeName.parse(scheme).value)
             for workload in workloads for scheme in schemes]
    # fail fast: replace() re-runs the FaultConfig validators before
    # the first — potentially minutes-long — simulation
    points = [
        CrashPoint(workload, scheme,
                   replace(base, faults=replace(
                       fault_config,
                       seed=fault_config.seed + index * len(fractions))),
                   tuple(fractions), operations=operations, seed=seed,
                   trace_dir=trace_dir, trace_epoch=trace_epoch)
        for index, (workload, scheme) in enumerate(pairs)]
    engine = engine or ExperimentEngine()
    return ChaosReport(fault_config=fault_config,
                       runs=[run for reports in engine.run(points)
                             for run in reports])
