"""Pre-flight validation of experiment setups.

Simulation studies fail quietly: a hierarchy whose LLC is smaller than
the private caches it must include, a footprint that never leaves the
L1, or a trace so short that steady state never arrives all produce
*numbers* — just meaningless ones.  :func:`validate_setup` inspects a
machine configuration (and optionally traces) and returns warnings a
careful experimenter would want before trusting results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..common.config import MachineConfig
from ..common.types import is_persistent_addr, line_addr
from ..cpu.trace import KIND_LOAD, KIND_STORE, Trace


@dataclass
class ValidationReport:
    """Warnings (suspicious) and errors (unusable) about a setup."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def format(self) -> str:
        lines = []
        for message in self.errors:
            lines.append(f"ERROR: {message}")
        for message in self.warnings:
            lines.append(f"warning: {message}")
        return "\n".join(lines) if lines else "setup looks sane"


def validate_config(config: MachineConfig) -> ValidationReport:
    """Warn about a machine configuration that builds but is suspect.

    Unusable values never get this far: each config dataclass rejects
    them in its ``__post_init__``."""
    report = ValidationReport()
    total_l2 = config.l2.size_bytes * config.num_cores
    if config.llc.size_bytes < total_l2:
        report.warnings.append(
            f"inclusive LLC ({config.llc.size_bytes} B) is smaller than "
            f"the sum of private L2s ({total_l2} B): LLC hits will be "
            "rare and back-invalidations frequent")
    if config.l1.size_bytes > config.l2.size_bytes:
        report.warnings.append("L1 larger than L2")
    if config.txcache.issue_window * config.num_cores \
            > config.nvm.write_queue_entries:
        report.warnings.append(
            "aggregate TC issue window exceeds the NVM write queue: "
            "commit bursts can force drain mode and block reads")
    return report


def validate_traces(config: MachineConfig,
                    traces: Sequence[Trace]) -> ValidationReport:
    """Sanity-check traces against a configuration."""
    report = validate_config(config)
    if len(traces) > config.num_cores:
        report.errors.append(
            f"{len(traces)} traces for {config.num_cores} cores")
    tc_capacity = config.txcache.num_entries
    for trace in traces:
        try:
            trace.validate()
        except ValueError as exc:
            report.errors.append(f"{trace.name}: {exc}")
            continue
        footprint = {line_addr(op.addr)
                     for op in trace.ops
                     if op.kind in (KIND_LOAD, KIND_STORE)}
        l1_lines = config.l1.num_lines
        if footprint and len(footprint) <= l1_lines:
            report.warnings.append(
                f"{trace.name}: footprint ({len(footprint)} lines) fits "
                "in the L1 — the memory system will be idle")
        biggest_tx = max(
            (len({line_addr(op.addr) for op in ops})
             for ops in trace.transaction_writes().values()),
            default=0)
        if biggest_tx > tc_capacity:
            report.warnings.append(
                f"{trace.name}: a transaction writes {biggest_tx} lines "
                f"> TC capacity ({tc_capacity}): the copy-on-write "
                "fall-back will trigger")
        if trace.transactions == 0:
            report.warnings.append(
                f"{trace.name}: no transactions — persistence schemes "
                "have nothing to do")
    return report


def validate_setup(config: MachineConfig,
                   traces: Optional[Sequence[Trace]] = None
                   ) -> ValidationReport:
    """Validate a configuration and (optionally) its traces."""
    if traces is None:
        return validate_config(config)
    return validate_traces(config, traces)
