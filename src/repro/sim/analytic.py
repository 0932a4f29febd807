"""First-order analytic overhead model — a sanity cross-check on the
simulator.

For each persistence scheme we can write down, on the back of an
envelope, what its mechanism *must* cost per transaction:

* **SP** serializes on three fence round-trips to the NVM per
  transaction (undo log durable → data durable → commit record
  durable) and executes the logging instructions;
* **Kiln** stalls the committing core for one NV-LLC write per
  transaction line;
* **TXCACHE** adds nothing to the critical path (commit is a message).

:func:`predict_overhead_cycles` turns a workload trace plus the machine
configuration into that estimate.  The test suite checks the simulated
overhead lands within a small factor of the prediction — if the
simulator and the envelope disagree wildly, one of them is wrong.
(They agreed to well within 2x throughout calibration; the residual gap
is queueing and overlap the first-order model ignores.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..common.config import MachineConfig
from ..common.types import SchemeName, line_addr
from ..cpu.trace import OpType, Trace


@dataclass
class TraceProfile:
    """Per-transaction averages extracted from a trace."""

    transactions: int
    stores_per_tx: float       # persistent stores
    lines_per_tx: float        # distinct lines written
    instructions: int

    @staticmethod
    def of(trace: Trace) -> "TraceProfile":
        groups = trace.transaction_writes()
        transactions = max(1, len(groups))
        stores = sum(len(ops) for ops in groups.values())
        lines = sum(len({line_addr(op.addr) for op in ops})
                    for ops in groups.values())
        return TraceProfile(
            transactions=len(groups),
            stores_per_tx=stores / transactions,
            lines_per_tx=lines / transactions,
            instructions=trace.instructions,
        )


def predict_overhead_cycles(trace: Trace, config: MachineConfig,
                            scheme: SchemeName) -> float:
    """Critical-path cycles the scheme adds over Optimal for ``trace``.

    First-order: ignores queueing, bank conflicts and overlap — a
    lower-bound-flavoured estimate of the *mechanism* cost.
    """
    profile = TraceProfile.of(trace)
    freq = config.freq_ghz
    nvm_write = config.nvm.timing.write_cycles(freq, row_hit=False)
    if scheme is SchemeName.OPTIMAL:
        return 0.0
    if scheme is SchemeName.TXCACHE:
        # commit requests and TC writes are off the critical path; the
        # only first-order cost is the TX_END message (~1 cycle)
        return float(profile.transactions)
    if scheme is SchemeName.KILN:
        flush = config.latency("llc") * int(
            round(__import__("repro.persistence.kiln",
                             fromlist=["KilnScheme"])
                  .KilnScheme.NV_LLC_LATENCY_FACTOR))
        return profile.transactions * profile.lines_per_tx * flush
    if scheme is SchemeName.SP:
        from ..persistence.swtx.base import LOG_COMPUTE_COST

        # three serialized fence round-trips to the NVM array per tx
        fences = 3 * nvm_write
        # log construction instructions retire at issue width
        logging = (profile.stores_per_tx *
                   (LOG_COMPUTE_COST + 2) / config.core.issue_width)
        # the flushed lines themselves (log lines + data lines + record)
        flush_count = (profile.lines_per_tx          # data clwbs
                       + profile.stores_per_tx / 4  # packed log lines
                       + 1)                          # commit record
        # clwbs overlap within a fence window; charge one extra array
        # write per additional line beyond the first in each window
        extra_flushes = max(0.0, flush_count - 3) * nvm_write * 0.25
        return profile.transactions * (fences + logging + extra_flushes)
    raise ValueError(f"no analytic model for {scheme}")


def predict_relative_performance(trace: Trace, config: MachineConfig,
                                 scheme: SchemeName,
                                 optimal_cycles: int) -> float:
    """Predicted scheme/Optimal performance ratio given the measured
    Optimal run time."""
    overhead = predict_overhead_cycles(trace, config, scheme)
    return optimal_cycles / (optimal_cycles + overhead)


def compare_with_simulation(trace: Trace, config: MachineConfig,
                            results: Dict[SchemeName, "object"]
                            ) -> Dict[SchemeName, Dict[str, float]]:
    """Predicted vs simulated overhead for every scheme in ``results``
    (which maps scheme → SimulationResult on this trace)."""
    optimal = results[SchemeName.OPTIMAL]
    out: Dict[SchemeName, Dict[str, float]] = {}
    for scheme, result in results.items():
        if scheme is SchemeName.OPTIMAL:
            continue
        predicted = predict_overhead_cycles(trace, config, scheme)
        simulated = max(0.0, result.cycles - optimal.cycles)
        out[scheme] = {
            "predicted_overhead": predicted,
            "simulated_overhead": simulated,
            "predicted_relative": predict_relative_performance(
                trace, config, scheme, optimal.cycles),
            "simulated_relative": (optimal.cycles / result.cycles
                                   if result.cycles else 0.0),
        }
    return out
