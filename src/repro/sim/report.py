"""Formatting of the paper's tables and figures from simulation results.

Each ``figureN_*`` function turns ``{workload: {scheme: result}}``
into the normalized numbers the corresponding paper figure plots;
:func:`format_figure` renders them as the ASCII table the benchmark
harness prints, and :data:`FIGURES` names each figure's caption and
LLC regime.  Normalization is always to the *Optimal* scheme, as in
the paper ("normalized to the Optimal case").
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Mapping, Sequence

from ..common.config import MachineConfig, table2_rows
from ..common.types import SchemeName
from ..core.txcache import hardware_overhead
from ..workloads import workload_table
from .runner import SCHEME_ORDER, ResultGrid, SimulationResult

#: LLC of the reuse regime: footprints sit at capacity, so LLC hits
#: exist and Fig. 8's miss-rate deltas show (DESIGN.md)
REUSE_LLC_BYTES = 128 * 1024

Metric = Callable[[SimulationResult], float]


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def normalized_rows(results: ResultGrid,
                    metric: Metric) -> Dict[str, Dict[SchemeName, float]]:
    """Per-workload metric values normalized to Optimal's value."""
    rows: Dict[str, Dict[SchemeName, float]] = {}
    for workload, by_scheme in results.items():
        base = metric(by_scheme[SchemeName.OPTIMAL])
        row = {}
        for scheme, result in by_scheme.items():
            value = metric(result)
            row[scheme] = value / base if base else 0.0
        rows[workload] = row
    return rows


def add_mean_row(rows: Dict[str, Dict[SchemeName, float]]) -> None:
    """Append the cross-workload geometric-mean row (in place)."""
    workload_rows = [row for name, row in rows.items() if name != "gmean"]
    schemes = {scheme for row in workload_rows for scheme in row}
    rows["gmean"] = {
        scheme: geomean(row[scheme] for row in workload_rows if scheme in row)
        for scheme in schemes
    }


# ---------------------------------------------------------------------------
# one function per figure
# ---------------------------------------------------------------------------
def figure6_ipc(results: ResultGrid) -> Dict[str, Dict[SchemeName, float]]:
    """Fig. 6: IPC normalized to Optimal."""
    rows = normalized_rows(results, lambda r: r.ipc)
    add_mean_row(rows)
    return rows


def figure7_throughput(results: ResultGrid) -> Dict[str, Dict[SchemeName, float]]:
    """Fig. 7: transactions per cycle normalized to Optimal."""
    rows = normalized_rows(results, lambda r: r.throughput)
    add_mean_row(rows)
    return rows


def figure8_llc_miss_rate(results: ResultGrid) -> Dict[str, Dict[SchemeName, float]]:
    """Fig. 8: LLC miss rate normalized to Optimal."""
    rows = normalized_rows(results, lambda r: r.llc_miss_rate)
    add_mean_row(rows)
    return rows


def figure9_write_traffic(results: ResultGrid) -> Dict[str, Dict[SchemeName, float]]:
    """Fig. 9: NVM write traffic (lines) normalized to Optimal."""
    rows = normalized_rows(results, lambda r: r.nvm_write_lines)
    add_mean_row(rows)
    return rows


def figure10_load_latency(results: ResultGrid) -> Dict[str, Dict[SchemeName, float]]:
    """Fig. 10: persistent load latency (at/below the LLC) normalized
    to Optimal."""
    rows = normalized_rows(results, lambda r: r.persist_llc_load_latency)
    add_mean_row(rows)
    return rows


#: (caption, rows function, regime) per paper figure: "pressure" is the
#: base 32 KB scaled LLC, "reuse" the same machine at REUSE_LLC_BYTES
FIGURES = (
    ("Figure 6: Performance improvements (IPC), normalized to Optimal",
     figure6_ipc, "pressure"),
    ("Figure 7: Performance improvements (Throughput), normalized to "
     "Optimal", figure7_throughput, "pressure"),
    ("Figure 8: LLC miss rate, normalized to Optimal",
     figure8_llc_miss_rate, "reuse"),
    ("Figure 9: NVM write traffic, normalized to Optimal",
     figure9_write_traffic, "pressure"),
    ("Figure 10: Persistent load latency, normalized to Optimal",
     figure10_load_latency, "pressure"),
)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def format_figure(title: str,
                  rows: Mapping[str, Mapping[SchemeName, float]],
                  schemes: Sequence[SchemeName] = SCHEME_ORDER) -> str:
    """Render one figure's normalized numbers as an ASCII table."""
    # 10 is the historic column width (byte-identical default output);
    # longer names (hybrid_dram) widen their own column only
    widths = [max(10, len(scheme.value) + 2) for scheme in schemes]
    header = f"{'workload':<12}" + "".join(
        f"{scheme.value:>{width}}"
        for scheme, width in zip(schemes, widths))
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for workload, row in rows.items():
        cells = "".join(
            f"{row.get(scheme, float('nan')):>{width}.3f}"
            for scheme, width in zip(schemes, widths))
        lines.append(f"{workload:<12}{cells}")
    lines.append("=" * len(header))
    return "\n".join(lines)


def format_stall_breakdown(results: ResultGrid,
                           schemes: Sequence[SchemeName] = SCHEME_ORDER
                           ) -> str:
    """Render per-scheme stall-cycle composition — the "cycles lost to
    X" story behind Fig. 6 (SP dominated by ordering stalls, Kiln by
    commit flushes, TXCACHE near-zero persistence stalls).

    ``stall/cyc`` is total stall cycles (all cores) per execution
    cycle; the per-kind columns are each kind's share of the total
    stall time.
    """
    from ..obs.stalls import STALL_KINDS

    # 10 is the historic scheme-column width; longer names widen it
    name_width = max([10] + [len(s.value) + 1 for s in schemes])
    header = (f"{'workload':<12}{'scheme':<{name_width}}{'stalls':>10}"
              f"{'stall/cyc':>10}"
              + "".join(f"{kind:>13}" for kind in STALL_KINDS))
    lines = ["Stall-cycle breakdown (share of total stall cycles)",
             "=" * len(header), header, "-" * len(header)]
    for workload, by_scheme in results.items():
        for scheme in schemes:
            result = by_scheme.get(scheme)
            if result is None:
                continue
            stalls = result.stall_cycles
            total = stalls.get("total", 0.0)
            per_cycle = total / result.cycles if result.cycles else 0.0
            cells = "".join(
                f"{stalls.get(kind, 0.0) / total:>13.1%}" if total
                else f"{'-':>13}" for kind in STALL_KINDS)
            lines.append(f"{workload:<12}{scheme.value:<{name_width}}"
                         f"{total:>10.0f}{per_cycle:>10.3f}{cells}")
    lines.append("=" * len(header))
    return "\n".join(lines)


def format_table1(config: MachineConfig) -> str:
    """Render the paper's Table 1 (hardware overhead summary)."""
    rows = hardware_overhead(config)
    width = max(len(name) for name in rows) + 2
    lines = ["Table 1: Summary of major hardware overhead",
             "=" * (width + 30),
             f"{'Component':<{width}}{'Type':<14}Size",
             "-" * (width + 30)]
    for name, info in rows.items():
        lines.append(f"{name:<{width}}{info['type']:<14}{info['size']}")
    lines.append("=" * (width + 30))
    return "\n".join(lines)


def format_table2(config: MachineConfig) -> str:
    """Render the paper's Table 2 (machine configuration)."""
    rows = table2_rows(config)
    width = max(len(name) for name in rows) + 2
    lines = ["Table 2: Machine Configuration", "=" * 72,
             f"{'Device':<{width}}Description", "-" * 72]
    for name, description in rows.items():
        lines.append(f"{name:<{width}}{description}")
    lines.append("=" * 72)
    return "\n".join(lines)


def format_table3() -> str:
    """Render the paper's Table 3 (workload descriptions)."""
    rows = workload_table()
    width = max(len(name) for name in rows) + 2
    lines = ["Table 3: Workloads", "=" * 64,
             f"{'Name':<{width}}Description", "-" * 64]
    for name, description in rows.items():
        lines.append(f"{name:<{width}}{description}")
    lines.append("=" * 64)
    return "\n".join(lines)
