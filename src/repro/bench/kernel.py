"""Simulation-kernel benchmark harness with a regression gate.

Measures events/second and wall-clock for canonical experiment points
(the same (workload, scheme) pairs the golden figures freeze) and
compares runs against the committed baseline
``benchmarks/perf/BENCH_kernel.json``.

Raw events/second is machine-dependent, so every report carries a
*calibration* score — the throughput of a fixed pure-Python loop on
the same interpreter — and the regression gate compares the
**normalized** metric ``events_per_sec / calibration``: how many
simulator events one unit of this machine's Python throughput buys.
That ratio is stable across machine speeds (both numerator and
denominator scale with the host) while staying sensitive to the thing
the gate protects: simulator work per event growing.

Driver: ``python benchmarks/perf/bench_kernel.py`` (see there), or the
perf-smoke test in ``tests/test_perf_smoke.py``.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..common.config import small_machine_config

#: committed baseline location (repo-root relative)
BASELINE_PATH = (pathlib.Path(__file__).resolve().parents[3]
                 / "benchmarks" / "perf" / "BENCH_kernel.json")

#: smoke gate: normalized events/sec may regress at most this fraction
DEFAULT_TOLERANCE = 0.30

#: ``--check`` gate: per-point normalized slowdown bound (tighter than
#: the opt-in pytest smoke)
CHECK_TOLERANCE = 0.10

#: baseline file format: one record per point key under ``points``
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class BenchPoint:
    """One canonical benchmark point (mirrors a golden-figure pair)."""

    workload: str
    scheme: str
    cores: int
    operations: int
    seed: int = 42

    @property
    def key(self) -> str:
        return (f"{self.workload}/{self.scheme}"
                f"/c{self.cores}/o{self.operations}/s{self.seed}")


#: the CI smoke pair: one accelerator-path point, one software-path
#: point — small enough to finish in seconds, hot enough to notice a
#: slow kernel
SMOKE_POINTS: List[BenchPoint] = [
    BenchPoint("hashtable", "txcache", cores=2, operations=30),
    BenchPoint("sps", "sp", cores=2, operations=30),
]

#: the full sweep: one point per golden figure pair, plus one per
#: software-transaction scheme (the swtx golden pairs)
FULL_POINTS: List[BenchPoint] = SMOKE_POINTS + [
    BenchPoint("btree", "kiln", cores=2, operations=30),
    BenchPoint("rbtree", "txcache", cores=2, operations=30),
    BenchPoint("graph", "optimal", cores=2, operations=30),
    BenchPoint("hashtable", "undo_log", cores=2, operations=30),
    BenchPoint("sps", "redo_log", cores=2, operations=30),
    BenchPoint("btree", "hybrid_dram", cores=2, operations=30),
]


def calibrate(loops: int = 300_000, repeats: int = 3) -> float:
    """Machine-speed score: iterations/second of a fixed integer loop.

    Best-of-``repeats`` so a scheduling hiccup cannot deflate the score
    (which would *inflate* normalized results and mask regressions)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc += i & 0xFF
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return loops / best


def measure_point(point: BenchPoint, repeats: int = 2) -> Dict[str, object]:
    """Run ``point`` cold and return its benchmark record.

    ``wall_s`` is the best of ``repeats`` fresh systems (timing the
    event-loop drain only, not trace generation); ``events`` is
    identical across repeats by determinism."""
    from ..sim.runner import make_traces
    from ..sim.system import System

    config = small_machine_config(num_cores=point.cores)
    traces = make_traces(point.workload, point.cores, point.operations,
                         seed=point.seed)
    best_wall = float("inf")
    events = 0
    cycles = 0
    for _ in range(max(1, repeats)):
        system = System(config, point.scheme)
        system.load_traces(traces)
        start = time.perf_counter()
        system.run()
        wall = time.perf_counter() - start
        best_wall = min(best_wall, wall)
        events = system.events_executed
        cycles = system.cycles
    return {
        "events": events,
        "cycles": cycles,
        "wall_s": round(best_wall, 6),
        "events_per_sec": round(events / best_wall, 1),
    }


def run_bench(points: Sequence[BenchPoint], repeats: int = 2,
              calibration: Optional[float] = None) -> Dict[str, object]:
    """Benchmark ``points``; returns a full report."""
    calibration = calibration or calibrate()
    records = {}
    for point in points:
        record = measure_point(point, repeats=repeats)
        record["normalized"] = round(
            record["events_per_sec"] / calibration, 6)
        records[point.key] = record
    return {
        "schema": SCHEMA_VERSION,
        "calibration_ops_per_sec": round(calibration, 1),
        "points": records,
    }


def load_baseline(path: Optional[pathlib.Path] = None) -> Dict[str, object]:
    return json.loads((path or BASELINE_PATH).read_text())


def compare_reports(baseline: Dict[str, object],
                    current: Dict[str, object],
                    tolerance: float = DEFAULT_TOLERANCE,
                    keys: Optional[Sequence[str]] = None) -> List[str]:
    """Regression check: normalized events/sec per point.

    Returns human-readable failure lines (empty = gate passes).
    ``keys`` names the baseline points the current run claims to cover
    (default: every point in the baseline); a claimed point missing
    from the current report is itself a failure — the gate must not
    silently shrink its coverage."""
    failures = []
    base_points = baseline.get("points", {})
    cur_points = current.get("points", {})
    for key in (keys if keys is not None else base_points):
        base = base_points.get(key)
        if base is None:
            failures.append(f"{key}: missing from baseline "
                            "(re-run bench_kernel.py --update)")
            continue
        cur = cur_points.get(key)
        if cur is None:
            failures.append(f"{key}: missing from current run")
            continue
        floor = base["normalized"] * (1.0 - tolerance)
        if cur["normalized"] < floor:
            drop = 1.0 - cur["normalized"] / base["normalized"]
            failures.append(
                f"{key}: normalized events/sec "
                f"{cur['normalized']:.4f} is {drop:.0%} below baseline "
                f"{base['normalized']:.4f} (tolerance {tolerance:.0%})")
    return failures


def format_report(report: Dict[str, object]) -> str:
    lines = [f"calibration: {report['calibration_ops_per_sec']:,.0f} ops/s"]
    for key, rec in report["points"].items():
        lines.append(
            f"  {key:<42} {rec['events']:>9,} ev  "
            f"{rec['wall_s']*1e3:>8.1f} ms  "
            f"{rec['events_per_sec']:>12,.0f} ev/s  "
            f"norm {rec['normalized']:.4f}")
    return "\n".join(lines)
