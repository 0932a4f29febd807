"""Simulation-kernel benchmark harness with a regression gate.

Measures simulated instructions per host second and wall-clock for
canonical experiment points (the same (workload, scheme) pairs the
golden figures freeze), counts every event each point schedules by
callback owner, and compares runs against the committed baseline
``benchmarks/perf/BENCH_kernel.json``.

Two gates, one per kind of number:

* **Speed.**  Raw instructions/second is machine-dependent, so the
  gate compares the **normalized** metric ``instructions_per_sec /
  calibration``, where the calibration is the throughput of a fixed
  mix of interpreter work (dict and attribute traffic, method calls, a
  heap, an integer loop) on the same interpreter.  The host's speed
  moves in phases of seconds, so the calibration is re-timed before
  each point and after each of its repeats, each repeat is normalized
  by the mean of the two timings around it (the scheme of perfbench's
  ``Normalizer``), and the point's value is the median over repeats; a
  single calibration per report let unchanged code read 16–30% slow.  Instructions, not events, are the
  numerator because a point's instruction count is fixed by its
  workload, while its event count is an implementation detail:
  deleting no-op events makes each remaining event costlier, so
  events/second would fall exactly when the simulator gets faster.
* **Work.**  ``events_by_owner`` maps each callback's qualified name
  (``MemoryController._tick``) to the number of events scheduled for
  it.  The counts are deterministic, so they are compared exactly: a
  change that re-adds polling fails here even on a fast machine.

Driver: ``python benchmarks/perf/bench_kernel.py`` (see there), or the
perf-smoke test in ``tests/test_perf_smoke.py``.
"""

from __future__ import annotations

import gc
import heapq
import json
import pathlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common.config import small_machine_config

#: committed baseline location (repo-root relative)
BASELINE_PATH = (pathlib.Path(__file__).resolve().parents[3]
                 / "benchmarks" / "perf" / "BENCH_kernel.json")

#: smoke gate: normalized instructions/sec may regress at most this
#: fraction
DEFAULT_TOLERANCE = 0.30

#: ``--check`` gate: per-point normalized slowdown bound (tighter than
#: the opt-in pytest smoke)
CHECK_TOLERANCE = 0.10

#: baseline file format: one record per point key under ``points``
#: (4: calibration is the mixed reference work, re-timed per repeat)
SCHEMA_VERSION = 4


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


class _Slot:
    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def bump(self, amount: int) -> int:
        self.count += amount
        return self.count


def _reference_work(loops: int) -> int:
    """A fixed mix of the interpreter work the simulator does: dict
    lookups, attribute updates through method calls, heap pushes and
    pops, and integer arithmetic."""
    slots: Dict[int, _Slot] = {}
    heap: List[Tuple[int, int]] = []
    acc = 0
    for i in range(loops):
        slot = slots.get(i & 127)
        if slot is None:
            slot = slots[i & 127] = _Slot()
        acc += slot.bump(i & 7)
        heapq.heappush(heap, ((i * 7919) & 4095, i))
        if len(heap) > 64:
            acc ^= heapq.heappop(heap)[1]
        acc += (i * 31) & 0xFF
    return acc


def calibrate(loops: int = 20_000, repeats: int = 3) -> float:
    """Machine-speed score: reference-work iterations per second.

    Best-of-``repeats`` so a scheduling hiccup cannot deflate the score
    (which would *inflate* normalized results and mask regressions),
    after a full collection, as before each timed run, so the garbage
    an earlier run left behind is not collected on the clock."""
    best = float("inf")
    gc.collect()
    for _ in range(repeats):
        start = time.perf_counter()
        _reference_work(loops)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return loops / best


def count_events_by_owner(system, traces) -> Dict[str, int]:
    """Load ``traces`` into a fresh ``system`` and drain it, counting
    every event scheduled on its kernel under the callback's qualified
    name — an inline continuation (``Simulator.advance_inline``) under
    the callback it stands in for, so the counts do not depend on
    whether an event went through the queue."""
    sim = system.sim
    schedule_at = sim.schedule_at
    advance_inline = sim.advance_inline
    counts: Dict[str, int] = {}

    def count(fn) -> None:
        owner = getattr(fn, "__qualname__", type(fn).__name__)
        counts[owner] = counts.get(owner, 0) + 1

    def counting(time: int, fn, *args) -> None:
        count(fn)
        schedule_at(time, fn, *args)

    def counting_inline(time: int, fn) -> bool:
        granted = advance_inline(time, fn)
        if granted:
            count(fn)
        return granted

    # Simulator.schedule goes through self.schedule_at, and components
    # call sim.advance_inline, so shadowing the instance attributes
    # sees every event
    sim.schedule_at = counting
    sim.advance_inline = counting_inline
    system.load_traces(traces)
    system.run()
    return dict(sorted(counts.items()))


def measure_point(point: BenchPoint, repeats: int = 2,
                  calibration: Optional[Callable[[], float]] = None,
                  ) -> Dict[str, object]:
    """Run ``point`` cold and return its benchmark record.

    ``wall_s`` is the best of ``repeats`` fresh systems (timing the
    event-loop drain only, not trace generation); ``events`` and
    ``instructions`` are identical across repeats by determinism.
    ``events_by_owner`` comes from one more, untimed run.

    With ``calibration`` (a host-speed score such as
    :func:`calibrate`), the score is taken before the first repeat and
    after every repeat, and the record gains ``normalized``: the median
    over repeats of a repeat's instructions/sec over the mean score
    around it.  (A best-of normalized value picks the repeats whose
    calibration happened to read slow; the median does not.)"""
    from ..sim.runner import collect_result, make_traces
    from ..sim.system import System

    config = small_machine_config(num_cores=point.cores)
    traces = make_traces(point.workload, point.cores, point.operations,
                         seed=point.seed)
    walls: List[float] = []
    scores: List[float] = [calibration()] if calibration else []
    for _ in range(max(1, repeats)):
        system = System(config, point.scheme)
        system.load_traces(traces)
        gc.collect()
        start = time.perf_counter()
        system.run()
        walls.append(time.perf_counter() - start)
        if calibration:
            scores.append(calibration())
    instructions = collect_result(system).instructions_executed
    best_wall = min(walls)
    record = {
        "events": system.events_executed,
        "events_by_owner": count_events_by_owner(
            System(config, point.scheme), traces),
        "instructions": instructions,
        "cycles": system.cycles,
        "wall_s": round(best_wall, 6),
        "instructions_per_sec": round(instructions / best_wall, 1),
    }
    if calibration:
        record["normalized"] = round(statistics.median(
            instructions / wall / ((before + after) / 2)
            for wall, before, after in zip(walls, scores, scores[1:])), 6)
    return record


def run_bench(points: Sequence[BenchPoint], repeats: int = 2,
              calibration: Optional[float] = None) -> Dict[str, object]:
    """Benchmark ``points``; returns a full report.

    Without a fixed ``calibration`` each point is normalized by
    :func:`calibrate` timings taken around its own repeats, and the
    report's ``calibration_ops_per_sec`` is their mean, for display.
    A fixed ``calibration`` normalizes every point by that one value."""
    records = {}
    scores: List[float] = []

    def timed_calibration() -> float:
        scores.append(calibrate())
        return scores[-1]

    for point in points:
        if calibration:
            record = measure_point(point, repeats=repeats)
            record["normalized"] = round(
                record["instructions_per_sec"] / calibration, 6)
        else:
            record = measure_point(point, repeats=repeats,
                                   calibration=timed_calibration)
        records[point.key] = record
    return {
        "schema": SCHEMA_VERSION,
        "calibration_ops_per_sec": round(
            calibration or sum(scores) / len(scores), 1),
        "points": records,
    }


def load_baseline(path: Optional[pathlib.Path] = None) -> Dict[str, object]:
    return json.loads((path or BASELINE_PATH).read_text())


def compare_reports(baseline: Dict[str, object],
                    current: Dict[str, object],
                    tolerance: float = DEFAULT_TOLERANCE,
                    keys: Optional[Sequence[str]] = None) -> List[str]:
    """Regression check per point: normalized instructions/sec within
    ``tolerance``, and ``events_by_owner`` exactly equal.

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
                f"{key}: normalized instructions/sec "
                f"{cur['normalized']:.4f} is {drop:.0%} below baseline "
                f"{base['normalized']:.4f} (tolerance {tolerance:.0%})")
        base_owners = base["events_by_owner"]
        cur_owners = cur["events_by_owner"]
        for owner in sorted(set(base_owners) | set(cur_owners)):
            was, now = base_owners.get(owner, 0), cur_owners.get(owner, 0)
            if was != now:
                failures.append(f"{key}: {owner} scheduled {now:,} events, "
                                f"baseline {was:,}")
    return failures


def format_report(report: Dict[str, object]) -> str:
    lines = [f"calibration: {report['calibration_ops_per_sec']:,.0f} ops/s"]
    for key, rec in report["points"].items():
        lines.append(
            f"  {key:<42} {rec['events']:>9,} ev  "
            f"{rec['wall_s']*1e3:>8.1f} ms  "
            f"{rec['instructions_per_sec']:>12,.0f} instr/s  "
            f"norm {rec['normalized']:.4f}")
    return "\n".join(lines)
