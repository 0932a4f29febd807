"""Shared pieces of the benchmark: repository discovery, statistics,
host-speed normalisation, the in-memory span log, the by-package
profiler pass, fresh-process set-up probes, the exact-count ledger,
and result printing.

Nothing here reaches into the simulator's internals: layers are timed
from outside, around calls to their public functions.
"""

from __future__ import annotations

import cProfile
import hashlib
import heapq
import json
import os
import pathlib
import pstats
import resource
import statistics
import subprocess
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: stall kinds as ``collect_result`` reports them, and their total
STALL_METRICS = ("load", "store_issue", "store_buffer", "fence", "commit",
                 "flush", "tc_full", "ack_wait", "log_write", "log_flush",
                 "log_replay", "total")
MODELLED_METRICS = (
    "sim.cycles", "sim.instructions", "cache.llc_accesses",
    "cache.llc_misses", "memory.nvm_write_lines", "memory.nvm_read_lines",
    "memory.starvation_grants", "core.tc_full_stalls",
) + tuple(f"cpu.stall_{kind}_cycles" for kind in STALL_METRICS)
HOST_PACKAGES = ("memory", "event", "cache", "cpu", "core", "persistence",
                 "litmus", "stats")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed boot)."""


def import_repro() -> None:
    """Make the checkout's ``src`` importable, refusing to fall back on
    any other installed copy of the package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- statistics ---------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest waited-for
    descendant (``ru_maxrss`` is in KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- host-speed normalisation -------------------------------------------
#: seconds ``reference_work`` takes on the 2-core reference host (an
#: Intel Xeon at 2.0 GHz, CPython 3.11) when its neighbours are quiet
REFERENCE_S = 0.004
#: measured work between two reference timings, in seconds
SETTLE_S = 0.05


class _Slot:
    __slots__ = ("key", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0

    def bump(self, amount: int) -> int:
        self.count += amount
        return self.count


def reference_work() -> float:
    """Seconds a fixed piece of interpreter work takes now: attribute
    and dict traffic, method calls, a heap and an integer loop, the
    kinds of work the simulator and the servers do.  It is part of the
    benchmark, not of the program, so no change to the program moves
    it; only the host's speed does."""
    began = time.perf_counter()
    slots: Dict[int, _Slot] = {}
    heap: List[Tuple[int, int]] = []
    acc = 0
    for i in range(4000):
        slot = slots.get(i & 255)
        if slot is None:
            slot = slots[i & 255] = _Slot(i & 255)
        acc += slot.bump(i & 7)
        heapq.heappush(heap, ((i * 7919) & 4095, i))
        if len(heap) > 64:
            acc ^= heapq.heappop(heap)[1]
    for i in range(40000):
        acc += i & 0xFF
    return time.perf_counter() - began


class Normalizer:
    """Host seconds to reference seconds.

    The host is a shared VM: its neighbours slow every process on it by
    up to 2x, in phases of seconds to minutes, and the slowdown is in
    instruction speed, not in stolen time, so CPU clocks slow with it.
    The normaliser times ``reference_work`` before and after each
    stretch of about ``SETTLE_S`` of measured work and scales every
    time measured in between by ``REFERENCE_S`` over the mean of the
    two: a time then reads as it would on the reference host when
    quiet.  Samples are kept per key (a golden point, a litmus run, a
    request class) in the order they were added."""

    def __init__(self) -> None:
        self.samples: Dict[object, List[float]] = {}
        self._pending: List[Tuple[object, float]] = []
        self._pending_s = 0.0
        self._before = reference_work()

    def begin(self) -> None:
        """Re-time the reference before measured work that follows
        unmeasured work."""
        self.settle()
        self._before = reference_work()

    def add(self, key: object, seconds: float) -> None:
        """One measured time, scaled at the next ``settle``."""
        self._pending.append((key, seconds))
        self._pending_s += seconds

    def lap(self) -> None:
        """Settle once about ``SETTLE_S`` of work is pending."""
        if self._pending_s >= SETTLE_S:
            self.settle()

    def settle(self) -> None:
        """Time the reference again and scale the pending times."""
        if not self._pending:
            return
        after = reference_work()
        scale = 2 * REFERENCE_S / (self._before + after)
        for key, seconds in self._pending:
            self.samples.setdefault(key, []).append(seconds * scale)
        self._pending, self._pending_s, self._before = [], 0.0, after

    def medians(self) -> List[float]:
        """Per key, the median of its samples, in key order."""
        self.settle()
        return [median(values) for values in self.samples.values()]


def run_for(seconds: float, pass_fn: Callable[[int], None],
            min_passes: int = 2) -> int:
    """Run whole passes until ``seconds`` are used (at least
    ``min_passes``); a pass that would overrun by more than half its
    expected length is not started.  Returns the pass count."""
    start = time.perf_counter()
    durations: List[float] = []
    while True:
        index = len(durations)
        elapsed = time.perf_counter() - start
        if index >= min_passes and \
                elapsed + 0.5 * median(durations) > seconds:
            return index
        began = time.perf_counter()
        pass_fn(index)
        durations.append(time.perf_counter() - began)


# -- spans ----------------------------------------------------------------
class SpanLog:
    """Spans kept in memory as flat columns: name, start, end, parent
    span and unit id (one id per point, litmus run or request).

    ``open`` returns the span's id, so children can name their parent
    before it ends; ``close`` stamps the end.  Times are
    ``time.perf_counter`` seconds."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.unit = array("l")

    def open(self, name: str, unit: int, parent: int = -1,
             start: Optional[float] = None) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(name_id)
        self.start.append(time.perf_counter() if start is None else start)
        self.end.append(0.0)
        self.parent.append(parent)
        self.unit.append(unit)
        return len(self.start) - 1

    def close(self, span: int, end: Optional[float] = None) -> None:
        self.end[span] = time.perf_counter() if end is None else end

    def add(self, name: str, unit: int, parent: int, start: float,
            end: float) -> int:
        span = self.open(name, unit, parent, start)
        self.end[span] = end
        return span

    def wrap(self, owner, method: str, name: str, unit: int,
             parent: int) -> None:
        """Shadow ``owner.method`` on that instance with a timed call."""
        inner = getattr(owner, method)

        def timed(*args, **kwargs):
            began = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.add(name, unit, parent, began, time.perf_counter())

        setattr(owner, method, timed)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count and total seconds."""
        out: Dict[str, Dict[str, float]] = {
            name: {"count": 0, "total_s": 0.0} for name in self.names}
        for span, name_id in enumerate(self.name):
            entry = out[self.names[name_id]]
            entry["count"] += 1
            entry["total_s"] += self.end[span] - self.start[span]
        return out

    def write(self, path: pathlib.Path) -> None:
        """One line per span: id, name, start, end, parent, unit."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("id,name,start_s,end_s,parent,unit\n")
            for span, name_id in enumerate(self.name):
                out.write(f"{span},{self.names[name_id]},"
                          f"{self.start[span]:.9f},{self.end[span]:.9f},"
                          f"{self.parent[span]},{self.unit[span]}\n")


# -- profiler pass ------------------------------------------------------
def package_of(filename: str) -> str:
    """The ``repro`` layer a source file belongs to (the event kernel
    and the stats registry are split out of ``repro.common``)."""
    path = pathlib.PurePath(filename).parts
    if "repro" not in path:
        return "other"
    rest = path[len(path) - path[::-1].index("repro"):]
    if len(rest) < 2:
        return "other"
    if rest[0] == "common":
        stem = rest[1].rsplit(".", 1)[0]
        return stem if stem in ("event", "stats") else "common"
    return rest[0]


def profile_by_package(fn: Callable[[], None]) -> Dict[str, float]:
    """Run ``fn`` under cProfile; self seconds summed per layer."""
    profiler = cProfile.Profile()
    profiler.runcall(fn)
    totals: Dict[str, float] = {}
    for (filename, _line, _func), row in \
            pstats.Stats(profiler).stats.items():
        package = package_of(filename)
        totals[package] = totals.get(package, 0.0) + row[2]
    return totals


def host_metrics(by_package: Dict[str, float]) -> Dict[str, float]:
    return {f"host.{package}_s": by_package.get(package, 0.0)
            for package in HOST_PACKAGES}


# -- fresh-process set-up probes ----------------------------------------
def setup_probes(workload: str, seed: int, count: int) -> List[Dict]:
    """Time ``count`` set-ups with ``setup_probe.py``, each in a fresh
    process so no in-process memo hides work.  The workloads probe once
    per measured pass, so the set-ups of a run sample the host's speed
    across the whole run rather than in one burst."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"),
         workload, str(seed), str(count)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=120)
    if completed.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{completed.stderr}")
    return [json.loads(line) for line in completed.stdout.splitlines()]


def median_of(rows: Iterable[Dict], key: str) -> float:
    return median([row[key] for row in rows])


# -- exact counts -----------------------------------------------------------
def modelled_counts(result: Dict[str, object]) -> Dict[str, float]:
    """The modelled (simulated-time) counts of one
    ``SimulationResult.to_dict(include_raw=True)``."""
    raw = result["raw_stats"]
    stalls = result["stall_cycles"]
    counts = {
        "sim.cycles": result["cycles"],
        "sim.instructions": result["instructions_executed"],
        "cache.llc_accesses": result["llc_accesses"],
        "cache.llc_misses": result["llc_misses"],
        "memory.nvm_write_lines": result["nvm_write_lines"],
        "memory.nvm_read_lines": result["nvm_read_lines"],
        "memory.starvation_grants":
            raw.get("mem.nvm.write.starvation_grants", 0)
            + raw.get("mem.dram.write.starvation_grants", 0),
        "core.tc_full_stalls": result["tc_full_stall_events"],
    }
    for kind in STALL_METRICS:
        counts[f"cpu.stall_{kind}_cycles"] = stalls.get(kind, 0)
    return counts


def sum_counts(rows: Iterable[Dict[str, float]]) -> Dict[str, float]:
    total = {name: 0 for name in MODELLED_METRICS}
    for row in rows:
        for name in MODELLED_METRICS:
            total[name] += row[name]
    return total


def source_digest() -> str:
    """Hash of every simulator and benchmark source file: counts
    recorded under one digest are only compared against runs of the
    same code measuring the same work."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")) + \
            sorted(BENCH_DIR.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_ledger(workload: str, seed: int,
                 counts: Dict[str, object]) -> List[str]:
    """Compare exact counts with those of earlier runs of the same
    code, workload and seed in this checkout (first run records
    them).  Returns mismatch descriptions."""
    path = WORK / "counts" / f"{source_digest()}-{workload}-{seed}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(counts, sort_keys=True))
        os.replace(tmp, path)
        return []
    recorded = json.loads(path.read_text())
    return [f"{name}: earlier run {recorded.get(name)!r}, now {value!r}"
            for name, value in sorted(counts.items())
            if recorded.get(name) != value]


# -- output -------------------------------------------------------------
class Outcome:
    """What one invocation measured and checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, tuple] = {}     # name -> (value, unit)
        self.notes: List[str] = []

    def fail(self, message: str, count: int = 0) -> None:
        self.failed += count
        self.problems.append(message)

    def metric(self, name: str, value: float) -> None:
        """Record a metric under the unit BENCHMARK.json declares."""
        self.metrics[name] = (value, declared_units()[name])

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def emit(self, workload: str, trace: bool) -> None:
        """Human-readable lines, then the one-line JSON result."""
        mode = "traced" if trace else "untraced"
        print(f"perfbench {workload} ({mode}): attempted {self.attempted}, "
              f"failed {self.failed}, failed_frac "
              f"{self.failed / max(1, self.attempted):.6g}")
        for note in self.notes:
            print(f"  {note}")
        for name, (value, unit) in self.metrics.items():
            print(f"  {name:32s} {value:.6g} {unit}")
        for problem in self.problems:
            print(f"  FAILED: {problem}")
        print(json.dumps({
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }))


def declared() -> Dict:
    """BENCHMARK.json, which names every reported metric and its unit."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


def declared_units() -> Dict[str, str]:
    spec = declared()
    return {entry["name"]: entry["unit"]
            for entry in spec["end_to_end"] + spec["per_layer"]}


def report_layers(outcome: Outcome, values: Dict[str, float]) -> None:
    """Every per-layer metric of BENCHMARK.json, in its order; 0 for a
    layer this workload does not exercise."""
    values = dict(values)
    values["bench.failed_frac"] = outcome.failed / max(1, outcome.attempted)
    for entry in declared()["per_layer"]:
        outcome.metric(entry["name"], values.get(entry["name"], 0))
