#!/usr/bin/env python
"""Benchmark the simulation kernel and gate it on a paired run of a parent.

Usage (from the repository root)::

    python benchmarks/perf/bench_kernel.py                  # smoke points, print
    python benchmarks/perf/bench_kernel.py --full           # every point, print
    python benchmarks/perf/bench_kernel.py --against HEAD^  # gate (CI)
    python benchmarks/perf/bench_kernel.py --update         # rewrite counts

Two gates, one per kind of number:

* **Speed.**  ``--against REV`` extracts REV's ``src/`` with ``git
  archive`` and times each point (the smoke points unless ``--full``)
  in fresh child processes, one per side per pair, alternating which
  side runs first.  Each child imports ``repro`` from its own tree and
  keeps the best of :data:`RUNS_PER_CHILD` drains.  The gate fails if
  the median over pairs of change/parent simulated instructions per
  second is below ``1 - TOLERANCE``.  Both sides share the host's
  speed within a pair, so the ratio reads the code, not the host.
  Instructions, not events, are the numerator: a point's instruction
  count is fixed by its workload, while deleting no-op events makes
  each remaining one costlier.
* **Work.**  ``events_by_owner`` maps each callback's qualified name
  (``MemoryController._tick``) to the number of events scheduled for
  it.  The counts are deterministic, so they are compared exactly with
  the committed ``BENCH_kernel.json``: a change that re-adds polling
  fails here even when it runs faster.

One report, not gated:

* **Calls.**  ``calls_by_package`` maps each ``repro`` package (the
  event kernel and the stats registry split out of ``repro.common``)
  to the Python calls one drain of a point makes into it under
  cProfile; ``builtins`` counts calls of C functions and methods, and
  ``other`` calls into the standard library.  Each side's counts come
  from one profiled child process per point.  Without ``--against``
  the script prints this tree's counts; with it, both sides' counts
  and the change's delta per package.  The counts are exact and the
  same from one run to the next, so a delta names the package whose
  work moved; they are neither stored in ``BENCH_kernel.json`` nor
  gated, because nearly every refactor moves them.

``--update`` rewrites ``BENCH_kernel.json`` from the full point set.
It holds only deterministic counts, so it writes the same bytes on any
host; commit the diff with whatever change moved them.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

BASELINE_PATH = pathlib.Path(__file__).resolve().with_name(
    "BENCH_kernel.json")

#: baseline file format: deterministic counts per point key under
#: ``points`` (5: no timing fields)
SCHEMA_VERSION = 5

#: the change may be at most this much slower than its parent, by the
#: median per-pair instructions/sec ratio
TOLERANCE = 0.10

#: timed drains per child process; the child reports the fastest
RUNS_PER_CHILD = 3


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


#: the speed-gated pair: one accelerator-path point, one software-path
#: point -- small enough to finish in seconds, hot enough to notice a
#: slow kernel
SMOKE_POINTS: List[BenchPoint] = [
    BenchPoint("hashtable", "txcache", cores=2, operations=30),
    BenchPoint("sps", "sp", cores=2, operations=30),
]

#: every counted point: one per golden figure pair, plus one per
#: software-transaction scheme (the swtx golden pairs)
FULL_POINTS: List[BenchPoint] = SMOKE_POINTS + [
    BenchPoint("btree", "kiln", cores=2, operations=30),
    BenchPoint("rbtree", "txcache", cores=2, operations=30),
    BenchPoint("graph", "optimal", cores=2, operations=30),
    BenchPoint("hashtable", "undo_log", cores=2, operations=30),
    BenchPoint("sps", "redo_log", cores=2, operations=30),
    BenchPoint("btree", "hybrid_dram", cores=2, operations=30),
]

#: a timing child: argv is ``workload scheme cores operations seed
#: runs``; prints the ``repro`` it imported and its best instructions
#: per second.  It uses only names every revision has.
CHILD = """
import gc, sys, time
import repro
from repro.common.config import small_machine_config
from repro.sim.runner import collect_result, make_traces
from repro.sim.system import System

workload, scheme = sys.argv[1:3]
cores, operations, seed, runs = map(int, sys.argv[3:7])
config = small_machine_config(num_cores=cores)
traces = make_traces(workload, cores, operations, seed=seed)
best = float("inf")
for _ in range(runs):
    system = System(config, scheme)
    system.load_traces(traces)
    gc.collect()
    start = time.perf_counter()
    system.run()
    best = min(best, time.perf_counter() - start)
print(repro.__file__)
print(collect_result(system).instructions_executed / best)
"""


#: a call-counting child: argv is ``workload scheme cores operations
#: seed``; drains the point once under cProfile and prints the
#: ``repro`` it imported and its Python calls per package as JSON.
#: Like :data:`CHILD` it uses only names every revision has, and it
#: groups files as ``perfbench/harness.py``'s ``package_of`` does.
CALLS_CHILD = """
import cProfile, json, pathlib, pstats, sys
import repro
from repro.common.config import small_machine_config
from repro.sim.runner import make_traces
from repro.sim.system import System

def package_of(filename):
    if filename == "~":
        return "builtins"
    parts = pathlib.PurePath(filename).parts
    if "repro" not in parts:
        return "other"
    rest = parts[len(parts) - parts[::-1].index("repro"):]
    if len(rest) < 2:
        return "other"
    if rest[0] == "common":
        stem = rest[1].rsplit(".", 1)[0]
        return stem if stem in ("event", "stats") else "common"
    return rest[0]

workload, scheme = sys.argv[1:3]
cores, operations, seed = map(int, sys.argv[3:6])
system = System(small_machine_config(num_cores=cores), scheme)
system.load_traces(make_traces(workload, cores, operations, seed=seed))
profiler = cProfile.Profile()
profiler.runcall(system.run)
calls = {}
for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
    package = package_of(filename)
    calls[package] = calls.get(package, 0) + row[1]
print(repro.__file__)
print(json.dumps(dict(sorted(calls.items()))))
"""


def _child(src: pathlib.Path, script: str, args: Sequence[str]) -> str:
    """Run ``script`` in a fresh interpreter importing ``repro`` from
    ``src``; returns what it printed after the imported file's path."""
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, text=True, check=True).stdout
    imported, _, rest = out.partition("\n")
    if not pathlib.Path(imported).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"child imported {imported}, not from {src}")
    return rest


def _point_args(point: BenchPoint) -> List[str]:
    return [point.workload, point.scheme, str(point.cores),
            str(point.operations), str(point.seed)]


def time_point(src: pathlib.Path, point: BenchPoint) -> float:
    """Best instructions/sec of ``point`` in a fresh child process
    that imports ``repro`` from ``src``."""
    return float(_child(src, CHILD,
                        _point_args(point) + [str(RUNS_PER_CHILD)]))


def calls_by_package(src: pathlib.Path, point: BenchPoint) -> Dict[str, int]:
    """Python calls per package of one drain of ``point``, profiled in
    a fresh child process that imports ``repro`` from ``src``."""
    return json.loads(_child(src, CALLS_CHILD, _point_args(point)))


def calls_table(key: str, sides: Dict[str, Dict[str, int]]) -> List[str]:
    """``calls_by_package`` of one point as printed lines: one column
    per side, in the order given, and a ``delta`` column (the last
    side minus the first) when there are two."""
    names = list(sides)
    packages = sorted(set().union(*sides.values()))
    header = f"    {'package':<12}" + "".join(f"{name:>12}" for name in names)
    if len(names) == 2:
        header += f"{'delta':>12}"
    lines = [f"  calls_by_package {key}", header]
    for package in packages + ["total"]:
        counts = [sum(side.values()) if package == "total"
                  else side.get(package, 0) for side in sides.values()]
        line = f"    {package:<12}" + "".join(f"{n:>12,}" for n in counts)
        if len(names) == 2:
            was, now = counts
            line += f"{now - was:>+12,}"
            if was:
                line += f"{(now - was) / was:>+9.1%}"
        lines.append(line)
    return lines


def time_pairs(parent_src: pathlib.Path, change_src: pathlib.Path,
               points: Sequence[BenchPoint], pairs: int
               ) -> Dict[str, Dict[str, List[float]]]:
    """Instructions/sec per side and point, one child per side per
    pair; the parent runs first in even pairs, the change in odd."""
    sides = {"parent": parent_src, "change": change_src}
    timings: Dict[str, Dict[str, List[float]]] = {
        side: {point.key: [] for point in points} for side in sides}
    for pair in range(pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for point in points:
            for side in order:
                timings[side][point.key].append(
                    time_point(sides[side], point))
    return timings


def count_events_by_owner(system, traces) -> Dict[str, int]:
    """Load ``traces`` into a fresh ``system`` and drain it, counting
    every event scheduled on its kernel under the callback's qualified
    name -- an inline continuation (``Simulator.advance_inline``) under
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


def count_point(point: BenchPoint) -> Dict[str, object]:
    """Run ``point`` once in this process and return its deterministic
    record: the baseline's fields, in the baseline's order."""
    from repro.common.config import small_machine_config
    from repro.sim.runner import collect_result, make_traces
    from repro.sim.system import System

    system = System(small_machine_config(num_cores=point.cores),
                    point.scheme)
    owners = count_events_by_owner(system, make_traces(
        point.workload, point.cores, point.operations, seed=point.seed))
    return {
        "events": system.events_executed,
        "events_by_owner": owners,
        "instructions": collect_result(system).instructions_executed,
        "cycles": system.cycles,
    }


def load_baseline(path: pathlib.Path = BASELINE_PATH) -> Dict[str, object]:
    return json.loads(path.read_text())


def pair_ratios(parent: Dict[str, List[float]],
                change: Dict[str, List[float]], key: str) -> List[float]:
    return [now / was for was, now in zip(parent[key], change[key])]


def compare(baseline: Dict[str, object], counts: Dict[str, object],
            parent: Dict[str, List[float]], change: Dict[str, List[float]],
            keys: Sequence[str]) -> List[str]:
    """The gate: per point, the median change/parent instructions/sec
    ratio over pairs is at least ``1 - TOLERANCE``, and every
    ``events_by_owner`` count equals the baseline's.

    ``counts`` maps keys to :func:`count_point` records; ``parent`` and
    ``change`` map keys to per-pair instructions/sec.  Returns
    human-readable failure lines (empty = gate passes).  A point in
    ``keys`` missing from any input is itself a failure -- the gate
    must not silently shrink its coverage."""
    failures = []
    base_points = baseline.get("points", {})
    for key in keys:
        for side, timings in (("parent", parent), ("change", change)):
            if not timings.get(key):
                failures.append(f"{key}: missing from the {side} run")
        if parent.get(key) and change.get(key):
            ratio = statistics.median(pair_ratios(parent, change, key))
            if ratio < 1.0 - TOLERANCE:
                failures.append(
                    f"{key}: median change/parent instructions/sec "
                    f"ratio {ratio:.3f} is {1.0 - ratio:.0%} below the "
                    f"parent (tolerance {TOLERANCE:.0%})")
        base = base_points.get(key)
        if base is None:
            failures.append(f"{key}: missing from baseline "
                            "(re-run bench_kernel.py --update)")
            continue
        if key not in counts:
            failures.append(f"{key}: missing from the counted run")
            continue
        base_owners = base["events_by_owner"]
        cur_owners = counts[key]["events_by_owner"]
        for owner in sorted(set(base_owners) | set(cur_owners)):
            was, now = base_owners.get(owner, 0), cur_owners.get(owner, 0)
            if was != now:
                failures.append(f"{key}: {owner} scheduled {now:,} events, "
                                f"baseline {was:,}")
    return failures


def extract_src(rev: str, dest: pathlib.Path) -> pathlib.Path:
    """``git archive`` REV's ``src/`` into ``dest``; returns it."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=REPO_ROOT,
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                   check=True)
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="all figure points (default: the two smoke "
                             "points)")
    parser.add_argument("--repeats", type=int, default=8,
                        help="timing pairs per point with --against, "
                             "timing children per point without it")
    parser.add_argument("--against", metavar="REV",
                        help="fail (exit 1) if the points run more than "
                             f"{TOLERANCE:.0%}% slower than at REV, or any "
                             "event count differs from the baseline")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed counts from the full "
                             "point set")
    args = parser.parse_args(argv)

    points = FULL_POINTS if args.full or args.update else SMOKE_POINTS
    counts = {point.key: count_point(point) for point in points}
    if args.update:
        BASELINE_PATH.write_text(json.dumps(
            {"schema": SCHEMA_VERSION, "points": counts}, indent=2) + "\n")
        print(f"baseline written: {BASELINE_PATH}")
        return 0

    change_src = REPO_ROOT / "src"
    if args.against is None:
        for point in points:
            rec = counts[point.key]
            speed = statistics.median(time_point(change_src, point)
                                      for _ in range(args.repeats))
            print(f"  {point.key:<34} {rec['events']:>8,} ev  "
                  f"{rec['instructions']:>9,} instr  "
                  f"{speed:>12,.0f} instr/s")
        for point in points:
            print()
            print("\n".join(calls_table(point.key, {
                "calls": calls_by_package(change_src, point)})))
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        parent_src = extract_src(args.against, pathlib.Path(tmp))
        timings = time_pairs(parent_src, change_src, points, args.repeats)
        calls = {point.key: {"parent": calls_by_package(parent_src, point),
                             "change": calls_by_package(change_src, point)}
                 for point in points}
    parent, change = timings["parent"], timings["change"]
    for point in points:
        ratios = pair_ratios(parent, change, point.key)
        print(f"  {point.key:<34} parent "
              f"{statistics.median(parent[point.key]):>12,.0f}  change "
              f"{statistics.median(change[point.key]):>12,.0f} instr/s  "
              f"median ratio {statistics.median(ratios):.3f}  "
              f"({' '.join(f'{r:.3f}' for r in ratios)})")
    for point in points:
        print()
        print("\n".join(calls_table(point.key, calls[point.key])))
    failures = compare(load_baseline(), counts, parent, change,
                       [point.key for point in points])
    if failures:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed against {args.against} "
          f"(tolerance {TOLERANCE:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
