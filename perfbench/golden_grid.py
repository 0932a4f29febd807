"""golden-grid: the eight frozen figure points, simulated in-process.

Each point is what ``repro figures`` does per point: ``make_traces``,
``System``, ``load_traces``, one long ``System.run`` drain and
``collect_result``, with the modelled caches starting empty.  The
timed grid is always the frozen one, traced at the golden seed, so
every result must equal ``tests/data/golden_figures.json`` (read at
run time, never copied) and every seed measures the same work: on ten
other trace seeds, p50 over the 8 points moved by 0.09 of its median
with the workload alone.  ``--seed`` sets the order of the points and,
when it is not the golden seed, traces one untimed grid whose points
must each finish with a stall attribution that sums to its total.

A point's latency is its ``System.run`` + ``collect_result`` in
reference seconds (see ``harness.Normalizer``), and the run reports
each point's median over its passes.  Set-up (trace generation, system
build, trace preparation) is ``setup_s``: the median of fresh-process
set-ups timed before the measured phase.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import replace
from typing import Dict, List

from harness import (ROOT, WORK, Normalizer, Outcome, SpanLog,
                     check_ledger, host_metrics, median_of, modelled_counts,
                     peak_rss_mb, percentile, profile_by_package,
                     report_layers, run_for, setup_probes, sum_counts)

GOLDEN_PATH = ROOT / "tests" / "data" / "golden_figures.json"
GOLDEN_SEED = 42
OPS = 60
CORES = 2
#: fresh-process set-ups timed before and again after the measured
#: phase: a pass is ~5 s, so set-ups inside passes left a 20 s run 2
#: passes, not 4
SETUP_PROBES = 3

#: figure -> (workload, scheme, LLC regime), as frozen by the golden
#: snapshot test: 32 KB eviction pressure for figures 6/7/9 and the
#: swtx columns, 128 KB reuse for figures 8/10
PAIRS = {
    "fig6_throughput": ("sps", "txcache", "pressure"),
    "fig7_persist_latency": ("hashtable", "sp", "pressure"),
    "fig8_llc_miss_rate": ("btree", "txcache", "reuse"),
    "fig9_nvm_writes": ("rbtree", "kiln", "pressure"),
    "fig10_load_latency": ("graph", "txcache", "reuse"),
    "swtx_undo_throughput": ("hashtable", "undo_log", "pressure"),
    "swtx_redo_nvm_writes": ("sps", "redo_log", "pressure"),
    "swtx_hybrid_load_latency": ("btree", "hybrid_dram", "pressure"),
}


def machine(regime: str):
    from repro.common.config import small_machine_config

    config = small_machine_config(num_cores=CORES)
    if regime == "reuse":
        config = replace(config, llc=replace(config.llc,
                                             size_bytes=128 * 1024))
    return config


def build(name: str, seed: int, spans: SpanLog = None, unit: int = 0,
          parent: int = -1):
    """``make_traces`` + ``System`` + ``load_traces`` for one point,
    with a span around each call when ``spans`` is given."""
    from repro.sim.runner import make_traces
    from repro.sim.system import System

    workload, scheme, regime = PAIRS[name]
    if spans is None:
        system = System(machine(regime), scheme)
        system.load_traces(make_traces(workload, CORES, OPS, seed=seed))
        return system
    span = spans.open("workloads.generate", unit, parent)
    traces = make_traces(workload, CORES, OPS, seed=seed)
    spans.close(span)
    span = spans.open("sim.build", unit, parent)
    system = System(machine(regime), scheme)
    spans.close(span)
    span = spans.open("sim.load", unit, parent)
    spans.wrap(system.scheme, "prepare_trace", "persistence.prepare", unit,
               span)
    system.load_traces(traces)
    spans.close(span)
    return system


def build_all(seed: int, spans: SpanLog) -> None:
    """The workload's set-up: every point's traces, system and load."""
    for unit, name in enumerate(PAIRS):
        build(name, seed, spans, unit)


class Grid:
    """Runs grid passes, checking every point and the pass-to-pass
    identity of its exact counts."""

    def __init__(self, seed: int, outcome: Outcome) -> None:
        self.seed = seed
        self.outcome = outcome
        self.order = list(PAIRS)
        random.Random(seed).shuffle(self.order)
        self.golden = self.load_golden()
        self.latency = Normalizer()
        self.counts: Dict[str, Dict[str, float]] = {}
        self.events: Dict[str, int] = {}
        self.fingerprint = None
        self.probes: List[Dict[str, float]] = []

    def load_golden(self) -> Dict:
        """The committed snapshot, checked to cover exactly this grid."""
        golden = json.loads(GOLDEN_PATH.read_text())
        for name, (workload, scheme, _regime) in PAIRS.items():
            frozen = golden.get(name, {})
            if (frozen.get("workload"), frozen.get("scheme")) != \
                    (workload, scheme):
                self.outcome.fail(f"golden snapshot has no {name} point "
                                  f"for {workload}/{scheme}")
        if sorted(golden) != sorted(PAIRS):
            self.outcome.fail(f"golden snapshot points {sorted(golden)} "
                              f"are not the benchmark grid")
        return golden

    def point(self, name: str, system, spans: SpanLog = None,
              unit: int = 0, parent: int = -1) -> float:
        """Drain and collect one built point, check it, and return its
        latency in seconds.  The garbage earlier points left is
        collected first, untimed: otherwise each point paid for its
        predecessor's, so its time hung on the seeded order."""
        from repro.obs.stalls import StallReport
        from repro.sim.runner import collect_result

        gc.collect()
        began = time.perf_counter()
        if spans is None:
            system.run()
            result = collect_result(system, workload=PAIRS[name][0])
        else:
            span = spans.open("sim.run", unit, parent, began)
            system.run()
            spans.close(span)
            span = spans.open("sim.collect", unit, parent)
            result = collect_result(system, workload=PAIRS[name][0])
            spans.close(span)
        elapsed = time.perf_counter() - began

        self.outcome.attempted += 1
        data = result.to_dict(include_raw=True)
        if not system.done:
            self.outcome.fail(f"{name}: drained without finishing", 1)
        elif data != self.golden.get(name):
            self.outcome.fail(f"{name}: differs from the golden snapshot", 1)
        elif StallReport.from_result(result).attribution_errors():
            self.outcome.fail(f"{name}: stall attribution does not sum", 1)
        self.counts[name] = modelled_counts(data)
        self.events[name] = system.events_executed
        return elapsed

    def end_pass(self) -> None:
        fingerprint = json.dumps([self.events, self.counts], sort_keys=True)
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            self.outcome.fail("exact counts differ between passes")

    def probe(self) -> None:
        self.probes += setup_probes("golden-grid", GOLDEN_SEED, SETUP_PROBES)

    def plain_pass(self, _index: int = 0) -> None:
        self.latency.begin()
        for name in self.order:
            self.latency.add(name, self.point(name, build(name, GOLDEN_SEED)))
            self.latency.lap()
        self.end_pass()

    def check_seed(self) -> None:
        """The grid traced at ``--seed``, once and untimed: each point
        must finish with a stall attribution that sums to its total."""
        from repro.obs.stalls import StallReport
        from repro.sim.runner import collect_result

        for name in self.order:
            system = build(name, self.seed)
            system.run()
            result = collect_result(system, workload=PAIRS[name][0])
            self.outcome.attempted += 1
            if not system.done:
                self.outcome.fail(f"{name} at seed {self.seed}: drained "
                                  f"without finishing", 1)
            elif StallReport.from_result(result).attribution_errors():
                self.outcome.fail(f"{name} at seed {self.seed}: stall "
                                  f"attribution does not sum", 1)

    def one_pass_seconds(self) -> float:
        """One pass in reference seconds: the sum of each point's
        median."""
        return sum(self.latency.medians())

    def exact_counts(self) -> Dict[str, float]:
        counts = sum_counts(self.counts.values())
        counts["event.events"] = sum(self.events.values())
        return counts


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    grid = Grid(seed, outcome)
    grid.probe()
    if trace:
        traced(grid, seconds)
    else:
        passes = run_for(seconds, grid.plain_pass)
        grid.probe()
        samples = [t * 1000 for t in grid.latency.medians()]
        outcome.notes.append(f"{passes} passes x {len(PAIRS)} points; "
                             f"p50/p90 over the {len(samples)} per-point "
                             f"median latencies; {len(grid.probes)} set-up "
                             f"probes")
        outcome.metric("wall_s", grid.one_pass_seconds())
        outcome.metric("setup_s", median_of(grid.probes, "setup_s"))
        outcome.metric("p50_ms", percentile(samples, 50))
        outcome.metric("p90_ms", percentile(samples, 90))
        outcome.metric("peak_rss_mb", peak_rss_mb())
    if seed != GOLDEN_SEED:
        grid.check_seed()
    for problem in check_ledger("golden-grid", seed, grid.exact_counts()):
        outcome.fail(f"exact count changed between runs: {problem}")
    return outcome


def traced(grid: Grid, seconds: float) -> None:
    """Alternate plain and span-traced passes, then one profiler pass
    over ``System.run``."""
    spans = SpanLog()
    traced_latency = Normalizer()

    def pair(index: int) -> None:
        grid.plain_pass()
        traced_latency.begin()
        for offset, name in enumerate(grid.order):
            unit = index * len(PAIRS) + offset
            root = spans.open("golden.point", unit)
            system = build(name, GOLDEN_SEED, spans, unit, root)
            traced_latency.add(name,
                               grid.point(name, system, spans, unit, root))
            traced_latency.lap()
            spans.close(root)
        grid.end_pass()

    passes = run_for(seconds, pair, min_passes=1)
    grid.probe()
    systems = {name: build(name, GOLDEN_SEED) for name in grid.order}
    by_package = profile_by_package(
        lambda: [system.run() for system in systems.values()])
    for name, system in systems.items():
        grid.point(name, system)
    grid.end_pass()
    spans.write(WORK / f"spans-golden-grid-{grid.seed}.csv")

    totals = spans.totals()
    run_s = totals["sim.run"]["total_s"] / passes
    counts = grid.exact_counts()
    probes = grid.probes
    layers = {
        "workloads.generate_s": median_of(probes, "workloads.generate_s"),
        "sim.build_s": median_of(probes, "sim.build_s"),
        "persistence.prepare_s": median_of(probes, "persistence.prepare_s"),
        "sim.run_s": run_s,
        "sim.collect_s": totals["sim.collect"]["total_s"] / passes,
        "sim.kips": counts["sim.instructions"] / run_s / 1000,
        "event.ns_per_event": run_s / counts["event.events"] * 1e9,
        "trace.overhead_frac": sum(traced_latency.medians())
        / grid.one_pass_seconds() - 1,
    }
    layers.update(counts)
    layers.update(host_metrics(by_package))
    grid.outcome.notes.append(
        f"{passes} plain+traced pass pairs and 1 profiler pass; "
        f"{len(spans.start)} spans written under {WORK.name}/")
    report_layers(grid.outcome, layers)
