"""litmus-crash: the default litmus suite under every real scheme,
crashed at every cycle.

One run is one ``run_litmus(program, scheme)`` call: it steps a single
simulation with ``System.run(until=cycle)`` and, at every cycle where
an event executed, asks the scheme what survives a crash
(``durably_committed`` and ``durable_lines``) and checks that image
against the oracle's legal persist sets.  Thousands of short steps,
each followed by a recovery query: the opposite shape to golden-grid's
one long drain per point.

A run's latency is the median of its timed passes in reference
seconds (see ``harness.Normalizer``); each pass is ~120 runs of
~15 ms, so every run is timed many times across the measured phase.
``setup_s`` is the median of fresh-process set-ups timed before every
pass.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from harness import (WORK, Normalizer, Outcome, SpanLog, check_ledger,
                     host_metrics, median_of, modelled_counts, peak_rss_mb,
                     percentile, profile_by_package, report_layers,
                     run_for, setup_probes, sum_counts)

SCHEMES = ("sp", "kiln", "txcache", "undo_log", "redo_log", "hybrid_dram")
#: the commit-before-flush scheme the oracle must catch
NEGATIVE_CONTROL = "broken_commit"
#: fresh-process set-ups timed before each measured pass
SETUPS_PER_PASS = 5
#: the suite is fixed so every seed checks the same amount of work;
#: ``--seed`` sets the order of the runs
SUITE_SEED = 0


def machine(program):
    from repro.common.config import small_machine_config

    return small_machine_config(num_cores=program.num_cores)


def build_all(seed: int, spans: SpanLog) -> None:
    """The workload's set-up: suite generation and compilation, then
    every run's system build and trace load."""
    from repro.litmus import default_suite, tx_summaries
    from repro.sim.system import System

    span = spans.open("workloads.generate", 0)
    compiled = [(program, program.to_traces())
                for program in default_suite(SUITE_SEED)]
    for _program, traces in compiled:
        tx_summaries(traces)
    spans.close(span)
    for unit, (program, traces) in enumerate(compiled):
        for scheme in SCHEMES:
            span = spans.open("sim.build", unit)
            system = System(machine(program), scheme)
            spans.close(span)
            span = spans.open("sim.load", unit)
            spans.wrap(system.scheme, "prepare_trace", "persistence.prepare",
                       unit, span)
            system.load_traces(traces)
            spans.close(span)


class Matrix:
    """Runs matrix passes, checking every run and the pass-to-pass
    identity of its state counts."""

    def __init__(self, seed: int, outcome: Outcome) -> None:
        from repro.litmus import default_suite

        self.seed = seed
        self.outcome = outcome
        self.runs = [(program, scheme)
                     for program in default_suite(SUITE_SEED)
                     for scheme in SCHEMES]
        random.Random(seed).shuffle(self.runs)
        self.latency = Normalizer()
        self.counts = None     # per run: (states_checked, crash_cycles)
        self.probes: List[Dict[str, float]] = []

    def plain_pass(self, _index: int = 0) -> None:
        from repro.litmus import run_litmus

        self.probes += setup_probes("litmus-crash", self.seed,
                                    SETUPS_PER_PASS)
        counts = []
        self.latency.begin()
        for index, (program, scheme) in enumerate(self.runs):
            began = time.perf_counter()
            result = run_litmus(program, scheme)
            self.latency.add(index, time.perf_counter() - began)
            self.latency.lap()
            self.outcome.attempted += 1
            if not result.consistent:
                self.outcome.fail(f"{program.name}/{scheme}: "
                                  f"{result.violating_cycles} violating "
                                  f"crash cycles", 1)
            counts.append((result.states_checked, result.crash_cycles))
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.outcome.fail("state counts differ between passes")

    def one_pass_seconds(self) -> float:
        """One pass in reference seconds: the sum of each run's
        median."""
        return sum(self.latency.medians())

    def exact_counts(self) -> Dict[str, int]:
        return {"litmus.states": sum(c[0] for c in self.counts),
                "litmus.crash_cycles": sum(c[1] for c in self.counts)}


def check_negative_control(outcome: Outcome) -> None:
    """A checker that cannot fail proves nothing: the oracle must
    catch the broken scheme on every classic shape."""
    from repro.litmus import CLASSIC_SHAPES, run_litmus

    missed = [shape().name for shape in CLASSIC_SHAPES
              if run_litmus(shape(), NEGATIVE_CONTROL).consistent]
    if missed:
        outcome.fail(f"{NEGATIVE_CONTROL} not caught on {missed}")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    check_negative_control(outcome)
    matrix = Matrix(seed, outcome)
    if trace:
        traced(matrix, seconds)
    else:
        passes = run_for(seconds, matrix.plain_pass)
        samples = [t * 1000 for t in matrix.latency.medians()]
        counts = matrix.exact_counts()
        outcome.notes.append(
            f"{passes} passes x {len(matrix.runs)} runs; p50/p90 over the "
            f"{len(samples)} per-run median latencies; "
            f"{len(matrix.probes)} set-up probes; "
            f"{counts['litmus.states']} states, "
            f"{counts['litmus.crash_cycles']} crash cycles per pass")
        outcome.metric("wall_s", matrix.one_pass_seconds())
        outcome.metric("setup_s", median_of(matrix.probes, "setup_s"))
        outcome.metric("p50_ms", percentile(samples, 50))
        outcome.metric("p90_ms", percentile(samples, 90))
        outcome.metric("peak_rss_mb", peak_rss_mb())
    for problem in check_ledger("litmus-crash", seed, matrix.exact_counts()):
        outcome.fail(f"exact count changed between runs: {problem}")
    return outcome


def traced_run(program, scheme, spans: SpanLog, unit: int):
    """One run the way ``run_litmus`` does it, with a span around every
    public call.  Returns (system, states checked, violating states)."""
    from repro.litmus import check_membership, iter_crash_states, tx_summaries
    from repro.sim.system import System

    root = spans.open("litmus.run", unit)
    span = spans.open("litmus.compile", unit, root)
    traces = program.to_traces()
    summaries = tx_summaries(traces)
    spans.close(span)
    span = spans.open("sim.build", unit, root)
    system = System(machine(program), scheme)
    spans.close(span)
    span = spans.open("sim.load", unit, root)
    spans.wrap(system.scheme, "prepare_trace", "persistence.prepare", unit,
               span)
    system.load_traces(traces)
    spans.close(span)
    spans.wrap(system, "run", "sim.step", unit, root)
    for method in ("durably_committed", "durable_lines"):
        spans.wrap(system.scheme, method, "persistence.recover", unit, root)
    states = violations = 0
    for _cycle, committed, recovered in iter_crash_states(system):
        span = spans.open("litmus.check", unit, root)
        violations += bool(check_membership(summaries, committed, recovered))
        spans.close(span)
        states += 1
    spans.close(root)
    return system, states, violations


def traced(matrix: Matrix, seconds: float) -> None:
    """Alternate plain and span-traced passes, then one profiler pass
    over ``run_litmus``."""
    from repro.litmus import run_litmus
    from repro.sim.runner import collect_result

    spans = SpanLog()
    runs = matrix.runs
    traced_latency = Normalizer()
    counts: List[Dict[str, float]] = [{} for _ in runs]
    events = [0] * len(runs)

    def pair(index: int) -> None:
        matrix.plain_pass()
        traced_latency.begin()
        for offset, (program, scheme) in enumerate(runs):
            unit = index * len(runs) + offset
            began = time.perf_counter()
            system, states, violations = traced_run(program, scheme, spans,
                                                    unit)
            traced_latency.add(offset, time.perf_counter() - began)
            traced_latency.lap()
            matrix.outcome.attempted += 1
            if violations or states != matrix.counts[offset][0]:
                matrix.outcome.fail(
                    f"traced {program.name}/{scheme}: {violations} "
                    f"violations in {states} states", 1)
            span = spans.open("sim.collect", unit)
            result = collect_result(system).to_dict(include_raw=True)
            spans.close(span)
            counts[offset] = modelled_counts(result)
            events[offset] = system.events_executed

    passes = run_for(seconds, pair, min_passes=1)
    by_package = profile_by_package(
        lambda: [run_litmus(program, scheme) for program, scheme in runs])
    spans.write(WORK / f"spans-litmus-crash-{matrix.seed}.csv")

    totals = spans.totals()
    step_s = totals["sim.step"]["total_s"] / passes
    modelled = sum_counts(counts)
    exact = matrix.exact_counts()
    probes = matrix.probes
    layers = {
        "workloads.generate_s": median_of(probes, "workloads.generate_s"),
        "sim.build_s": median_of(probes, "sim.build_s"),
        "persistence.prepare_s": median_of(probes, "persistence.prepare_s"),
        "sim.step_s": step_s,
        "sim.steps": totals["sim.step"]["count"] / passes,
        "sim.collect_s": totals["sim.collect"]["total_s"] / passes,
        "sim.kips": modelled["sim.instructions"] / step_s / 1000,
        "persistence.recover_s":
            totals["persistence.recover"]["total_s"] / passes,
        "persistence.recover_calls":
            totals["persistence.recover"]["count"] / passes,
        "litmus.check_s": totals["litmus.check"]["total_s"] / passes,
        "litmus.states_per_s":
            exact["litmus.states"] / matrix.one_pass_seconds(),
        "event.events": sum(events),
        "event.ns_per_event": step_s / sum(events) * 1e9,
        "trace.overhead_frac": sum(traced_latency.medians())
        / matrix.one_pass_seconds() - 1,
    }
    layers.update(exact)
    layers.update(modelled)
    layers.update(host_metrics(by_package))
    matrix.outcome.notes.append(
        f"{passes} plain+traced pass pairs and 1 profiler pass; "
        f"{len(spans.start)} spans written under {WORK.name}/")
    report_layers(matrix.outcome, layers)
