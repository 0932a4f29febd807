"""Opt-in performance smoke gate (CI perf-smoke job).

Runs the two smoke benchmark points and fails if normalized simulated
instructions/sec regresses more than the tolerance, or any callback
owner's event count differs at all, against the committed
``benchmarks/perf/BENCH_kernel.json``.

Wall-clock assertions are inherently machine- and load-sensitive, so
this module is **skipped unless ``REPRO_PERF_SMOKE=1``** — it must
never flake a plain ``pytest`` run.  CI runs it in a dedicated job;
locally::

    REPRO_PERF_SMOKE=1 pytest tests/test_perf_smoke.py -q
"""

from __future__ import annotations

import os

import pytest

from repro.bench.kernel import (
    DEFAULT_TOLERANCE,
    SMOKE_POINTS,
    compare_reports,
    format_report,
    load_baseline,
    run_bench,
)

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_PERF_SMOKE") != "1",
    reason="perf smoke is opt-in: set REPRO_PERF_SMOKE=1 "
           "(timing gates flake under incidental machine load)",
)


def test_smoke_points_within_tolerance_of_baseline():
    baseline = load_baseline()
    report = run_bench(SMOKE_POINTS, repeats=3)
    failures = compare_reports(baseline, report,
                               tolerance=DEFAULT_TOLERANCE,
                               keys=[point.key for point in SMOKE_POINTS])
    assert not failures, (
        "perf regression vs committed baseline:\n  "
        + "\n  ".join(failures)
        + "\n\ncurrent run:\n" + format_report(report)
    )
