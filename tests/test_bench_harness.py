"""Unit tests for the benchmark-regression harness itself.

These always run (no timing assertions): they pin down the comparison
semantics the perf gate relies on — tolerance arithmetic, missing-point
detection, normalization — and keep the committed baseline file honest
(schema, smoke coverage, internally-consistent numbers).
"""

from __future__ import annotations

import json

from repro.bench.kernel import (
    BASELINE_PATH,
    FULL_POINTS,
    SCHEMA_VERSION,
    SMOKE_POINTS,
    BenchPoint,
    compare_reports,
    format_report,
    load_baseline,
    measure_point,
    run_bench,
)


def _report(normalized_by_key, ticks=900):
    return {
        "schema": SCHEMA_VERSION,
        "calibration_ops_per_sec": 1_000_000.0,
        "points": {
            key: {"normalized": norm, "instructions_per_sec": norm * 1e6,
                  "instructions": 500, "events": 100 + ticks,
                  "events_by_owner": {"Core._step": 100,
                                      "MemoryController._tick": ticks},
                  "wall_s": 0.001}
            for key, norm in normalized_by_key.items()
        },
    }


class TestComparison:
    def test_identical_reports_pass(self):
        base = _report({"a": 0.01, "b": 0.02})
        assert compare_reports(base, base) == []

    def test_drop_within_tolerance_passes(self):
        base = _report({"a": 0.0100})
        cur = _report({"a": 0.0071})  # 29% below, tolerance 30%
        assert compare_reports(base, cur, tolerance=0.30) == []

    def test_drop_beyond_tolerance_fails(self):
        base = _report({"a": 0.0100})
        cur = _report({"a": 0.0069})  # 31% below
        failures = compare_reports(base, cur, tolerance=0.30)
        assert len(failures) == 1
        assert "a" in failures[0] and "31%" in failures[0]

    def test_improvement_passes(self):
        base = _report({"a": 0.01})
        cur = _report({"a": 0.05})
        assert compare_reports(base, cur) == []

    def test_missing_point_is_a_failure(self):
        """The gate must not pass just because coverage shrank."""
        base = _report({"a": 0.01, "b": 0.02})
        cur = _report({"a": 0.01})
        failures = compare_reports(base, cur)
        assert len(failures) == 1 and "missing" in failures[0]

    def test_extra_current_points_are_ignored(self):
        base = _report({"a": 0.01})
        cur = _report({"a": 0.01, "new": 0.001})
        assert compare_reports(base, cur) == []

    def test_keys_restricts_comparison_to_claimed_points(self):
        """A smoke run covers a subset of the full baseline — only the
        points it claims must be present and within tolerance."""
        base = _report({"a": 0.01, "b": 0.02})
        cur = _report({"a": 0.01})
        assert compare_reports(base, cur, keys=["a"]) == []
        failures = compare_reports(base, cur, keys=["a", "b"])
        assert len(failures) == 1 and "missing" in failures[0]

    def test_any_event_count_change_fails(self):
        """Event counts are deterministic, so the gate has no tolerance
        for them — either direction names the owner that moved."""
        base = _report({"a": 0.01}, ticks=900)
        for ticks in (899, 901):
            failures = compare_reports(base, _report({"a": 0.01},
                                                     ticks=ticks))
            assert len(failures) == 1
            assert "MemoryController._tick" in failures[0]
            assert f"{ticks:,}" in failures[0] and "900" in failures[0]

    def test_new_or_vanished_owner_fails(self):
        base = _report({"a": 0.01})
        cur = _report({"a": 0.01})
        cur["points"]["a"]["events_by_owner"]["Poller.poll"] = 5
        del cur["points"]["a"]["events_by_owner"]["Core._step"]
        failures = compare_reports(base, cur)
        assert len(failures) == 2
        assert "Core._step" in failures[0] and "Poller.poll" in failures[1]

    def test_re_added_polls_fail_even_when_faster(self):
        """Events/sec would rise if polls came back; the gate must not
        read that as an improvement."""
        base = _report({"a": 0.01}, ticks=300)
        cur = _report({"a": 0.02}, ticks=3000)
        failures = compare_reports(base, cur)
        assert len(failures) == 1 and "_tick" in failures[0]

    def test_key_absent_from_baseline_is_a_failure(self):
        """Claiming a point the baseline never measured means the
        baseline is stale — surface it, don't skip it."""
        base = _report({"a": 0.01})
        cur = _report({"a": 0.01, "b": 0.02})
        failures = compare_reports(base, cur, keys=["a", "b"])
        assert len(failures) == 1 and "baseline" in failures[0]


class TestBenchPoint:
    def test_key_encodes_every_parameter(self):
        point = BenchPoint("sps", "sp", cores=2, operations=30, seed=7)
        assert point.key == "sps/sp/c2/o30/s7"

    def test_smoke_points_cover_both_paths(self):
        """One accelerator-path scheme, one software-path scheme —
        the smoke gate must notice a slowdown on either."""
        schemes = {p.scheme for p in SMOKE_POINTS}
        assert "txcache" in schemes and "sp" in schemes


class TestCommittedBaseline:
    def test_baseline_exists_and_loads(self):
        report = load_baseline()
        assert report["schema"] == SCHEMA_VERSION
        assert report["calibration_ops_per_sec"] > 0

    def test_baseline_covers_every_point(self):
        records = load_baseline()["points"]
        assert sorted(records) == sorted(p.key for p in FULL_POINTS)
        for rec in records.values():
            assert rec["events"] > 0 and rec["cycles"] > 0
            assert rec["instructions"] > 0 and rec["normalized"] > 0
            assert sum(rec["events_by_owner"].values()) == rec["events"]

    def test_baseline_round_trips(self, tmp_path):
        path = tmp_path / "baseline.json"
        report = load_baseline()
        path.write_text(json.dumps(report))
        assert load_baseline(path) == report


class TestMeasurement:
    def test_measure_point_record_shape(self):
        point = BenchPoint("hashtable", "txcache", cores=1, operations=2)
        rec = measure_point(point, repeats=1)
        assert sorted(rec) == ["cycles", "events", "events_by_owner",
                               "instructions", "instructions_per_sec",
                               "wall_s"]
        assert rec["events"] > 0 and rec["cycles"] > 0
        assert rec["instructions"] > 0 and rec["instructions_per_sec"] > 0
        # the untimed counting run schedules exactly the timed run's
        # events, every one under a named owner
        assert sum(rec["events_by_owner"].values()) == rec["events"]
        assert "MemoryController._tick" in rec["events_by_owner"]

    def test_measure_point_deterministic_events(self):
        point = BenchPoint("hashtable", "txcache", cores=1, operations=2)
        a = measure_point(point, repeats=1)
        b = measure_point(point, repeats=2)
        assert a["events"] == b["events"]
        assert a["events_by_owner"] == b["events_by_owner"]
        assert a["instructions"] == b["instructions"]
        assert a["cycles"] == b["cycles"]

    def test_run_bench_normalizes_against_calibration(self):
        point = BenchPoint("hashtable", "txcache", cores=1, operations=2)
        report = run_bench([point], repeats=1, calibration=1_000_000.0)
        rec = report["points"][point.key]
        assert rec["normalized"] == round(
            rec["instructions_per_sec"] / 1e6, 6)
        assert point.key in format_report(report)
