"""Unit tests for the kernel benchmark-regression harness itself.

These always run (no timing assertions): they pin down the comparison
semantics the perf gate relies on -- the median of paired ratios,
missing-point detection, exact event counts -- and keep the committed
baseline file honest (schema, coverage, and every point's counts equal
to a fresh run's).  The harness is a script, not part of the package,
so it is imported by path.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parents[1]
          / "benchmarks" / "perf" / "bench_kernel.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_kernel", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench = _load_script()


def _baseline(keys, ticks=900):
    return {
        "schema": bench.SCHEMA_VERSION,
        "points": {key: _counts(ticks) for key in keys},
    }


def _counts(ticks=900):
    return {"events": 100 + ticks, "instructions": 500, "cycles": 700,
            "events_by_owner": {"Core._step": 100,
                                "MemoryController._tick": ticks}}


def _gate(ratios, ticks=900, base_ticks=900):
    """Run the gate on one point per key of ``ratios``, each timed at
    a parent speed of 1e6 instructions/sec and the given per-pair
    change/parent ratios."""
    keys = list(ratios)
    parent = {key: [1e6] * len(r) for key, r in ratios.items()}
    change = {key: [1e6 * x for x in r] for key, r in ratios.items()}
    counts = {key: _counts(ticks) for key in keys}
    return bench.compare(_baseline(keys, base_ticks), counts,
                         parent, change, keys)


class TestPairedRatio:
    def test_equal_speeds_pass(self):
        assert _gate({"a": [1.0, 1.0, 1.0], "b": [1.0]}) == []

    def test_ratio_within_tolerance_passes(self):
        assert _gate({"a": [0.91, 0.91, 0.91]}) == []

    def test_eleven_percent_below_fails_naming_point_and_ratio(self):
        failures = _gate({"a": [0.89, 0.89, 0.89]})
        assert len(failures) == 1
        assert failures[0].startswith("a:")
        assert "0.890" in failures[0] and "11%" in failures[0]

    def test_gate_reads_the_median_pair(self):
        """One slow pair (a host hiccup) does not fail the gate; a slow
        majority does."""
        assert _gate({"a": [0.50, 1.00, 1.01]}) == []
        assert len(_gate({"a": [0.80, 0.85, 1.01]})) == 1

    def test_improvement_passes(self):
        assert _gate({"a": [1.5, 2.0, 1.8]}) == []

    def test_ratios_pair_runs_in_order(self):
        parent = {"a": [1.0, 2.0, 4.0]}
        change = {"a": [1.0, 1.0, 2.0]}
        assert bench.pair_ratios(parent, change, "a") == [1.0, 0.5, 0.5]

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_point_missing_from_either_side_fails(self, side):
        """The gate must not pass just because coverage shrank."""
        timings = {"parent": {"a": [1e6], "b": [1e6]},
                   "change": {"a": [1e6], "b": [1e6]}}
        del timings[side]["b"]
        failures = bench.compare(
            _baseline(["a", "b"]), {"a": _counts(), "b": _counts()},
            timings["parent"], timings["change"], ["a", "b"])
        assert failures == [f"b: missing from the {side} run"]

    def test_keys_restricts_comparison_to_claimed_points(self):
        """A smoke run covers a subset of the full baseline -- only the
        points it claims must be present and within tolerance."""
        timings = {"a": [1e6]}
        counts = {"a": _counts()}
        base = _baseline(["a", "b"])
        assert bench.compare(base, counts, timings, timings, ["a"]) == []
        failures = bench.compare(base, counts, timings, timings,
                                 ["a", "b"])
        assert failures
        assert all(f.startswith("b:") and "missing" in f for f in failures)

    def test_extra_points_outside_keys_are_ignored(self):
        timings = {"a": [1e6], "new": [1.0]}
        counts = {"a": _counts(), "new": _counts(ticks=1)}
        assert bench.compare(_baseline(["a"]), counts, timings, timings,
                             ["a"]) == []

    def test_key_absent_from_baseline_is_a_failure(self):
        """Claiming a point the baseline never counted means the
        baseline is stale -- surface it, don't skip it."""
        timings = {"a": [1e6], "b": [1e6]}
        failures = bench.compare(
            _baseline(["a"]), {"a": _counts(), "b": _counts()},
            timings, timings, ["a", "b"])
        assert len(failures) == 1 and "baseline" in failures[0]


class TestEventCounts:
    def test_any_event_count_change_fails(self):
        """Event counts are deterministic, so the gate has no tolerance
        for them -- either direction names the owner that moved."""
        for ticks in (899, 901):
            failures = _gate({"a": [1.0]}, ticks=ticks)
            assert len(failures) == 1
            assert "MemoryController._tick" in failures[0]
            assert f"{ticks:,}" in failures[0] and "900" in failures[0]

    def test_new_or_vanished_owner_fails(self):
        counts = {"a": _counts()}
        counts["a"]["events_by_owner"]["Poller.poll"] = 5
        del counts["a"]["events_by_owner"]["Core._step"]
        timings = {"a": [1e6]}
        failures = bench.compare(_baseline(["a"]), counts, timings,
                                 timings, ["a"])
        assert len(failures) == 2
        assert "Core._step" in failures[0] and "Poller.poll" in failures[1]

    def test_re_added_polls_fail_even_when_faster(self):
        """Instructions/sec could rise if polls came back cheaply; the
        gate must not read that as an improvement."""
        failures = _gate({"a": [2.0, 2.0, 2.0]}, ticks=3000,
                         base_ticks=300)
        assert len(failures) == 1 and "_tick" in failures[0]


class TestBenchPoint:
    def test_key_encodes_every_parameter(self):
        point = bench.BenchPoint("sps", "sp", cores=2, operations=30, seed=7)
        assert point.key == "sps/sp/c2/o30/s7"

    def test_smoke_points_cover_both_paths(self):
        """One accelerator-path scheme, one software-path scheme --
        the smoke gate must notice a slowdown on either."""
        schemes = {p.scheme for p in bench.SMOKE_POINTS}
        assert "txcache" in schemes and "sp" in schemes


class TestCommittedBaseline:
    def test_baseline_exists_and_loads(self):
        assert bench.load_baseline()["schema"] == bench.SCHEMA_VERSION

    def test_baseline_covers_every_point(self):
        records = bench.load_baseline()["points"]
        assert sorted(records) == sorted(p.key for p in bench.FULL_POINTS)
        for rec in records.values():
            assert sorted(rec) == ["cycles", "events", "events_by_owner",
                                   "instructions"]
            assert rec["events"] > 0 and rec["cycles"] > 0
            assert rec["instructions"] > 0
            assert sum(rec["events_by_owner"].values()) == rec["events"]

    def test_baseline_round_trips(self, tmp_path):
        path = tmp_path / "baseline.json"
        report = bench.load_baseline()
        path.write_text(json.dumps(report))
        assert bench.load_baseline(path) == report

    @pytest.mark.parametrize("point", bench.FULL_POINTS,
                             ids=lambda point: point.key)
    def test_counts_match_baseline(self, point):
        """Every point's events, instructions, cycles and per-owner
        event counts equal the committed baseline's, exactly."""
        assert bench.count_point(point) == \
            bench.load_baseline()["points"][point.key]


class TestCounting:
    def test_count_point_record_shape(self):
        point = bench.BenchPoint("hashtable", "txcache", cores=1,
                                 operations=2)
        rec = bench.count_point(point)
        assert list(rec) == ["events", "events_by_owner", "instructions",
                             "cycles"]
        assert rec["events"] > 0 and rec["cycles"] > 0
        assert rec["instructions"] > 0
        # every executed event was scheduled under a named owner
        assert sum(rec["events_by_owner"].values()) == rec["events"]
        assert "MemoryController._tick" in rec["events_by_owner"]

    def test_count_point_is_deterministic(self):
        point = bench.BenchPoint("hashtable", "txcache", cores=1,
                                 operations=2)
        assert bench.count_point(point) == bench.count_point(point)


class TestCallsByPackage:
    def test_two_runs_on_one_tree_print_identical_counts(self):
        """The counts are exact: each run profiles the point in a fresh
        process, and two of them print the same table."""
        point = bench.BenchPoint("hashtable", "txcache", cores=1,
                                 operations=2)
        src = bench.REPO_ROOT / "src"
        tables = [bench.calls_table(point.key, {
            "calls": bench.calls_by_package(src, point)})
            for _ in range(2)]
        assert tables[0] == tables[1]
        packages = {line.split()[0] for line in tables[0][2:]}
        assert {"builtins", "cache", "cpu", "event", "memory",
                "total"} <= packages

    def test_table_prints_both_sides_and_the_delta(self):
        table = bench.calls_table("a", {
            "parent": {"cache": 1000, "cpu": 10},
            "change": {"cache": 900, "cpu": 10, "memory": 5}})
        assert table[0] == "  calls_by_package a"
        assert table[1].split() == ["package", "parent", "change", "delta"]
        rows = {line.split()[0]: line.split()[1:] for line in table[2:]}
        assert rows["cache"] == ["1,000", "900", "-100", "-10.0%"]
        assert rows["cpu"] == ["10", "10", "+0", "+0.0%"]
        assert rows["memory"] == ["0", "5", "+5"]
        assert rows["total"] == ["1,010", "915", "-95", "-9.4%"]
