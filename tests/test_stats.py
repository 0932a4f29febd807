"""Unit tests for the statistics registry."""

from repro.common.stats import Stats


def test_counter_starts_at_zero():
    stats = Stats()
    assert stats.counter("never") == 0


def test_counter_accumulates():
    stats = Stats()
    stats.inc("hits")
    stats.inc("hits", 4)
    assert stats.counter("hits") == 5


def test_sample_summary():
    stats = Stats()
    for value in (10, 20, 30):
        stats.sample("lat", value)
    summary = stats.summary("lat")
    assert summary.count == 3
    assert summary.mean == 20
    assert summary.minimum == 10
    assert summary.maximum == 30


def test_mean_of_unseen_sample_is_zero():
    stats = Stats()
    assert stats.mean("nothing") == 0.0


def test_counters_prefix_filter():
    stats = Stats()
    stats.inc("l1.0.hit", 3)
    stats.inc("l1.1.hit", 2)
    stats.inc("l2.0.hit", 9)
    assert stats.counters("l1.") == {"l1.0.hit": 3, "l1.1.hit": 2}


def test_scoped_prefixes_names():
    stats = Stats()
    scoped = stats.scoped("llc")
    scoped.inc("miss", 2)
    scoped.sample("latency", 20)
    assert stats.counter("llc.miss") == 2
    assert stats.mean("llc.latency") == 20


def test_scoped_nesting():
    stats = Stats()
    inner = stats.scoped("core").scoped("0")
    inner.inc("stall")
    assert stats.counter("core.0.stall") == 1


def test_as_dict_flattens_samples():
    stats = Stats()
    stats.inc("c", 7)
    stats.sample("s", 4)
    stats.sample("s", 6)
    flat = stats.as_dict()
    assert flat["c"] == 7
    assert flat["s.mean"] == 5
    assert flat["s.count"] == 2
    assert flat["s.min"] == 4
    assert flat["s.max"] == 6


def test_counters_and_as_dict_are_key_sorted():
    """Serialized stats must not depend on component init order."""
    stats = Stats()
    stats.inc("zebra")
    stats.inc("apple")
    stats.sample("mid.latency", 3)
    assert list(stats.counters()) == sorted(stats.counters())
    flat = stats.as_dict()
    assert list(flat) == sorted(flat)

    # a second registry hit in the opposite order flattens identically
    mirror = Stats()
    mirror.sample("mid.latency", 3)
    mirror.inc("apple")
    mirror.inc("zebra")
    assert list(mirror.as_dict()) == list(flat)


class TestWarnSuppression:
    def _overflow(self, stats, name, extra):
        for i in range(Stats.MAX_EVENTS_PER_NAME + extra):
            stats.warn(name, f"event {i}")

    def test_counter_exact_sample_bounded(self):
        stats = Stats()
        self._overflow(stats, "oops", extra=5)
        assert stats.counter("oops") == Stats.MAX_EVENTS_PER_NAME + 5
        assert len(stats.events("oops")) == Stats.MAX_EVENTS_PER_NAME
        assert stats.suppressed("oops") == 5

    def test_flush_emits_one_summary(self, caplog):
        stats = Stats()
        self._overflow(stats, "oops", extra=3)
        with caplog.at_level("WARNING", logger="repro.stats"):
            stats.flush_suppressed()
        summaries = [rec for rec in caplog.records
                     if "suppressed" in rec.getMessage()]
        assert len(summaries) == 1
        assert "further 3 occurrences suppressed" in summaries[0].getMessage()

    def test_flush_is_idempotent_and_reports_deltas(self, caplog):
        stats = Stats()
        self._overflow(stats, "oops", extra=2)
        stats.flush_suppressed()
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.stats"):
            stats.flush_suppressed()      # nothing new: silent
        assert not [rec for rec in caplog.records
                    if "suppressed" in rec.getMessage()]
        stats.warn("oops", "late straggler")
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.stats"):
            stats.flush_suppressed()      # only the delta
        summaries = [rec for rec in caplog.records
                     if "suppressed" in rec.getMessage()]
        assert len(summaries) == 1
        assert "further 1 occurrences suppressed" in summaries[0].getMessage()

    def test_dump_flushes_and_returns_sorted_dict(self, caplog):
        stats = Stats()
        self._overflow(stats, "oops", extra=4)
        with caplog.at_level("WARNING", logger="repro.stats"):
            flat = stats.dump()
        assert list(flat) == sorted(flat)
        assert flat["oops"] == Stats.MAX_EVENTS_PER_NAME + 4
        assert any("suppressed" in rec.getMessage()
                   for rec in caplog.records)

    def test_under_cap_never_summarizes(self, caplog):
        stats = Stats()
        stats.warn("rare", "only once")
        with caplog.at_level("WARNING", logger="repro.stats"):
            stats.flush_suppressed()
        assert not [rec for rec in caplog.records
                    if "suppressed" in rec.getMessage()]
        assert stats.suppressed("rare") == 0

    def test_scoped_warn_suppression(self):
        stats = Stats()
        scoped = stats.scoped("tc.0")
        for i in range(Stats.MAX_EVENTS_PER_NAME + 2):
            scoped.warn("ack.unmatched", f"ack {i}")
        assert scoped.suppressed("ack.unmatched") == 2
        assert stats.suppressed("tc.0.ack.unmatched") == 2


class TestMerge:
    def test_counters_add(self):
        a, b = Stats(), Stats()
        a.inc("hits", 3)
        b.inc("hits", 4)
        b.inc("misses")
        a.merge(b)
        assert a.counter("hits") == 7
        assert a.counter("misses") == 1
        assert b.counter("hits") == 4          # source untouched

    def test_samples_combine_exactly(self):
        a, b = Stats(), Stats()
        for value in (10, 20):
            a.sample("latency", value)
        for value in (5, 40, 15):
            b.sample("latency", value)
        a.merge(b)
        summary = a.summary("latency")
        assert summary.count == 5
        assert summary.total == 90
        assert summary.minimum == 5
        assert summary.maximum == 40
        assert a.mean("latency") == 18

    def test_histograms_combine_per_bucket(self):
        a, b = Stats(), Stats()
        for value in (2, 3):
            a.hist("cycles", value)
        for value in (2, 100):
            b.hist("cycles", value)
        a.merge(b)
        histogram = a.histogram("cycles")
        assert histogram.count == 4
        assert histogram.buckets()[1] == 3     # 2, 3, 2 share [2, 4)

    def test_merge_equals_sum_of_parts(self):
        # additive and repeatable: merging two registries then reading
        # equals the sum of reading each
        a, b = Stats(), Stats()
        a.inc("n", 2)
        b.inc("n", 5)
        total = Stats()
        total.merge(a)
        total.merge(b)
        assert total.counter("n") == a.counter("n") + b.counter("n")

    def test_prefix_prevents_collisions(self):
        server, worker = Stats(), Stats()
        server.inc("executed", 10)
        worker.inc("executed", 3)
        worker.sample("seconds", 1.5)
        server.merge(worker, prefix="worker3.")
        assert server.counter("executed") == 10        # untouched
        assert server.counter("worker3.executed") == 3
        assert server.mean("worker3.seconds") == 1.5

    def test_events_append_with_bounded_overflow(self):
        a, b = Stats(), Stats()
        for i in range(Stats.MAX_EVENTS_PER_NAME - 1):
            a.warn("oops", f"a{i}")
        for i in range(4):
            b.warn("oops", f"b{i}")
        a.merge(b)
        kept = a.events("oops")
        assert len(kept) == Stats.MAX_EVENTS_PER_NAME
        assert kept[-1] == "b0"                # first incoming kept
        assert a.suppressed("oops") == 3       # the rest counted

    def test_suppressed_counts_add(self):
        a, b = Stats(), Stats()
        for i in range(Stats.MAX_EVENTS_PER_NAME + 2):
            b.warn("oops", f"b{i}")
        assert b.suppressed("oops") == 2
        a.merge(b)
        # b's retained events fill a's empty slots; b's own overflow
        # carries over on top of whatever a had to suppress
        assert a.suppressed("oops") == 2
        assert a.counter("oops") == Stats.MAX_EVENTS_PER_NAME + 2


class TestFromFlat:
    """from_flat rebuilds a counters-only registry from a wire-format
    dump() — the cluster router's way of merging remote /stats."""

    def test_round_trips_counters_through_dump(self):
        stats = Stats()
        stats.inc("serve.executed", 3)
        stats.inc("serve.http.200", 9)
        rebuilt = Stats.from_flat(stats.dump())
        assert rebuilt.counter("serve.executed") == 3
        assert rebuilt.counter("serve.http.200") == 9

    def test_sample_expansions_keep_count_drop_moments(self):
        stats = Stats()
        for value in (10, 20, 30):
            stats.sample("lat", value)
        rebuilt = Stats.from_flat(stats.dump())
        dump = rebuilt.dump()
        assert dump.get("lat.count") == 3
        assert not any(name.endswith((".mean", ".min", ".max"))
                       for name in dump)

    def test_non_numeric_and_bool_values_skipped(self):
        rebuilt = Stats.from_flat({"flag": True, "label": "x",
                                   "n": 2, 3: 4, "none": None})
        assert rebuilt.dump() == {"n": 2}

    def test_from_flat_results_merge_additively(self):
        total = Stats()
        total.merge(Stats.from_flat({"serve.executed": 2}))
        total.merge(Stats.from_flat({"serve.executed": 5}),
                    prefix="node1.")
        assert total.counter("serve.executed") == 2
        assert total.counter("node1.serve.executed") == 5




class TestCells:
    """Cells: hot components record into objects the registry hands
    out and folds in on every read, so they read exactly as the
    ``inc``/``sample``/``hist`` calls they stand for."""

    def test_cells_start_empty(self):
        stats = Stats()
        counts = stats.cells("write.requests", "hits")
        assert (counts.write_requests, counts.hits) == (0, 0)
        assert stats.tally("lat") == {}
        assert stats.counter_map("stall") == {}

    def test_unrecorded_cells_are_absent(self):
        stats = Stats()
        scoped = stats.scoped("core.0")
        scoped.cells("hits")
        scoped.counter_map("stall")["load"] += 0
        scoped.tally("lat")
        scoped.tally("read.latency", histogram=True)
        assert stats.counters() == {}
        assert stats.as_dict() == {}
        assert stats.dump() == {}
        assert stats.histograms() == {}

    def test_counter_reads_live_values(self):
        stats = Stats()
        scoped = stats.scoped("l1.0")
        counts = scoped.cells("access")
        stalls = scoped.counter_map("stall")
        counts.access += 3
        assert stats.counter("l1.0.access") == 3
        counts.access += 2
        stats.inc("l1.0.access")
        stalls["fence"] += 4
        assert stats.counter("l1.0.access") == 6
        assert stats.counters("l1.") == {"l1.0.access": 6,
                                         "l1.0.stall.fence": 4}
        assert counts.access == 0          # folded in by the read

    def test_counter_reads_live_values_mid_run(self):
        from repro.sim.runner import make_traces
        from repro.sim.system import System

        system = System.build("txcache", num_cores=2)
        system.load_traces(make_traces("hashtable", 2, 10, seed=1))
        seen = []
        while not system.done:
            system.run(until=system.sim.now + 500)
            seen.append(system.stats.counter("l1.0.access"))
        assert seen[0] > 0
        assert seen == sorted(seen) and seen[-1] > seen[0]

    def test_derived_cell_reads_as_the_difference(self):
        """A derived counter is folded in as minuend - subtrahend on
        every read, and stays absent while that is 0."""
        stats = Stats()
        counts = stats.scoped("l1.0").cells(
            "access", "miss", derived=(("hit", "access", "miss"),))
        counts.access += 2
        counts.miss += 2
        assert stats.counters() == {"l1.0.access": 2, "l1.0.miss": 2}
        counts.access += 5
        counts.miss += 1
        assert stats.counters() == {"l1.0.access": 7, "l1.0.hit": 4,
                                    "l1.0.miss": 3}

    def test_cells_sharing_a_name_add_up(self):
        stats = Stats()
        first, second = stats.cells("hits"), stats.cells("hits")
        first.hits += 1
        second.hits += 2
        stats.tally("lat")[5] += 1
        stats.tally("lat")[7] += 1
        assert stats.counter("hits") == 3
        assert stats.summary("lat").count == 2

    def test_tally_reads_as_samples(self):
        by_cell, by_call = Stats(), Stats()
        tally = by_cell.tally("lat")
        for value in (130, 4, 4, 900, 130, 4):
            tally[value] += 1
            by_call.sample("lat", value)
        assert by_cell.as_dict() == by_call.as_dict()
        summary = by_cell.summary("lat")
        assert (summary.count, summary.minimum, summary.maximum) == \
            (6, 4, 900)
        assert by_cell.histograms() == {}

    def test_histogram_tally_reads_as_hist(self):
        by_cell, by_call = Stats(), Stats()
        tally = by_cell.tally("read.latency", histogram=True)
        for value in (1, 2, 3, 70, 70, 1000):
            tally[value] += 1
            by_call.hist("read.latency", value)
        assert by_cell.as_dict() == by_call.as_dict()
        assert by_cell.histogram("read.latency").buckets() == \
            by_call.histogram("read.latency").buckets()
        assert by_cell.percentile("read.latency", 0.5) == \
            by_call.percentile("read.latency", 0.5)

    def test_reads_in_between_fold_exactly(self):
        stats = Stats()
        counts, tally = stats.cells("hits"), stats.tally("lat")
        counts.hits += 2
        tally[10] += 1
        assert stats.counter("hits") == 2 and stats.mean("lat") == 10
        counts.hits += 5
        tally[30] += 1
        assert stats.counter("hits") == 7
        summary = stats.summary("lat")
        assert (summary.count, summary.total, summary.maximum) == \
            (2, 40, 30)

    def test_merge_sees_cells(self):
        total, part = Stats(), Stats()
        total.inc("hits", 1)
        part.cells("hits").hits += 4
        part.tally("lat", histogram=True)[16] += 2
        total.merge(part)
        assert total.counter("hits") == 5
        assert total.summary("lat").count == 2
        assert total.histogram("lat").buckets() == {4: 2}
        assert part.counter("hits") == 4          # source untouched

    def test_from_flat_sees_cells(self):
        stats = Stats()
        scoped = stats.scoped("mem.nvm")
        scoped.cells("write.lines").write_lines += 9
        scoped.tally("lat")[5] += 3
        rebuilt = Stats.from_flat(stats.as_dict())
        assert rebuilt.counter("mem.nvm.write.lines") == 9
        assert rebuilt.counter("mem.nvm.lat.count") == 3

    def test_prometheus_renders_cells_like_calls(self):
        from repro.obs.metrics import stats_to_prometheus

        by_cell, by_call = Stats(), Stats()
        scoped = by_cell.scoped("tc.0")
        scoped.cells("probe.hit").probe_hit += 7
        by_call.inc("tc.0.probe.hit", 7)
        tally = scoped.tally("read.latency", histogram=True)
        for value in (120, 130, 260, 3):
            tally[value] += 1
            by_call.hist("tc.0.read.latency", value)
        assert stats_to_prometheus(by_cell) == stats_to_prometheus(by_call)
