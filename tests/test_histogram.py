"""Tests for the power-of-two histogram and its stats wiring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import Histogram, Stats


class TestHistogram:
    def test_empty_percentile_zero(self):
        assert Histogram().percentile(0.99) == 0.0

    def test_single_value(self):
        histogram = Histogram()
        histogram.add(100)
        # 100 lands in bucket [64, 128): p50 upper bound is 128
        assert histogram.percentile(0.5) == 128.0

    def test_small_values_land_in_bucket_zero(self):
        histogram = Histogram()
        histogram.add(0)
        histogram.add(0.5)
        histogram.add(1)
        assert histogram.buckets()[0] == 3

    def test_percentile_orders(self):
        histogram = Histogram()
        for value in [1] * 90 + [1000] * 10:
            histogram.add(value)
        assert histogram.percentile(0.5) <= histogram.percentile(0.99)
        assert histogram.percentile(0.99) >= 1000

    def test_invalid_fraction_rejected(self):
        histogram = Histogram()
        histogram.add(1)
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, 5])
    def test_invalid_fraction_rejected_when_empty(self, fraction):
        # the fraction is checked before emptiness: an empty histogram
        # used to answer 0.0 where a non-empty one raised
        with pytest.raises(ValueError):
            Histogram().percentile(fraction)
        with pytest.raises(ValueError):
            Stats().percentile("never.recorded", fraction)

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_percentile_bounds_true_quantile(self, values):
        histogram = Histogram()
        for value in values:
            histogram.add(value)
        ordered = sorted(values)
        for fraction in (0.5, 0.9, 0.99):
            index = min(len(ordered) - 1,
                        max(0, int(fraction * len(ordered)) - 1))
            true_quantile = ordered[index]
            estimate = histogram.percentile(fraction)
            # bucketed estimate is an upper bound within one bucket (2x)
            assert estimate >= true_quantile * 0.999
            assert histogram.count == len(values)


class TestStatsHistogram:
    def test_hist_records_summary_too(self):
        stats = Stats()
        stats.hist("lat", 100)
        stats.hist("lat", 300)
        assert stats.summary("lat").count == 2
        assert stats.percentile("lat", 0.99) >= 300

    def test_scoped_hist(self):
        stats = Stats()
        scoped = stats.scoped("mem")
        scoped.hist("lat", 64)
        assert stats.percentile("mem.lat", 0.5) == 128.0
        assert scoped.percentile("lat", 0.5) == 128.0

    def test_controller_latency_percentiles_populated(self):
        from repro.sim.system import System
        from repro.sim.runner import make_traces
        system = System.build("txcache", num_cores=1)
        system.load_traces(make_traces("sps", 1, 20, seed=2,
                                       array_elements=256))
        system.run()
        p99 = system.stats.percentile("mem.nvm.read.latency", 0.99)
        p50 = system.stats.percentile("mem.nvm.read.latency", 0.5)
        assert p99 >= p50 > 0
