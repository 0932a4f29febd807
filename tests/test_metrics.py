"""Prometheus exposition renderer, strict parser, and merge properties."""

import math

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro.common.stats import Histogram, Stats
from repro.obs import (PROMETHEUS_CONTENT_TYPE, parse_prometheus,
                       sanitize_metric_name, stats_to_prometheus)

import pytest

metric_names = st.from_regex(r"[a-z][a-z0-9._]{0,20}", fullmatch=True)
counter_values = st.integers(min_value=0, max_value=10**9)
observations = st.floats(min_value=0.0, max_value=1e12,
                         allow_nan=False, allow_infinity=False)


def registries(draw):
    stats = Stats()
    for name, value in draw(st.dictionaries(
            metric_names, counter_values, max_size=6)).items():
        stats.inc(name, value)
    for name, values in draw(st.dictionaries(
            metric_names, st.lists(observations, min_size=1, max_size=8),
            max_size=4)).items():
        for value in values:
            stats.hist(name, value)
    return stats


registry_strategy = st.composite(registries)()


def render(stats, **kwargs):
    """Render a drawn registry, rejecting the draw when two of its
    names render as one sample name (``TestRenderer`` pins that the
    renderer refuses those)."""
    try:
        return stats_to_prometheus(stats, **kwargs)
    except ValueError as exc:
        if "both render as" not in str(exc):
            raise
        reject()


class TestSanitize:
    def test_dots_and_dashes_become_underscores(self):
        assert sanitize_metric_name("serve.request.ms") == \
            "serve_request_ms"
        assert sanitize_metric_name("a-b c") == "a_b_c"

    def test_leading_digit_guarded(self):
        assert sanitize_metric_name("5xx") == "_5xx"

    @given(st.text(min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_always_legal(self, name):
        import re
        assert re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z",
                        sanitize_metric_name(name))


class TestRenderer:
    def test_counter_family_shape(self):
        stats = Stats()
        stats.inc("serve.admitted", 3)
        text = stats_to_prometheus(stats, labels={"node": "n0"})
        assert "# TYPE repro_serve_admitted_total counter" in text
        assert 'repro_serve_admitted_total{node="n0"} 3' in text

    def test_histogram_family_shape(self):
        stats = Stats()
        for value in (0.5, 3, 3, 9):
            stats.hist("lat.ms", value)
        families = parse_prometheus(stats_to_prometheus(stats))
        entry = families["repro_lat_ms"]
        assert entry["type"] == "histogram"
        buckets = {labels["le"]: value
                   for name, labels, value in entry["samples"]
                   if name == "repro_lat_ms_bucket"}
        # 0.5 → bucket 0 (le=2), 3,3 → bucket 1 (le=4), 9 → bucket 3
        assert buckets["2"] == 1
        assert buckets["4"] == 3
        assert buckets["16"] == 4
        assert buckets["+Inf"] == 4
        by_name = {name: value
                   for name, _labels, value in entry["samples"]}
        assert by_name["repro_lat_ms_count"] == 4
        assert by_name["repro_lat_ms_sum"] == pytest.approx(15.5)

    def test_histogram_shadow_counter_not_doubled(self):
        stats = Stats()
        stats.hist("lat", 4)
        stats.inc("lat", 1)          # same name used as a counter too
        text = stats_to_prometheus(stats)
        assert "repro_lat_total" not in text
        assert "# TYPE repro_lat histogram" in text

    def test_gauges_and_empty_registry(self):
        stats = Stats()
        assert stats_to_prometheus(stats) == ""
        text = stats_to_prometheus(stats, gauges={"queue_depth": 7})
        assert "# TYPE repro_queue_depth gauge" in text
        assert "repro_queue_depth 7" in text

    def test_label_values_escaped(self):
        stats = Stats()
        stats.inc("x")
        text = stats_to_prometheus(
            stats, labels={"path": 'a"b\\c\nd'})
        families = parse_prometheus(text)
        (_name, labels, _value) = families["repro_x_total"]["samples"][0]
        assert labels["path"] == 'a"b\\c\nd'

    def test_names_rendering_alike_are_refused(self):
        """Duplicate families would be unparsable; the renderer names
        both clashing sources instead of emitting them."""
        for counters, hists, gauges in (
                (["a0.", "a0_"], [], {}),           # same counter family
                ([], ["lat.ms", "lat_ms"], {}),     # same histogram family
                (["x"], ["x.total"], {}),           # counter vs histogram
                ([], ["lat"], {"lat_count": 1})):   # gauge vs hist sample
            stats = Stats()
            for name in counters:
                stats.inc(name)
            for name in hists:
                stats.hist(name, 1.0)
            with pytest.raises(ValueError, match="both render as"):
                stats_to_prometheus(stats, gauges=gauges)

    def test_content_type_constant(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


class TestStrictParser:
    def test_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no preceding"):
            parse_prometheus("foo_total 1\n")

    def test_rejects_malformed_comment(self):
        with pytest.raises(ValueError, match="malformed comment"):
            parse_prometheus("# NOPE foo counter\n")

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown TYPE"):
            parse_prometheus("# TYPE foo enum\n")

    def test_rejects_duplicate_type(self):
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_prometheus("# TYPE foo counter\n"
                             "# TYPE foo counter\n")

    def test_rejects_counter_sample_without_total_suffix(self):
        with pytest.raises(ValueError, match="must end in _total"):
            parse_prometheus("# TYPE foo counter\nfoo 1\n")

    def test_rejects_bad_value_and_bad_labels(self):
        with pytest.raises(ValueError, match="unparsable sample value"):
            parse_prometheus("# TYPE g gauge\ng over9000\n")
        with pytest.raises(ValueError, match="malformed labels"):
            parse_prometheus('# TYPE g gauge\ng{oops} 1\n')
        with pytest.raises(ValueError, match="bad escape"):
            parse_prometheus('# TYPE g gauge\ng{a="\\q"} 1\n')

    def test_rejects_non_monotonic_histogram(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="2"} 5\n'
                'h_bucket{le="4"} 3\n'
                'h_bucket{le="+Inf"} 5\n')
        with pytest.raises(ValueError, match="non-monotonic"):
            parse_prometheus(text)

    def test_rejects_missing_inf_bucket(self):
        text = '# TYPE h histogram\nh_bucket{le="2"} 5\n'
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_prometheus(text)

    def test_rejects_inf_count_mismatch(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="+Inf"} 5\n'
                "h_count 6\n")
        with pytest.raises(ValueError, match="!= _count"):
            parse_prometheus(text)

    def test_accepts_timestamps_and_blank_lines(self):
        families = parse_prometheus(
            "\n# HELP g help text here\n# TYPE g gauge\n"
            "g 1.5 1700000000\n\n")
        assert families["g"]["samples"] == [("g", {}, 1.5)]
        assert families["g"]["help"] == "help text here"


class TestRoundTrip:
    @given(registry_strategy)
    @settings(max_examples=60, deadline=None)
    def test_rendered_text_parses_back_exactly(self, stats):
        text = render(stats, labels={"node": "n0"})
        if not text:
            return
        families = parse_prometheus(text)
        hist_names = set(stats.histograms())
        for name, value in stats.counters().items():
            if name in hist_names:
                continue
            family = "repro_%s_total" % sanitize_metric_name(name)
            samples = families[family]["samples"]
            assert samples == [(family, {"node": "n0"}, value)]
        for name, histogram in stats.histograms().items():
            family = "repro_%s" % sanitize_metric_name(name)
            entry = families[family]
            assert entry["type"] == "histogram"
            by_name = {}
            for sample_name, _labels, value in entry["samples"]:
                by_name.setdefault(sample_name, []).append(value)
            assert by_name[family + "_count"] == [histogram.count]
            assert by_name[family + "_sum"][0] == pytest.approx(
                stats.summary(name).total)

    @given(registry_strategy)
    @settings(max_examples=40, deadline=None)
    def test_histogram_buckets_reconstruct(self, stats):
        """Per-bucket counts are recoverable from the cumulative
        series: de-accumulating the parsed buckets gives back exactly
        Histogram.buckets()."""
        text = render(stats)
        if not text:
            return
        families = parse_prometheus(text)
        for name, histogram in stats.histograms().items():
            family = "repro_%s" % sanitize_metric_name(name)
            series = [(labels["le"], value)
                      for sample_name, labels, value
                      in families[family]["samples"]
                      if sample_name == family + "_bucket"]
            recovered = {}
            previous = 0
            for le, cumulative in series:
                if le == "+Inf":
                    continue
                bucket = int(math.log2(float(le))) - 1
                recovered[bucket] = int(cumulative - previous)
                previous = cumulative
            assert recovered == histogram.buckets()


class TestMergeProperties:
    @staticmethod
    def _filled(entries):
        stats = Stats()
        for name, values in entries:
            for value in values:
                stats.hist(name, value)
        return stats

    registry_entries = st.lists(
        st.tuples(metric_names,
                  st.lists(observations, min_size=1, max_size=5)),
        max_size=4)

    @given(registry_entries, registry_entries, registry_entries)
    @settings(max_examples=60, deadline=None)
    def test_histogram_merge_is_associative(self, a, b, c):
        left = self._filled(a)
        left_bc = self._filled(b)
        left_bc.merge(self._filled(c))
        left.merge(left_bc)

        right = self._filled(a)
        right.merge(self._filled(b))
        right.merge(self._filled(c))

        names = set(left.histograms()) | set(right.histograms())
        for name in names:
            assert left.histogram(name).buckets() == \
                right.histogram(name).buckets()
            assert left.histogram(name).count == \
                right.histogram(name).count
            assert left.summary(name).count == right.summary(name).count
            assert left.summary(name).total == pytest.approx(
                right.summary(name).total)

    @given(st.dictionaries(metric_names, counter_values,
                           min_size=1, max_size=5),
           st.dictionaries(metric_names, counter_values,
                           min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_prefix_namespacing_is_collision_free(self, mine, theirs):
        """Merging under a prefix never disturbs the target's own keys:
        every pre-existing counter reads exactly as before, and every
        merged counter reads at its prefixed name."""
        stats = Stats()
        for name, value in mine.items():
            stats.inc(name, value)
        other = Stats()
        for name, value in theirs.items():
            other.inc(name, value)
        stats.merge(other, prefix="node0.")
        for name, value in mine.items():
            expected = value + (theirs.get(name[len("node0."):], 0)
                                if name.startswith("node0.") else 0)
            assert stats.counter(name) == expected
        for name, value in theirs.items():
            expected = value + mine.get("node0." + name, 0)
            assert stats.counter("node0." + name) == expected
