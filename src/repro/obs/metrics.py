"""Dependency-free Prometheus text exposition for :class:`Stats`.

:func:`stats_to_prometheus` renders a registry as exposition-format
0.0.4 text — the ``/metrics`` payload served by `repro.serve` nodes
and the cluster router.  Counters become ``<ns>_<name>_total`` counter
families; histograms (power-of-two buckets, see
:class:`~repro.common.stats.Histogram`) become ``_bucket{le="2^i"}``
cumulative series plus ``_sum``/``_count`` drawn from the paired
sample summary; caller-supplied gauges cover point-in-time readings
(queue depth, in-flight, ready replicas) that live outside the
monotone registry.

:func:`parse_prometheus` is the strict inverse used by the round-trip
tests and the ``metrics-smoke`` CI job: it accepts exactly the subset
of the format this module emits any scraper must parse — and raises
``ValueError`` with a line number on anything malformed, so it doubles
as an exposition-syntax validator.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..common.stats import Stats

#: content type a conforming scraper expects for this payload
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Map a dotted Stats name onto a legal Prometheus metric name:
    invalid characters become ``_`` and a leading digit is guarded."""
    cleaned = _INVALID_CHARS.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _render_labels(labels: Mapping[str, str],
                   extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(name, str(labels[name])) for name in sorted(labels)]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join('%s="%s"' % (name, _escape_label_value(value))
                    for name, value in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def stats_to_prometheus(stats: Stats, namespace: str = "repro",
                        labels: Optional[Mapping[str, str]] = None,
                        gauges: Optional[Mapping[str, float]] = None) -> str:
    """Render a registry as Prometheus text exposition format 0.0.4.

    Args:
        stats: source registry; its counters become counter families
            and its histograms become histogram families.
        namespace: prefix for every family name.
        labels: shared labels stamped on every sample (e.g.
            ``{"node": "node0"}``).
        gauges: name → current value, rendered as gauge families
            (sanitized and namespaced like everything else).

    Raises:
        ValueError: two names render as the same sample name (e.g.
            ``a.b`` and ``a_b``), which no scraper could tell apart.
    """
    labels = labels or {}
    lines: List[str] = []
    owners: Dict[str, str] = {}

    def family(name: str, kind: str, help_text: str, source: str) -> str:
        samples = [name]
        if kind == "histogram":
            samples += [name + suffix
                        for suffix in ("_bucket", "_sum", "_count")]
        for sample in samples:
            if sample in owners:
                raise ValueError("names %r and %r both render as %s"
                                 % (owners[sample], source, sample))
        owners.update(dict.fromkeys(samples, source))
        lines.append("# HELP %s %s" % (name, help_text))
        lines.append("# TYPE %s %s" % (name, kind))
        return name

    hist_names = set(stats.histograms())
    for name, value in stats.counters().items():
        if name in hist_names:
            # the .count shadow of a histogram is exported by the
            # histogram family itself
            continue
        metric = family("%s_%s_total" % (namespace,
                                         sanitize_metric_name(name)),
                        "counter", "Stats counter %s" % name, name)
        lines.append("%s%s %s" % (metric, _render_labels(labels),
                                  _format_value(value)))

    for name, gauge_value in sorted((gauges or {}).items()):
        metric = family("%s_%s" % (namespace, sanitize_metric_name(name)),
                        "gauge", "Gauge %s" % name, name)
        lines.append("%s%s %s" % (metric, _render_labels(labels),
                                  _format_value(gauge_value)))

    for name, histogram in stats.histograms().items():
        metric = family("%s_%s" % (namespace, sanitize_metric_name(name)),
                        "histogram", "Stats histogram %s" % name, name)
        buckets = histogram.buckets()
        cumulative = 0
        for bucket in sorted(buckets):
            cumulative += buckets[bucket]
            upper = float(2 ** (bucket + 1))
            lines.append("%s_bucket%s %s" % (
                metric, _render_labels(labels, ("le", _format_value(upper))),
                _format_value(cumulative)))
        lines.append("%s_bucket%s %s" % (
            metric, _render_labels(labels, ("le", "+Inf")),
            _format_value(histogram.count)))
        summary = stats.summary(name)
        lines.append("%s_sum%s %s" % (metric, _render_labels(labels),
                                      _format_value(summary.total)))
        lines.append("%s_count%s %s" % (metric, _render_labels(labels),
                                        _format_value(histogram.count)))

    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------
# strict parser / validator

_SAMPLE_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?\s*\Z")

_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)='
    r'"(?P<value>(?:[^"\\]|\\.)*)"\s*(?P<sep>,|\Z)')

_KNOWN_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _unescape_label_value(value: str, lineno: int) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\":
            if i + 1 >= len(value):
                raise ValueError("line %d: dangling escape in label "
                                 "value" % lineno)
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ("\\", '"'):
                out.append(nxt)
            else:
                raise ValueError("line %d: bad escape '\\%s' in label "
                                 "value" % (lineno, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_value(text: str, lineno: int) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ValueError("line %d: unparsable sample value %r"
                         % (lineno, text))


def _base_family(name: str, families: Dict[str, Dict[str, Any]]) -> str:
    """Resolve a sample name to its declared family: histogram/summary
    samples arrive as ``<family>_bucket``/``_sum``/``_count``."""
    if name in families:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            base = name[: -len(suffix)]
            if base in families \
                    and families[base]["type"] in ("histogram", "summary"):
                return base
    return name


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse (and strictly validate) exposition-format 0.0.4 text.

    Returns family name → ``{"type", "help", "samples"}`` where
    ``samples`` is a list of ``(metric_name, labels_dict, value)``.
    Raises ``ValueError`` (with the offending line number) on syntax
    errors, samples without a preceding ``# TYPE``, duplicate or late
    TYPE lines, non-monotonic histogram buckets, or a missing/`+Inf`
    bucket that disagrees with ``_count``.
    """
    families: Dict[str, Dict[str, Any]] = {}
    sampled: set = set()

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError("line %d: malformed comment line %r"
                                 % (lineno, line))
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ValueError("line %d: invalid metric name %r"
                                 % (lineno, name))
            entry = families.setdefault(
                name, {"type": None, "help": None, "samples": []})
            if parts[1] == "HELP":
                if entry["help"] is not None:
                    raise ValueError("line %d: duplicate HELP for %s"
                                     % (lineno, name))
                entry["help"] = parts[3] if len(parts) > 3 else ""
            else:
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in _KNOWN_TYPES:
                    raise ValueError("line %d: unknown TYPE %r for %s"
                                     % (lineno, kind, name))
                if entry["type"] is not None:
                    raise ValueError("line %d: duplicate TYPE for %s"
                                     % (lineno, name))
                if name in sampled:
                    raise ValueError("line %d: TYPE for %s after its "
                                     "samples" % (lineno, name))
                entry["type"] = kind
            continue

        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError("line %d: unparsable sample line %r"
                             % (lineno, line))
        name = match.group("name")
        labels: Dict[str, str] = {}
        label_body = match.group("labels")
        if label_body is not None:
            pos = 0
            while pos < len(label_body):
                pair = _LABEL_PAIR_RE.match(label_body, pos)
                if not pair:
                    raise ValueError("line %d: malformed labels %r"
                                     % (lineno, label_body))
                labels[pair.group("name")] = _unescape_label_value(
                    pair.group("value"), lineno)
                pos = pair.end()
        value = _parse_value(match.group("value"), lineno)

        base = _base_family(name, families)
        if base not in families or families[base]["type"] is None:
            raise ValueError("line %d: sample %s has no preceding "
                             "# TYPE declaration" % (lineno, name))
        entry = families[base]
        if entry["type"] == "counter" and not name.endswith("_total"):
            raise ValueError("line %d: counter sample %s must end in "
                             "_total" % (lineno, name))
        sampled.add(base)
        entry["samples"].append((name, labels, value))

    for name, entry in families.items():
        if entry["type"] is None:
            raise ValueError("family %s has HELP but no TYPE" % name)
        if entry["type"] == "histogram":
            _check_histogram(name, entry["samples"])
    return families


def _check_histogram(name: str,
                     samples: List[Tuple[str, Dict[str, str], float]]) -> None:
    """Cumulative-bucket sanity per label set (ignoring ``le``)."""
    series: Dict[Tuple[Tuple[str, str], ...], Dict[str, Any]] = {}
    for metric, labels, value in samples:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        slot = series.setdefault(key, {"buckets": [], "count": None})
        if metric == name + "_bucket":
            if "le" not in labels:
                raise ValueError("histogram %s has a bucket without an "
                                 "le label" % name)
            le = (math.inf if labels["le"] == "+Inf"
                  else float(labels["le"]))
            slot["buckets"].append((le, value))
        elif metric == name + "_count":
            slot["count"] = value
    for key, slot in series.items():
        buckets = slot["buckets"]
        if not buckets:
            raise ValueError("histogram %s%r has no buckets" % (name, key))
        previous = -math.inf
        cumulative = -1.0
        for le, value in buckets:
            if le <= previous:
                raise ValueError("histogram %s has non-increasing le "
                                 "bounds" % name)
            if value < cumulative:
                raise ValueError("histogram %s has non-monotonic "
                                 "cumulative buckets" % name)
            previous, cumulative = le, value
        if buckets[-1][0] != math.inf:
            raise ValueError("histogram %s is missing its +Inf bucket"
                             % name)
        if slot["count"] is not None \
                and buckets[-1][1] != slot["count"]:
            raise ValueError("histogram %s +Inf bucket %s != _count %s"
                             % (name, buckets[-1][1], slot["count"]))
