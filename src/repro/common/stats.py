"""Statistics registry shared by all simulator components.

Components record two kinds of measurements:

* **counters** — monotonically increasing event counts
  (``stats.inc("llc.miss")``), and
* **samples** — per-event values whose distribution matters
  (``stats.sample("load.latency", 130)``), tracked as
  sum/count/min/max so means are cheap and memory use is O(1).

Names are dotted strings; :meth:`Stats.scoped` returns a light view that
prefixes every name, so a component can write ``self.stats.inc("hit")``
and the registry stores ``l1.0.hit``.

Statistics recorded on every simulated access do not go through a
registry call at all.  The component takes its **cells** from the
registry once, at construction, and records into them in place:

* :meth:`Stats.cells` returns a record of counters, one int attribute
  per name with dots turned into underscores
  (``counts.probe_hit += 1`` adds to ``probe.hit``);
* :meth:`Stats.tally` returns a :class:`Tally`, a whole-number value
  distribution the component counts into (``latency[v] += 1``), which
  stands for a :meth:`Stats.sample` (or :meth:`Stats.hist`) of each
  value;
* :meth:`Stats.counter_map` returns a :class:`Tally` keyed by name
  suffix, for a family of counters picked at run time
  (``stalls[kind] += n`` adds to ``stall.<kind>``).

The registry holds only the cells, never the component: a reference
from the registry, built first, to every component would carry each
discarded system's objects through the garbage collector's young
passes into its costlier old ones.

Every read of the registry first folds the cells into it and empties
them, so a cell reads exactly like the registry calls it replaces: a
cell that was never recorded into stays absent.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Tuple

logger = logging.getLogger("repro.stats")



@functools.lru_cache(maxsize=None)
def _counts_type(names: Tuple[str, ...]) -> type:
    """The record class of :meth:`Stats.cells`: one slot per counter,
    each set to 0 by a generated ``__init__`` (one plain store per
    slot, as a hand-written one would do)."""
    attrs = tuple(name.replace(".", "_") for name in names)
    for attr in attrs:
        if not attr.isidentifier():
            raise ValueError(f"counter name {attr!r} is not a cell name")
    body = "".join(f"    self.{attr} = 0\n" for attr in attrs) or "    pass\n"
    namespace: Dict[str, object] = {}
    exec(f"def __init__(self):\n{body}", namespace)
    return type("Counts", (), {"__slots__": attrs,
                               "__init__": namespace["__init__"]})


@dataclass
class SampleSummary:
    """Streaming summary of a sampled value."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def add(self, value: float, times: int = 1) -> None:
        """Record ``times`` observations of ``value``."""
        self.count += times
        self.total += value * times
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "SampleSummary") -> None:
        """Fold another summary's observations into this one."""
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum


class Histogram:
    """Power-of-two-bucketed histogram for latency distributions.

    Bucket ``i`` counts values in ``[2**i, 2**(i+1))`` (bucket 0 also
    absorbs values < 1).  O(1) memory per distinct magnitude, good
    enough for percentile estimates on cycle counts.
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0

    @staticmethod
    def _bucket(value: float) -> int:
        if value < 1:
            return 0
        return int(value).bit_length() - 1

    def add(self, value: float, times: int = 1) -> None:
        """Record ``times`` observations of ``value``."""
        bucket = self._bucket(value)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + times
        self.count += times

    def percentile(self, fraction: float) -> float:
        """Upper bound of the bucket containing the given percentile
        (e.g. ``percentile(0.99)`` ≈ p99).  0.0 when empty; a
        ``fraction`` outside (0, 1] raises ``ValueError`` either way."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if not self.count:
            return 0.0
        target = fraction * self.count
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen >= target:
                return float(2 ** (bucket + 1))
        return float(2 ** (max(self._buckets) + 1))

    def buckets(self) -> Dict[int, int]:
        """bucket index → count (bucket i spans [2^i, 2^(i+1)))."""
        return dict(self._buckets)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        for bucket, count in other._buckets.items():
            self._buckets[bucket] = self._buckets.get(bucket, 0) + count
        self.count += other.count


class Tally(dict):
    """Occurrences of each whole-number value (a latency in cycles),
    recorded as ``tally[value] += 1`` — a dict update, with no Python
    call once the value has been seen.  The registry folds it into the
    sample summary (and histogram) of its name and clears it whenever
    it is read.  Folding multiplies a value by its occurrences, which
    is exact for whole numbers only; keep fractional values (host
    seconds) on :meth:`Stats.sample`.  A :meth:`Stats.counter_map` is a
    tally of amounts by name suffix instead."""

    __slots__ = ()

    def __missing__(self, value: float) -> int:
        return 0


class Stats:
    """Flat registry of counters, sample summaries, and histograms."""

    #: warning events kept per name (the counter is always exact; the
    #: retained messages are a bounded diagnostic sample)
    MAX_EVENTS_PER_NAME = 8

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._samples: Dict[str, SampleSummary] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._events: Dict[str, List[str]] = {}
        self._suppressed: Dict[str, int] = {}
        self._suppressed_reported: Dict[str, int] = {}
        # cells handed out: (prefix, names, record, derived) of every
        # counter record, (name, tally, feeds a histogram) of every
        # tally, and (name, tally) of every counter map
        self._records: List[Tuple[str, Tuple[str, ...], object,
                                  Tuple[Tuple[str, str, str], ...]]] = []
        self._tallies: List[Tuple[str, Tally, bool]] = []
        self._counter_maps: List[Tuple[str, Tally]] = []

    # -- counters ----------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at 0)."""
        # hottest single call in the simulator: in-place add on the
        # existing key beats .get() (no bound-method call); the miss
        # branch only runs once per counter name
        try:
            self._counters[name] += amount
        except KeyError:
            self._counters[name] = amount

    # -- cells ---------------------------------------------------------
    def cells(self, *names: str, prefix: str = "",
              derived: Tuple[Tuple[str, str, str], ...] = ()) -> object:
        """A record of counter cells, one int attribute per name (dots
        become underscores), each starting at 0.

        ``derived`` holds ``(name, minuend, subtrahend)`` triples of
        counters that are not recorded at all: counter ``name`` is
        folded in as the difference of the record's cells ``minuend``
        and ``subtrahend``, given as attribute names (a cache level's
        ``("hit", "access", "miss")``), so the hot path records one
        cell fewer."""
        record = _counts_type(names)()
        self._records.append((prefix, names, record, derived))
        return record

    def tally(self, name: str, histogram: bool = False) -> Tally:
        """A tally read as :meth:`sample` calls of each value, or as
        :meth:`hist` calls when ``histogram`` is set."""
        tally = Tally()
        self._tallies.append((name, tally, histogram))
        return tally

    def counter_map(self, name: str) -> Tally:
        """A tally of amounts by name suffix: ``key`` adds to counter
        ``name.key``."""
        amounts = Tally()
        self._counter_maps.append((name, amounts))
        return amounts

    def _sync(self) -> None:
        """Fold every cell into the registry and reset it."""
        for prefix, names, record, derived in self._records:
            # derived counters first: they read cells the loop below
            # resets
            for name, minuend, subtrahend in derived:
                value = getattr(record, minuend) - getattr(record, subtrahend)
                if value:
                    self.inc(prefix + name, value)
            for name, attr in zip(names, record.__slots__):
                value = getattr(record, attr)
                if value:
                    self.inc(prefix + name, value)
                    setattr(record, attr, 0)
        for name, amounts in self._counter_maps:
            for key, value in amounts.items():
                if value:
                    self.inc(f"{name}.{key}", value)
            amounts.clear()
        for name, tally, histogram in self._tallies:
            self._fold(name, tally, histogram)

    def _fold(self, name: str, tally: Tally, histogram: bool) -> None:
        if not tally:
            return
        summary = self._samples.setdefault(name, SampleSummary())
        buckets = (self._histograms.setdefault(name, Histogram())
                   if histogram else None)
        for value, times in tally.items():
            summary.add(value, times)
            if buckets is not None:
                buckets.add(value, times)
        tally.clear()

    # -- warning events ----------------------------------------------
    def warn(self, name: str, message: str) -> None:
        """Record a warning-level event: increments counter ``name``,
        logs the first few occurrences at WARNING, and keeps a bounded
        sample of messages for post-mortem inspection."""
        self.inc(name)
        kept = self._events.setdefault(name, [])
        if len(kept) < self.MAX_EVENTS_PER_NAME:
            kept.append(message)
            logger.warning("%s: %s", name, message)
        else:
            self._suppressed[name] = self._suppressed.get(name, 0) + 1

    def events(self, name: str) -> List[str]:
        """Retained warning messages for event ``name`` (bounded)."""
        return list(self._events.get(name, []))

    def suppressed(self, name: str) -> int:
        """Occurrences of warning ``name`` beyond the retained sample
        (counted exactly, logged only as a final summary)."""
        return self._suppressed.get(name, 0)

    def flush_suppressed(self) -> None:
        """Emit one "further N occurrences suppressed" WARNING per
        event name that overflowed its retained sample.  Idempotent:
        re-flushing reports only occurrences suppressed since the last
        flush.  Called from :meth:`dump` so every end-of-run report
        closes the loop on what the per-name cap hid."""
        for name in sorted(self._suppressed):
            count = self._suppressed[name]
            reported = self._suppressed_reported.get(name, 0)
            if count > reported:
                logger.warning(
                    "%s: further %d occurrences suppressed after the "
                    "first %d", name, count - reported,
                    self.MAX_EVENTS_PER_NAME)
                self._suppressed_reported[name] = count

    def counter(self, name: str) -> float:
        """Read counter ``name`` (0 if never incremented)."""
        self._sync()
        return self._counters.get(name, 0)

    # -- samples -----------------------------------------------------
    def sample(self, name: str, value: float) -> None:
        """Record one observation of the sampled value ``name``."""
        summary = self._samples.get(name)
        if summary is None:
            summary = self._samples[name] = SampleSummary()
        summary.add(value)

    def summary(self, name: str) -> SampleSummary:
        """Summary for sample ``name`` (empty summary if never seen)."""
        self._sync()
        return self._samples.get(name, SampleSummary())

    def mean(self, name: str) -> float:
        """Mean of sample ``name`` (0.0 if never seen)."""
        return self.summary(name).mean

    # -- histograms ----------------------------------------------------
    def hist(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name`` (and its
        streaming summary)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.add(value)
        self.sample(name, value)

    def histogram(self, name: str) -> Histogram:
        self._sync()
        return self._histograms.get(name, Histogram())

    def histograms(self) -> Dict[str, Histogram]:
        """All live histograms, key-sorted (for exporters such as
        :func:`repro.obs.metrics.stats_to_prometheus`)."""
        self._sync()
        return {name: self._histograms[name]
                for name in sorted(self._histograms)}

    def percentile(self, name: str, fraction: float) -> float:
        return self.histogram(name).percentile(fraction)

    # -- wall-clock timing ---------------------------------------------
    @contextlib.contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Measure the wall-clock seconds of a ``with`` block into
        histogram ``name`` (sum/count/min/max via the paired sample
        summary).  Used for *host* measurements — per-experiment-point
        wall time in the parallel engine — never for simulated time."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.hist(name, time.perf_counter() - start)

    # -- bulk access ---------------------------------------------------
    def counters(self, prefix: str = "") -> Dict[str, float]:
        """All counters whose name starts with ``prefix``, sorted by
        name — reports and cached payloads must not depend on the
        insertion order of whichever component incremented first."""
        self._sync()
        return {
            name: self._counters[name]
            for name in sorted(self._counters)
            if name.startswith(prefix)
        }

    def as_dict(self) -> Dict[str, float]:
        """Flatten everything into one key-sorted dict (samples expand
        to ``name.mean`` / ``name.count`` / ``name.max`` entries).
        Sorted so serialized payloads (result cache, golden snapshots)
        are byte-stable across runs with different component init or
        event interleaving order."""
        self._sync()
        out: Dict[str, float] = dict(self._counters)
        for name, summary in self._samples.items():
            out[f"{name}.mean"] = summary.mean
            out[f"{name}.count"] = summary.count
            if summary.count:
                out[f"{name}.min"] = summary.minimum
                out[f"{name}.max"] = summary.maximum
        return {name: out[name] for name in sorted(out)}

    def dump(self) -> Dict[str, float]:
        """End-of-run report: flush the suppressed-warning summaries
        (satisfying "every warning is eventually accounted for"), then
        return the full key-sorted flat dict."""
        self.flush_suppressed()
        return self.as_dict()

    #: suffixes :meth:`as_dict` derives from sample summaries that do
    #: NOT add across registries (a mean of means is not a mean; min
    #: and max would need the raw summaries).  ``.count`` entries *are*
    #: additive and survive :meth:`from_flat`.
    NON_ADDITIVE_SUFFIXES = (".mean", ".min", ".max")

    @classmethod
    def from_flat(cls, flat: Mapping[str, object]) -> "Stats":
        """Rebuild a counters-only registry from a :meth:`dump` /
        :meth:`as_dict` flat dict that crossed a process or wire
        boundary (e.g. one node's ``/stats`` JSON), so the cluster
        router can aggregate fleets with :meth:`merge`.  Sample-derived
        ``.mean``/``.min``/``.max`` entries are dropped — they are not
        additive — and non-numeric values are ignored."""
        stats = cls()
        for name, value in flat.items():
            if not isinstance(name, str) \
                    or name.endswith(cls.NON_ADDITIVE_SUFFIXES):
                continue
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                continue
            stats.inc(name, value)
        return stats

    # -- aggregation ---------------------------------------------------
    def merge(self, other: "Stats", prefix: str = "") -> None:
        """Fold another registry into this one.

        Counters add, sample summaries and histograms combine exactly
        (count/total/min/max and per-bucket counts), retained warning
        messages append up to :data:`MAX_EVENTS_PER_NAME` (overflow is
        counted as suppressed, never lost), and suppression counts add.

        ``prefix`` is prepended verbatim to every incoming name
        (callers include the trailing dot, e.g. ``"worker3."``), so
        per-request or per-worker registries can aggregate into a
        long-lived server-wide registry without colliding with its own
        keys.  Merging is additive and repeatable: merging two
        registries then reading a counter equals the sum of reading
        each."""
        other._sync()
        rename = (lambda name: prefix + name) if prefix else (lambda n: n)
        for name, value in other._counters.items():
            name = rename(name)
            self._counters[name] = self._counters.get(name, 0) + value
        for name, summary in other._samples.items():
            name = rename(name)
            mine = self._samples.get(name)
            if mine is None:
                mine = self._samples[name] = SampleSummary()
            mine.merge(summary)
        for name, histogram in other._histograms.items():
            name = rename(name)
            mine = self._histograms.get(name)
            if mine is None:
                mine = self._histograms[name] = Histogram()
            mine.merge(histogram)
        for name, messages in other._events.items():
            name = rename(name)
            kept = self._events.setdefault(name, [])
            for message in messages:
                if len(kept) < self.MAX_EVENTS_PER_NAME:
                    kept.append(message)
                else:
                    self._suppressed[name] = \
                        self._suppressed.get(name, 0) + 1
        for name, count in other._suppressed.items():
            name = rename(name)
            self._suppressed[name] = self._suppressed.get(name, 0) + count

    def scoped(self, prefix: str) -> "ScopedStats":
        """A view that prefixes every recorded name with ``prefix.``."""
        return ScopedStats(self, prefix)


class ScopedStats:
    """Prefixing facade over a :class:`Stats` registry.

    Every call through the view formats the fully-qualified name, so
    hot components do not record through it: they take their cells
    once, at construction, and record into those in place (see the
    module docstring).
    """

    __slots__ = ("_parent", "_prefix")

    def __init__(self, parent: Stats, prefix: str) -> None:
        self._parent = parent
        self._prefix = prefix.rstrip(".")

    @property
    def prefix(self) -> str:
        return self._prefix

    def cells(self, *names: str,
              derived: Tuple[Tuple[str, str, str], ...] = ()) -> object:
        return self._parent.cells(*names, prefix=self._prefix + ".",
                                  derived=derived)

    def tally(self, name: str, histogram: bool = False) -> Tally:
        return self._parent.tally(self._name(name), histogram)

    def counter_map(self, name: str) -> Tally:
        return self._parent.counter_map(self._name(name))

    def _name(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def inc(self, name: str, amount: float = 1) -> None:
        self._parent.inc(self._name(name), amount)

    def warn(self, name: str, message: str) -> None:
        self._parent.warn(self._name(name), message)

    def events(self, name: str):
        return self._parent.events(self._name(name))

    def suppressed(self, name: str) -> int:
        return self._parent.suppressed(self._name(name))

    def counter(self, name: str) -> float:
        return self._parent.counter(self._name(name))

    def sample(self, name: str, value: float) -> None:
        self._parent.sample(self._name(name), value)

    def hist(self, name: str, value: float) -> None:
        self._parent.hist(self._name(name), value)

    def timer(self, name: str):
        return self._parent.timer(self._name(name))

    def histogram(self, name: str):
        return self._parent.histogram(self._name(name))

    def percentile(self, name: str, fraction: float) -> float:
        return self._parent.percentile(self._name(name), fraction)

    def mean(self, name: str) -> float:
        return self._parent.mean(self._name(name))

    def summary(self, name: str) -> SampleSummary:
        return self._parent.summary(self._name(name))

    def scoped(self, prefix: str) -> "ScopedStats":
        return ScopedStats(self._parent, self._name(prefix))
