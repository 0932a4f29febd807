"""Parallel experiment engine with an on-disk result cache.

Every figure, ablation, sweep, and chaos run in this repo is a grid of
*independent* experiment points — a point is fully described by
``(workload, scheme, machine config, operation count, seed)`` plus the
point kind (plain run, crash sweep, litmus program).
This module fans such grids out over a :class:`ProcessPoolExecutor`
and memoizes finished points on disk, so re-running the figure
pipeline or a CI sweep skips everything already computed.

Determinism contract
--------------------
Parallel output is **bit-identical** to serial output:

* every point regenerates its own traces from the spec (workload
  generators are pure functions of ``(name, core_id, seed, params)``),
  so workers share nothing and ordering between workers cannot matter;
* workers return JSON-serializable payloads
  (:meth:`SimulationResult.to_dict` and friends), merged **by point
  key** in the caller's submission order — completion order never
  touches the output;
* payloads round-trip exactly: Python's JSON encoder writes floats at
  full ``repr`` precision, so a cached/deserialized result compares
  equal, field for field, to a freshly simulated one.

Cache key
---------
``sha256(kind, code version, workload, scheme, config fingerprint,
operations, seed, workload params)`` — the config fingerprint
(:func:`repro.common.config.config_fingerprint`) covers every knob of
the nested config tree, fault rates included, and
:data:`CACHE_SCHEMA_VERSION` is bumped whenever the timing model or
result schema changes, invalidating stale caches wholesale.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import threading
import time
from dataclasses import dataclass
from hashlib import sha256
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.config import MachineConfig, _derived, config_fingerprint
from ..common.stats import Stats
from ..obs.jsonlog import get_logger

#: Bump whenever the timing model or a result schema changes in a way
#: that makes previously cached payloads wrong.  Folded into every
#: cache key together with the package version.  A test pins it
#: together with the sha256 of the golden figures, so a timing change
#: that regenerates them must bump it.
CACHE_SCHEMA_VERSION = 3

WorkloadParams = Tuple[Tuple[str, object], ...]


def _code_version() -> str:
    try:
        from .. import __version__
    except ImportError:  # pragma: no cover - package always has one
        __version__ = "unknown"
    return f"{__version__}+schema{CACHE_SCHEMA_VERSION}"


def point_key(kind: str, spec: Dict[str, object]) -> str:
    """Stable hex digest identifying one experiment point."""
    blob = json.dumps({"kind": kind, "code": _code_version(),
                       "spec": spec}, sort_keys=True)
    return sha256(blob.encode("utf-8")).hexdigest()


def capture_obs(trace_dir, trace_epoch: int):
    """A traced point's observability bundle, or None when tracing is
    off (``trace_dir`` None).  ``trace_dir``/``trace_epoch`` are
    deliberately **excluded** from every point spec: tracing is
    read-only instrumentation, so a traced run and an untraced run
    share one cache key (the engine instead bypasses cache *reads* for
    traced points, so asking for a trace always re-simulates and
    captures it)."""
    if trace_dir is None:
        return None
    from ..obs import Observability

    return Observability(epoch=trace_epoch)


def write_trace(trace_dir, name: str, obs) -> None:
    """Write a captured Chrome trace as
    ``<trace_dir>/<name>.trace.json`` (nothing when ``obs`` is None)."""
    if obs is None:
        return
    root = pathlib.Path(trace_dir)
    root.mkdir(parents=True, exist_ok=True)
    obs.write(root / f"{name}.trace.json")


def make_params(params: Dict[str, object]) -> WorkloadParams:
    """Normalize a workload-parameter dict into the sorted tuple form
    point specs use (hashable, picklable, order-independent)."""
    return tuple(sorted(params.items()))


# ---------------------------------------------------------------------------
# point kinds
# ---------------------------------------------------------------------------
class _Point:
    """The identity every point kind shares: its key is the digest of
    its kind and spec, computed once per point and carried with it when
    it is pickled to a pool worker."""

    @property
    def key(self) -> str:
        return _derived(self, "key",
                        lambda: point_key(self.kind, self.spec()))


def _workload_spec(point, **crash) -> Dict[str, object]:
    """The spec of a workload point kind; the crash kind passes its
    ``fractions``, which sit after the scheme."""
    return {
        "workload": point.workload,
        "scheme": point.scheme,
        **crash,
        "config": config_fingerprint(point.config),
        "operations": point.operations,
        "seed": point.seed,
        "workload_params": [list(pair) for pair in point.workload_params],
    }


@dataclass(frozen=True)
class ExperimentPoint(_Point):
    """One full (workload, scheme, config, seed) simulation."""

    workload: str
    scheme: str                      # SchemeName.value
    config: MachineConfig
    operations: int = 300
    seed: int = 42
    workload_params: WorkloadParams = ()
    #: trace capture (not part of the spec/cache key — see capture_obs)
    trace_dir: Optional[str] = None
    trace_epoch: int = 0

    kind = "experiment"

    def spec(self) -> Dict[str, object]:
        return _workload_spec(self)

    def execute(self) -> Dict[str, object]:
        from .runner import run_experiment

        obs = capture_obs(self.trace_dir, self.trace_epoch)
        result = run_experiment(
            self.workload, self.scheme, config=self.config,
            operations=self.operations, seed=self.seed, obs=obs,
            **dict(self.workload_params))
        write_trace(self.trace_dir, self.key, obs)
        return result.to_dict(include_raw=True)

    @staticmethod
    def deserialize(payload: Dict[str, object]):
        from .runner import SimulationResult

        return SimulationResult.from_dict(payload)


#: crash points of a sweep, as fractions of the uninterrupted run
CRASH_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class CrashPoint(_Point):
    """A crash sweep of one experiment, checked by the atomicity
    oracle: one report per fraction, in fraction order (see
    :func:`repro.sim.crash.crash_at_fractions`)."""

    workload: str
    scheme: str
    config: MachineConfig
    fractions: Tuple[float, ...] = CRASH_FRACTIONS
    operations: int = 50
    seed: int = 42
    workload_params: WorkloadParams = ()
    #: trace capture (not part of the spec/cache key — see capture_obs)
    trace_dir: Optional[str] = None
    trace_epoch: int = 0

    kind = "crash"

    def __post_init__(self) -> None:
        fractions = self.fractions
        if (not isinstance(fractions, (list, tuple)) or not fractions
                or not all(isinstance(f, (int, float))
                           and not isinstance(f, bool) and math.isfinite(f)
                           for f in fractions)):
            raise ValueError("fractions must be a non-empty list of "
                             f"finite numbers, got {fractions!r}")
        # 1 and 1.0 place the same crash, so they share a key
        object.__setattr__(self, "fractions",
                           tuple(float(f) for f in fractions))

    def spec(self) -> Dict[str, object]:
        return _workload_spec(self, fractions=list(self.fractions))

    def execute(self) -> Dict[str, object]:
        from .crash import crash_at_fractions

        reports = crash_at_fractions(
            self.workload, self.scheme, self.config, self.fractions,
            operations=self.operations, seed=self.seed,
            trace_dir=self.trace_dir, trace_epoch=self.trace_epoch,
            trace_stem=self.key, **dict(self.workload_params))
        return {"reports": [report.to_dict() for report in reports]}

    @staticmethod
    def deserialize(payload: Dict[str, object]):
        from .crash import CrashReport

        return [CrashReport.from_dict(report)
                for report in payload["reports"]]


@dataclass(frozen=True)
class LitmusPoint(_Point):
    """One litmus program × scheme, crash-checked at every cycle.

    The program rides in the spec as its canonical JSON string (the
    byte-stable form whose sha256 is the program fingerprint), so the
    cache key covers the full program text, the scheme, the machine
    config (fault rates included — a fault-composed litmus run keys
    differently from a clean one), and the crash stride.
    """

    program: str                     # LitmusProgram.canonical_json()
    scheme: str                      # SchemeName.value
    config: MachineConfig
    check_every: int = 1

    kind = "litmus"

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ValueError(
                f"check_every must be >= 1, got {self.check_every}")

    def spec(self) -> Dict[str, object]:
        return {
            "program": json.loads(self.program),
            "scheme": self.scheme,
            "config": config_fingerprint(self.config),
            "check_every": self.check_every,
        }

    def execute(self) -> Dict[str, object]:
        from ..litmus.program import LitmusProgram
        from ..litmus.runner import run_litmus

        program = LitmusProgram.from_dict(json.loads(self.program))
        result = run_litmus(program, self.scheme, config=self.config,
                            check_every=self.check_every)
        return result.to_dict()

    @staticmethod
    def deserialize(payload: Dict[str, object]):
        from ..litmus.runner import LitmusResult

        return LitmusResult.from_dict(payload)


#: kind string → point dataclass, for callers (the serving layer's wire
#: protocol, notebooks) that build points from external descriptions
POINT_KINDS = {cls.kind: cls for cls in (ExperimentPoint, CrashPoint,
                                         LitmusPoint)}


def execute_point(point,
                  request_id: Optional[str] = None
                  ) -> Tuple[str, Dict[str, object], float]:
    """Run one experiment point: returns ``(key, payload, seconds)``.

    The single point-execution entry shared by the batch engine's
    workers and the serving layer's worker fleet (:mod:`repro.serve`).
    Module-level so it pickles; the point dataclasses carry everything
    a worker needs (config included) and regenerate traces locally.

    ``request_id`` never influences the computation or the payload —
    it only stamps the structured ``point.executed`` log record (when
    JSON logging is enabled; see :mod:`repro.obs.jsonlog`), closing
    the correlation chain from an ``X-Request-Id`` at the front door
    to the engine point that computed the answer."""
    start = time.perf_counter()
    payload = point.execute()
    seconds = time.perf_counter() - start
    log = get_logger()
    if log.enabled:
        log.log("point.executed", request_id=request_id, key=point.key,
                kind=point.kind, seconds=round(seconds, 6))
    return point.key, payload, seconds


# ---------------------------------------------------------------------------
# on-disk cache
# ---------------------------------------------------------------------------
class ResultCache:
    """One JSON file per point key, written atomically.

    Files store ``{"key", "spec", "payload"}`` — the spec rides along
    purely for human debugging (``jq .spec`` answers "what run is
    this?").  A missing, unreadable, or malformed file is a miss, never
    an error: the point simply re-simulates and overwrites it.

    Safe for concurrent writers: entries are written to a
    per-process+thread ``.tmp`` name and published with
    :func:`os.replace`, so a reader (or a concurrent eviction) only
    ever sees a complete file, and two writers racing on one key both
    leave a valid entry (last replace wins — the payloads are identical
    by construction, the key is a content hash of the spec).

    ``max_bytes`` turns on a size cap for long-lived servers: after
    each write the cache evicts oldest-mtime entries until the total
    size of ``*.json`` entries is back under the cap (the entry just
    written is never evicted, so a cap smaller than one payload still
    serves that payload).
    """

    def __init__(self, root, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        # this instance's lookup/eviction activity (the on-disk store
        # may be shared; these count what *this* handle observed) —
        # surfaced per node in /stats so cluster-level cache
        # effectiveness is observable
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def counters(self) -> Dict[str, int]:
        """This handle's hit/miss/eviction counts."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}

    def get(self, key: str) -> Optional[Dict[str, object]]:
        try:
            with open(self.path(key)) as fp:
                entry = json.load(fp)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(entry, dict) or "payload" not in entry:
            self.misses += 1
            return None
        payload = entry["payload"]
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, spec: Dict[str, object],
            payload: Dict[str, object]) -> None:
        path = self.path(key)
        tmp = path.with_name(
            f"{path.name}.tmp{os.getpid()}.{threading.get_ident()}")
        # no sort_keys: dict insertion order must survive the
        # round-trip so cached results render byte-identically to
        # freshly simulated ones
        tmp.write_text(json.dumps(
            {"key": key, "spec": spec, "payload": payload}))
        os.replace(tmp, path)
        if self.max_bytes is not None:
            self.evictions += self._evict(keep=path.name)

    def size_bytes(self) -> int:
        """Total size of all cache entries (tmp files excluded)."""
        total = 0
        for path in self.root.glob("*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def _evict(self, keep: str) -> int:
        """Delete oldest-mtime entries until the cache fits
        ``max_bytes`` again; returns how many were evicted.  A file
        vanishing mid-scan (concurrent eviction by another server
        sharing the directory) is skipped, not an error."""
        entries = []
        total = 0
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.name, stat.st_size, path))
            total += stat.st_size
        evicted = 0
        for _mtime, name, size, path in sorted(entries):
            if total <= self.max_bytes:
                break
            if name == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        return evicted

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------
class ExperimentEngine:
    """Runs batches of experiment points, optionally in parallel and
    optionally memoized on disk.

    ``jobs=1`` (the default) executes inline in submission order; an
    ``ExperimentEngine()`` is what every sweep runs on when its caller
    passes no engine.  ``jobs>1`` fans points out
    over a process pool; because results are keyed by point and merged
    in submission order, the output is identical either way (enforced
    by ``tests/test_parallel_engine.py``).

    With ``cache_dir`` set, finished payloads are written through to
    disk and hit on the next batch — across engines, processes, and CI
    runs; without it nothing is read or written.

    Per-point wall time lands in ``stats`` (histogram
    ``engine.point.seconds``), alongside ``engine.cache.hits`` /
    ``engine.cache.misses`` / ``engine.executed`` counters, so the
    speedup from caching and parallelism is measurable.
    """

    def __init__(self, jobs: int = 1, cache_dir=None,
                 stats: Optional[Stats] = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.stats = stats if stats is not None else Stats()

    # -- public API ----------------------------------------------------
    def run(self, points: Sequence) -> List:
        """Execute a batch; returns deserialized results in the order
        the points were given, regardless of completion order.

        Duplicate points (same key) execute once and share the result.
        """
        points = list(points)
        keys = [point.key for point in points]
        self.stats.inc("engine.points", len(points))

        first: Dict[str, object] = {}      # key -> representative point
        for point, key in zip(points, keys):
            first.setdefault(key, point)

        payloads: Dict[str, Dict[str, object]] = {}
        pending = []
        for key, point in first.items():
            # a traced point must actually simulate to capture its
            # trace file, so cache *reads* are bypassed (the payload is
            # still written through — tracing never changes results)
            read_cache = (self.cache is not None
                          and getattr(point, "trace_dir", None) is None)
            cached = self.cache.get(key) if read_cache else None
            if cached is not None:
                payloads[key] = cached
                self.stats.inc("engine.cache.hits")
            else:
                if self.cache is not None:
                    self.stats.inc("engine.cache.misses")
                pending.append(point)

        if pending:
            with self.stats.timer("engine.batch.seconds"):
                finished = self._execute(pending)
            for key, payload, seconds in finished:
                payloads[key] = payload
                self.stats.inc("engine.executed")
                self.stats.hist("engine.point.seconds", seconds)
                if self.cache is not None:
                    self.cache.put(key, first[key].spec(), payload)

        # point-keyed deterministic merge: output order is input order
        return [point.deserialize(payloads[key])
                for point, key in zip(points, keys)]

    def summary(self) -> str:
        """One-line run summary (the CLI prints this to stderr; the CI
        smoke job greps ``hits=`` out of it).  With a cache configured
        the store's own view rides along — the same
        ``store_hits``/``store_misses``/``evictions`` counters the
        serve tier publishes on ``/stats``, so batch and served runs
        report cache effectiveness in one vocabulary."""
        counter = self.stats.counter
        wall = self.stats.summary("engine.batch.seconds").total
        line = (f"engine: jobs={self.jobs} "
                f"points={counter('engine.points'):.0f} "
                f"hits={counter('engine.cache.hits'):.0f} "
                f"executed={counter('engine.executed'):.0f} "
                f"wall={wall:.2f}s")
        if self.cache is not None:
            line += (f" cache[store_hits={self.cache.hits} "
                     f"store_misses={self.cache.misses} "
                     f"evictions={self.cache.evictions} "
                     f"entries={len(self.cache)}]")
        return line

    # -- execution -----------------------------------------------------
    def _execute(self, pending: List) -> List[Tuple[str, Dict[str, object],
                                                    float]]:
        if self.jobs == 1 or len(pending) == 1:
            return [execute_point(point) for point in pending]
        # a router imports this module for its point classes only
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(execute_point, point)
                       for point in pending]
            return [future.result() for future in futures]
