"""Machine configuration dataclasses.

:func:`paper_machine_config` reproduces Table 2 of the paper:

======================  =====================================================
CPU                     4 cores, 2 GHz, 4-issue, out of order
L1 I/D                  private, 32 KB/core, 0.5 ns, 4-way
L2                      private, 256 KB/core, 4.5 ns, 8-way
L3 (LLC)                shared, 64 MB, 10 ns, 16-way
Transaction cache       private, 4 KB/core, fully associative CAM FIFO, 1.5 ns
Memory controllers      8/64-entry read/write queues, read-first,
                        write drain when the write queue is 80 % full
NVM (STT-RAM)           8 GB, 4 ranks, 8 banks/rank, 65 ns read, 76 ns write
DRAM                    DDR3, 8 GB, 4 ranks, 8 banks/rank
======================  =====================================================

All latencies inside the simulator are integer CPU cycles; nanosecond
figures from the paper are converted at the configured core frequency.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import typing
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, NamedTuple, Optional, TypeVar

from .types import CACHE_LINE_SIZE, ns_to_cycles

_T = TypeVar("_T")


def _derived(frozen: object, key: object, compute: Callable[[], _T]) -> _T:
    """``compute()``, computed once per ``frozen`` dataclass and ``key``.

    A frozen config (or experiment point) never changes, so a table or
    digest derived from it can be computed once and shared by every
    component built from it.  The memo sits in the instance dict beside
    the fields, where ``==``, ``hash``, ``repr`` and ``replace`` do not
    look, and travels with the instance when it is pickled; every value
    stored in it is immutable, so no system can change what another one
    reads.  Threads racing on a first call compute equal values, and
    keeping either is correct."""
    memo = frozen.__dict__.get("_derived")
    if memo is None:
        memo = {}
        object.__setattr__(frozen, "_derived", memo)
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = compute()
        return value


@dataclass(frozen=True)
class CacheLevelConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    assoc: int
    latency_ns: float

    def __post_init__(self) -> None:
        if (self.assoc < 1 or self.num_lines < self.assoc
                or self.num_lines % self.assoc):
            raise ValueError(
                f"{self.name}: {self.num_lines} lines not divisible into "
                f"{self.assoc}-way sets")

    def latency_cycles(self, freq_ghz: float) -> int:
        return ns_to_cycles(self.latency_ns, freq_ghz)

    def geometry(self, freq_ghz: float) -> "CacheGeometry":
        """Latency and set count at ``freq_ghz``, computed once per
        config and frequency."""
        return _derived(self, ("geometry", freq_ghz), lambda: CacheGeometry(
            self.latency_cycles(freq_ghz), self.num_sets))

    @property
    def num_lines(self) -> int:
        return self.size_bytes // CACHE_LINE_SIZE

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc


class CacheGeometry(NamedTuple):
    """One cache level's cycle latency and set count at one core
    frequency (see :meth:`CacheLevelConfig.geometry`)."""

    latency: int
    num_sets: int


@dataclass(frozen=True)
class TxCacheConfig:
    """Transaction cache (the paper's NVTC) parameters."""

    size_bytes: int = 4096          # 4 KB per core
    latency_ns: float = 1.5         # STT-RAM CAM access
    overflow_threshold: float = 0.9  # trigger fall-back when 90 % full
    #: merge a write into an existing *active* entry of the same
    #: transaction and line (CAM match) instead of appending a duplicate.
    #: Ablation bench test_ablation_coalescing compares both settings.
    coalesce_writes: bool = True
    #: per-core cap on issued-but-unacknowledged NVM writes; commit
    #: bursts are paced at this window so the TC's side path does not
    #: flood the write queue into drain mode (which would block reads
    #: and defeat the decoupling the paper relies on).
    issue_window: int = 16
    #: buffer organization: "cam_fifo" (the paper's design) or
    #: "set_assoc" (the prior-work alternative that suffers
    #: associativity overflows — see repro.core.setassoc).
    organization: str = "cam_fifo"
    #: associativity when organization == "set_assoc"
    assoc: int = 4

    def __post_init__(self) -> None:
        if not 0 < self.overflow_threshold <= 1:
            raise ValueError(
                "txcache.overflow_threshold must satisfy 0 < t <= 1, "
                f"got {self.overflow_threshold}")
        if self.num_entries < 1:
            raise ValueError(
                f"txcache.size_bytes must hold one {CACHE_LINE_SIZE} B "
                f"line, got {self.size_bytes}")
        if self.organization not in ("cam_fifo", "set_assoc"):
            raise ValueError(
                "txcache.organization must be 'cam_fifo' or 'set_assoc', "
                f"got {self.organization!r}")
        if self.organization == "set_assoc" and (
                self.assoc < 1 or self.num_entries % self.assoc):
            raise ValueError(
                f"txcache: {self.num_entries} entries not divisible into "
                f"{self.assoc}-way sets")

    @property
    def num_entries(self) -> int:
        return self.size_bytes // CACHE_LINE_SIZE

    def latency_cycles(self, freq_ghz: float) -> int:
        return ns_to_cycles(self.latency_ns, freq_ghz)


@dataclass(frozen=True)
class MemTimingConfig:
    """Device timing for one memory technology (line-granular model).

    ``row_hit_ns`` / ``row_miss_ns`` are additional array latencies for
    accesses that hit / miss in the open row buffer; ``read_ns`` /
    ``write_ns`` are base cell access latencies (for DDR3 DRAM these
    fold CAS into ``read_ns``/``write_ns`` and activation into
    ``row_miss_ns``).
    """

    read_ns: float
    write_ns: float
    row_hit_ns: float
    row_miss_ns: float
    row_size_bytes: int = 8192
    #: DRAM refresh: every ``refresh_interval_ns`` all banks are busy
    #: for ``refresh_ns`` (tRFC); 0 disables (nonvolatile memories do
    #: not refresh).  Modeled lazily per bank, so it costs no events.
    refresh_interval_ns: float = 0.0
    refresh_ns: float = 160.0

    def read_cycles(self, freq_ghz: float, row_hit: bool) -> int:
        extra = self.row_hit_ns if row_hit else self.row_miss_ns
        return ns_to_cycles(self.read_ns + extra, freq_ghz)

    def write_cycles(self, freq_ghz: float, row_hit: bool) -> int:
        extra = self.row_hit_ns if row_hit else self.row_miss_ns
        return ns_to_cycles(self.write_ns + extra, freq_ghz)

    def cycles(self, freq_ghz: float) -> "MemCycles":
        """Every bank timing in cycles at ``freq_ghz``, computed once
        per config and frequency."""
        def compute() -> MemCycles:
            refreshes = self.refresh_interval_ns > 0
            return MemCycles(
                read_hit=self.read_cycles(freq_ghz, row_hit=True),
                read_miss=self.read_cycles(freq_ghz, row_hit=False),
                write_hit=self.write_cycles(freq_ghz, row_hit=True),
                write_miss=self.write_cycles(freq_ghz, row_hit=False),
                refresh_interval=(
                    ns_to_cycles(self.refresh_interval_ns, freq_ghz)
                    if refreshes else 0),
                refresh_cycles=(ns_to_cycles(self.refresh_ns, freq_ghz)
                                if refreshes else 0))

        return _derived(self, ("cycles", freq_ghz), compute)


class MemCycles(NamedTuple):
    """One memory technology's bank timings in cycles at one core
    frequency (see :meth:`MemTimingConfig.cycles`).  A refresh interval
    of 0 means the banks never refresh."""

    read_hit: int
    read_miss: int
    write_hit: int
    write_miss: int
    refresh_interval: int
    refresh_cycles: int


@dataclass(frozen=True)
class MemCtrlConfig:
    """Memory-controller geometry and scheduling policy (Table 2)."""

    name: str
    timing: MemTimingConfig
    num_ranks: int = 4
    banks_per_rank: int = 8
    read_queue_entries: int = 8
    write_queue_entries: int = 64
    write_drain_threshold: float = 0.8
    #: bank-interleave granularity: "line" (bank:column mapping —
    #: adjacent lines hit adjacent banks, maximizing parallelism for
    #: small footprints) or "row" (row:bank — a whole row buffer is
    #: contiguous in one bank, maximizing locality for streams)
    interleave: str = "line"

    def __post_init__(self) -> None:
        if self.interleave not in ("line", "row"):
            raise ValueError(
                f"{self.name}.interleave must be 'line' or 'row', "
                f"got {self.interleave!r}")
        for name in ("read_queue_entries", "write_queue_entries"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(
                    f"{self.name}.{name} must be >= 1, got {value}")

    @property
    def num_banks(self) -> int:
        return self.num_ranks * self.banks_per_rank


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection model parameters (all defaults are *off*).

    The paper's evaluation (like its MARSSx86 setup) assumes perfect
    hardware; this config describes the imperfect variant: stochastic
    STT-RAM write failures in the NVM array, lost/delayed/duplicated
    acknowledgment messages on the NVM-controller→TC path, and
    single/double bit errors in TC lines protected by SECDED ECC.

    With every rate at 0 (the default) the fault layer is a **strict
    no-op**: no injector is constructed, no extra events are scheduled,
    and simulation results are bit-identical to a build without the
    fault subsystem.
    """

    #: RNG seed for the injector's per-site deterministic streams
    seed: int = 0
    #: probability one NVM array write attempt fails verification
    nvm_write_fail_rate: float = 0.0
    #: probability an acknowledgment message is lost on the way to the TC
    ack_loss_rate: float = 0.0
    #: probability an acknowledgment is delayed by ``ack_delay_cycles``
    ack_delay_rate: float = 0.0
    #: probability an acknowledgment is delivered twice
    ack_duplicate_rate: float = 0.0
    #: delay applied to delayed acknowledgments, in cycles
    ack_delay_cycles: int = 200
    #: per-bit probability a TC line bit reads flipped (transient; a
    #: corrected read scrubs the line clean)
    tc_bit_flip_rate: float = 0.0
    #: write-verify-retry: bounded retries before the controller remaps
    #: the line to a spare row (counted as ``write.remaps``)
    max_write_retries: int = 8
    #: base backoff before the first retry; doubles per attempt
    retry_backoff_cycles: int = 16
    #: TC-side acknowledgment timeout before a committed-unacked entry
    #: is idempotently reissued toward the NVM
    ack_timeout_cycles: int = 4000
    #: a TC whose observed ECC error rate (errors/reads) crosses this
    #: threshold is degraded: new transactions fall back to the COW path
    degrade_error_rate: float = 1.0
    #: minimum ECC-checked reads before the degrade threshold applies
    degrade_min_reads: int = 256

    def __post_init__(self) -> None:
        for name in ("nvm_write_fail_rate", "ack_loss_rate",
                     "ack_delay_rate", "ack_duplicate_rate",
                     "tc_bit_flip_rate", "degrade_error_rate"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(
                    f"faults.{name} must be in [0, 1], got {value}")
        if (self.ack_loss_rate + self.ack_delay_rate
                + self.ack_duplicate_rate) > 1:
            raise ValueError(
                "faults ack_loss_rate + ack_delay_rate + "
                "ack_duplicate_rate must not exceed 1")
        if self.max_write_retries < 0:
            raise ValueError(
                f"faults.max_write_retries must be >= 0, "
                f"got {self.max_write_retries}")
        for name in ("retry_backoff_cycles", "ack_timeout_cycles",
                     "ack_delay_cycles", "degrade_min_reads"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(
                    f"faults.{name} must be >= 1, got {value}")

    @property
    def enabled(self) -> bool:
        """True when any fault can actually fire."""
        return (self.nvm_write_fail_rate > 0 or self.ack_loss_rate > 0
                or self.ack_delay_rate > 0 or self.ack_duplicate_rate > 0
                or self.tc_bit_flip_rate > 0)


@dataclass(frozen=True)
class CoreConfig:
    """Timing model of one CPU core.

    The paper simulates a 4-issue out-of-order core with MARSSx86.  Our
    trace-driven model approximates out-of-order latency hiding with a
    bounded window: a blocking load only stalls the core for the part
    of its latency that exceeds ``hide_cycles``.  Stores retire into a
    finite store buffer drained in the background.
    """

    freq_ghz: float = 2.0
    issue_width: int = 4
    hide_cycles: int = 16
    store_buffer_entries: int = 32

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ValueError(
                f"core.freq_ghz must be > 0, got {self.freq_ghz}")
        if self.issue_width < 1:
            raise ValueError(
                f"core.issue_width must be >= 1, got {self.issue_width}")


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to build a simulated system."""

    num_cores: int = 4
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig("l1", 32 * 1024, 4, 0.5)
    )
    l2: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig("l2", 256 * 1024, 8, 4.5)
    )
    llc: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(
            "llc", 64 * 1024 * 1024, 16, 10.0)
    )
    txcache: TxCacheConfig = field(default_factory=TxCacheConfig)
    nvm: MemCtrlConfig = field(
        default_factory=lambda: MemCtrlConfig(
            "nvm",
            MemTimingConfig(read_ns=65.0, write_ns=76.0,
                            row_hit_ns=0.0, row_miss_ns=12.0),
        )
    )
    dram: MemCtrlConfig = field(
        default_factory=lambda: MemCtrlConfig(
            "dram",
            MemTimingConfig(read_ns=13.75, write_ns=13.75,
                            row_hit_ns=13.75, row_miss_ns=41.25,
                            refresh_interval_ns=7800.0),
        )
    )
    #: fault-injection model; all-zero rates (the default) are a strict
    #: no-op — see :class:`FaultConfig`
    faults: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ValueError(
                f"num_cores must be >= 1, got {self.num_cores}")

    @property
    def freq_ghz(self) -> float:
        return self.core.freq_ghz

    def latency(self, level: str) -> int:
        """Access latency of a named component, in cycles."""
        if level == "txcache":
            return self.txcache.latency_cycles(self.freq_ghz)
        cache: CacheLevelConfig = getattr(self, level)
        return cache.latency_cycles(self.freq_ghz)

    def scaled_llc(self, size_bytes: int) -> "MachineConfig":
        """Copy of this config with a different LLC capacity.

        The paper's 64 MB LLC swallows our (necessarily shorter) traces
        whole; experiments that need LLC pressure scale it down while
        keeping associativity and latency."""
        return replace(self, llc=replace(self.llc, size_bytes=size_bytes))


class _Field(NamedTuple):
    """One field of a config class, as :func:`_fields` lists it."""

    #: the scalar type of a leaf field; None for a nested config
    leaf: Optional[type]
    #: the config class of a nested field; None for a leaf
    nested: Optional[type]


#: leaf type -> the value types a dict may give it, and their wording.
#: bool is an int subclass, so it is refused everywhere but a bool
#: field; an int passes for a float unchanged, keeping its key.
_LEAF_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
}


@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> Dict[str, _Field]:
    """The fields of config class ``cls`` by name, in declaration
    order, resolved from its annotations once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: (_Field(None, hints[f.name])
                     if dataclasses.is_dataclass(hints[f.name])
                     else _Field(hints[f.name], None))
            for f in dataclasses.fields(cls)}


def config_fingerprint(config: MachineConfig) -> str:
    """Stable content hash of a machine configuration.

    Serializes the (nested, frozen) dataclass tree to canonical JSON —
    sorted keys, exact float repr — and hashes it, so two configs get
    the same fingerprint iff every knob is equal.  Used as the config
    component of the experiment-cache key
    (:mod:`repro.sim.parallel`): any knob change, however deep
    (a fault rate, a row-buffer size), produces a different key and
    therefore a cache miss instead of a stale result.  Computed once
    per frozen instance.
    """
    def compute() -> str:
        payload = json.dumps(config_to_dict(config), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    return _derived(config, "fingerprint", compute)


def config_to_dict(config) -> Dict[str, object]:
    """A machine config (or any nested config) as a nested plain dict
    (JSON-ready), freshly built on every call.

    The inverse of :func:`config_from_dict`; the round trip is exact
    because every leaf is an int/float/str/bool and JSON preserves
    float ``repr`` precision.  The leaves are immutable, so they are
    shared, not copied."""
    out: Dict[str, object] = {}
    for name, (_leaf, nested) in _fields(type(config)).items():
        value = getattr(config, name)
        out[name] = value if nested is None else config_to_dict(value)
    return out


def _dataclass_from_dict(cls, data: Mapping, path: str):
    if not isinstance(data, Mapping):
        raise ValueError(f"{path}: expected an object, got {data!r}")
    fields = _fields(cls)
    unknown = sorted(name for name in data if name not in fields)
    if unknown:
        raise ValueError(f"{path}: unknown keys {unknown} "
                         f"(known: {sorted(fields)})")
    kwargs = {}
    for name, value in data.items():
        leaf, nested = fields[name]
        if nested is not None:
            value = _dataclass_from_dict(nested, value, f"{path}.{name}")
        else:
            accepted, wording = _LEAF_TYPES[leaf]
            if (not isinstance(value, accepted)
                    or (isinstance(value, bool) and leaf is not bool)):
                raise ValueError(
                    f"{path}.{name}: expected {wording}, got {value!r}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def config_from_dict(data: Mapping) -> MachineConfig:
    """Rebuild a :class:`MachineConfig` from its nested-dict form.

    Accepts partial dicts — omitted fields take their dataclass
    defaults — and recurses into every nested config dataclass, so the
    output of :func:`config_to_dict` (or any hand-written subset of it,
    e.g. a wire-protocol override block) reconstructs the frozen tree
    exactly.  Unknown keys and leaves of the wrong type raise
    ``ValueError`` naming their dotted path rather than being silently
    dropped or crashing a run later: a typo in a knob name must not
    produce a default-configured run that *looks* like the requested
    one.  An int is accepted (and kept as is) for a float field; a
    bool is accepted only for a bool field.
    """
    return _dataclass_from_dict(MachineConfig, data, "config")


#: core counts whose preset instances are kept; a served request names
#: its own core count, so the memo must not grow without bound
_PRESETS_KEPT = 64


def paper_machine_config(num_cores: int = 4) -> MachineConfig:
    """The exact configuration of the paper's Table 2 (at
    ``num_cores`` cores; the paper's machine has 4).

    Built on the first call and shared after it: the config is frozen,
    so every caller may hold the same instance (and every system built
    from it shares its derived tables and its fingerprint)."""
    return _paper_machine_config(num_cores)


@functools.lru_cache(maxsize=_PRESETS_KEPT, typed=True)
def _paper_machine_config(num_cores: int) -> MachineConfig:
    return MachineConfig(num_cores=num_cores)


def small_machine_config(num_cores: int = 4) -> MachineConfig:
    """A scaled-down machine for fast tests and benchmark runs.

    Cache capacities shrink by ~64x so that 10^4-10^5-operation traces
    exercise misses, evictions, and LLC pressure the way the paper's
    0.7-billion-instruction runs exercised the full-size hierarchy.
    Latencies and policies are unchanged.  Built once per core count,
    like :func:`paper_machine_config`.
    """
    return _small_machine_config(num_cores)


@functools.lru_cache(maxsize=_PRESETS_KEPT, typed=True)
def _small_machine_config(num_cores: int) -> MachineConfig:
    base = paper_machine_config()
    return replace(
        base,
        num_cores=num_cores,
        l1=replace(base.l1, size_bytes=4 * 1024),
        l2=replace(base.l2, size_bytes=16 * 1024),
        llc=replace(base.llc, size_bytes=32 * 1024),
        txcache=replace(base.txcache, size_bytes=4096),
    )


def table2_rows(config: MachineConfig) -> Dict[str, str]:
    """Render a machine config as the rows of the paper's Table 2."""
    ghz = config.freq_ghz
    return {
        "CPU": (
            f"{config.num_cores} cores, {ghz:g}GHz, "
            f"{config.core.issue_width} issue, out of order"
        ),
        "L1 I/D": (
            f"Private, {config.l1.size_bytes // 1024}KB/core, "
            f"{config.l1.latency_ns:g}ns, {config.l1.assoc}-way"
        ),
        "L2": (
            f"Private, {config.l2.size_bytes // 1024}KB/core, "
            f"{config.l2.latency_ns:g}ns, {config.l2.assoc}-way"
        ),
        "L3 (LLC)": (
            f"Shared, {config.llc.size_bytes // (1024 * 1024)}MB, "
            f"{config.llc.latency_ns:g}ns, {config.llc.assoc}-way"
        ),
        "Transaction Cache": (
            f"Private, {config.txcache.size_bytes // 1024}KB/core, "
            f"Fully-Associative CAM FIFO, {config.txcache.latency_ns:g}ns"
        ),
        "Memory Controllers": (
            f"{config.nvm.read_queue_entries}/{config.nvm.write_queue_entries}-entry "
            f"read/write queue, 2 controllers, read-first or write drain when "
            f"the write queue is {int(config.nvm.write_drain_threshold * 100)}% full"
        ),
        "NVM Memory": (
            f"{config.nvm.num_ranks} ranks, {config.nvm.banks_per_rank} banks/rank, "
            f"{config.nvm.timing.read_ns:g}-ns read, "
            f"{config.nvm.timing.write_ns:g}-ns write"
        ),
        "DRAM Memory": (
            f"DDR3, {config.dram.num_ranks} ranks, "
            f"{config.dram.banks_per_rank} banks/rank"
        ),
    }
