"""Shared infrastructure: event kernel, configuration, stats, value types."""

from .config import (
    CacheLevelConfig,
    CoreConfig,
    MachineConfig,
    MemCtrlConfig,
    MemTimingConfig,
    TxCacheConfig,
    paper_machine_config,
    small_machine_config,
    table2_rows,
)
from .event import SimulationError, Simulator
from .stats import SampleSummary, ScopedStats, Stats
from .types import (
    CACHE_LINE_SIZE,
    NVM_BASE,
    MemReqType,
    MemRequest,
    MemSpace,
    SchemeName,
    Version,
    is_persistent_addr,
    line_addr,
    ns_to_cycles,
)

__all__ = [
    "CACHE_LINE_SIZE",
    "NVM_BASE",
    "CacheLevelConfig",
    "CoreConfig",
    "MachineConfig",
    "MemCtrlConfig",
    "MemReqType",
    "MemRequest",
    "MemSpace",
    "MemTimingConfig",
    "SampleSummary",
    "SchemeName",
    "ScopedStats",
    "SimulationError",
    "Simulator",
    "Stats",
    "TxCacheConfig",
    "Version",
    "is_persistent_addr",
    "line_addr",
    "ns_to_cycles",
    "paper_machine_config",
    "small_machine_config",
    "table2_rows",
]
