"""repro — reproduction of "Leave the Cache Hierarchy Operation as It
Is: A New Persistent Memory Accelerating Approach" (DAC 2017).

The package implements the paper's persistent memory accelerator — a
nonvolatile CAM-FIFO transaction cache deployed beside an unmodified
cache hierarchy — together with every substrate it is evaluated on:

* a multicore cache-hierarchy simulator (:mod:`repro.cache`),
* a hybrid DRAM/NVM memory system with DRAMSim2-style controllers
  (:mod:`repro.memory`),
* a trace-driven CPU timing model (:mod:`repro.cpu`),
* the transaction cache, its accelerator logic and the copy-on-write
  overflow fall-back (:mod:`repro.core`),
* the four compared persistence mechanisms (:mod:`repro.persistence`),
* the five Table 3 benchmarks as instrumented data structures
  (:mod:`repro.workloads`), and
* experiment runners, crash injection, and figure/table regeneration
  (:mod:`repro.sim`).

Quick start::

    from repro import run_comparison, SchemeName
    results = run_comparison("hashtable", operations=200)
    print(results[SchemeName.TXCACHE].ipc /
          results[SchemeName.OPTIMAL].ipc)   # ~0.99 (paper: 0.985)
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports

# The simulator loads on first use of one of its names, so a process
# that only routes or serves (``repro serve``, ``repro cluster``) never
# imports it; see repro._lazy.
_LAZY = {
    "common": ("CACHE_LINE_SIZE", "NVM_BASE", "MachineConfig", "SchemeName",
               "Simulator", "Stats", "TxCacheConfig", "Version",
               "paper_machine_config", "small_machine_config"),
    "core": ("PersistentMemoryAccelerator", "TransactionCache", "TxState",
             "hardware_overhead"),
    "cpu": ("Trace", "TraceBuilder"),
    "pheap": ("PersistentArena", "PersistentCounter", "PersistentDict",
              "PersistentList"),
    "persistence": ("KilnScheme", "OptimalScheme", "PersistenceScheme",
                    "SoftwareScheme", "TxCacheScheme", "create_scheme"),
    "sim": ("CrashReport", "SimulationResult", "System", "crash_sweep",
            "run_comparison", "run_experiment", "run_with_crash"),
    "workloads": ("PAPER_WORKLOADS", "WORKLOADS", "Workload",
                  "create_workload"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _LAZY)
