"""System builder: cores + hierarchy + memory + scheme in one object."""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..cache.hierarchy import CacheHierarchy
from ..common.config import MachineConfig, small_machine_config
from ..common.event import Simulator
from ..common.stats import Stats
from ..common.types import SchemeName
from ..cpu.core import Core
from ..cpu.trace import Trace
from ..memory.system import MemorySystem
from ..obs import Observability
from ..obs.tracer import NULL_TRACER
from ..persistence import PersistenceScheme, create_scheme


class System:
    """A complete simulated machine running one persistence scheme.

    >>> system = System.build("txcache")
    >>> system.load_traces([some_trace])
    >>> system.run()
    """

    def __init__(self, config: MachineConfig,
                 scheme_name: Union[str, SchemeName],
                 obs: Optional[Observability] = None) -> None:
        self.config = config
        self.sim = Simulator()
        self.stats = Stats()
        # Observability is deliberately *not* part of MachineConfig —
        # enabling a trace must never change config fingerprints or
        # cache keys, only add read-only instrumentation.
        self.obs = obs
        tracer = obs.tracer if obs is not None else NULL_TRACER
        # Fault injection: constructed only when some fault can fire,
        # so the all-zero-rates default is a strict no-op (no injector,
        # no extra events, bit-identical baseline results).
        self.faults = None
        if config.faults.enabled:
            from ..faults.injector import FaultInjector

            self.faults = FaultInjector(config.faults)
        self.memory = MemorySystem(self.sim, config, self.stats,
                                   faults=self.faults, tracer=tracer)
        self.hierarchy = CacheHierarchy(self.sim, config, self.stats,
                                        self.memory, tracer=tracer)
        self.scheme: PersistenceScheme = create_scheme(
            scheme_name, self.sim, config, self.stats,
            self.hierarchy, self.memory, tracer=tracer)
        self.cores: List[Core] = [
            Core(self.sim, core_id, config.core,
                 self.stats.scoped(f"core.{core_id}"), self.scheme,
                 tracer=tracer)
            for core_id in range(config.num_cores)
        ]
        if obs is not None:
            obs.attach(self.sim)
            self._register_probes(obs)
        #: original (pre-instrumentation) traces, for metrics/checking
        self.source_traces: List[Trace] = []
        #: events executed across all run() calls (benchmark metric)
        self.events_executed = 0

    def _register_probes(self, obs: Observability) -> None:
        """Register epoch-sampler probes over the structures whose
        occupancy tells the paper's story: TC fill levels and memory
        controller queue depths."""
        if obs.sampler is None:
            return
        accelerator = getattr(self.scheme, "accelerator", None)
        if accelerator is not None:
            for core_id, tc in enumerate(accelerator.tcs):
                obs.sampler.add_probe(
                    "tc", f"tc{core_id}", "occupancy_sampled",
                    (lambda t=tc: len(t)))
        for name, controller in (("nvm", self.memory.nvm),
                                 ("dram", self.memory.dram)):
            obs.sampler.add_probe(
                "mem", name, "read_queue",
                (lambda c=controller: len(c.read_queue)))
            obs.sampler.add_probe(
                "mem", name, "write_queue",
                (lambda c=controller: len(c.write_queue)))

    @staticmethod
    def build(scheme_name: Union[str, SchemeName],
              config: Optional[MachineConfig] = None,
              num_cores: int = 1) -> "System":
        """Convenience constructor with the scaled test machine."""
        return System(config or small_machine_config(num_cores=num_cores),
                      scheme_name)

    # ------------------------------------------------------------------
    def load_traces(self, traces: Sequence[Trace]) -> None:
        """Assign one trace per core (fewer traces → idle cores) after
        scheme-specific instrumentation."""
        if len(traces) > len(self.cores):
            raise ValueError(
                f"{len(traces)} traces for {len(self.cores)} cores")
        self.source_traces = list(traces)
        for core, trace in zip(self.cores, traces):
            prepared = self.scheme.prepare_trace(trace)
            prepared.validate()
            core.run_trace(prepared)

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        """Drain the event queue (optionally pausing at ``until``)."""
        self.events_executed += self.sim.run(until=until,
                                             max_events=max_events)

    @property
    def done(self) -> bool:
        active = [core for core, _t in zip(self.cores, self.source_traces)]
        return (all(core.done for core in active)
                and not self.memory.busy()
                and not self.scheme.busy())

    @property
    def cycles(self) -> int:
        """Execution time: the slowest active core's finish cycle."""
        active = [core for core, _t in zip(self.cores, self.source_traces)]
        return max((core.cycle for core in active), default=0)
