"""Parameter-sweep utility: run grids of experiments declaratively.

The benches and ablations all share the same pattern — vary one knob,
run an experiment per value, collect results.  :class:`Sweep` packages
it with JSON-able output so studies can be scripted from the CLI or
notebooks:

    sweep = Sweep("tc size", values=[1024, 2048, 4096],
                  configure=lambda cfg, v: replace(
                      cfg, txcache=replace(cfg.txcache, size_bytes=v)))
    outcome = sweep.run("sps", "txcache", operations=200)
    print(outcome.format())
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..common.config import MachineConfig, small_machine_config
from ..common.types import SchemeName
from .parallel import ExperimentEngine
from .runner import SimulationResult, run_grid

Configure = Callable[[MachineConfig, object], MachineConfig]


@dataclass
class SweepPoint:
    """One (value → result) pair of a sweep."""

    value: object
    result: SimulationResult

    def to_dict(self) -> Dict[str, object]:
        return {"value": self.value, "result": self.result.to_dict()}


@dataclass
class SweepOutcome:
    """All points of one executed sweep."""

    name: str
    workload: str
    scheme: str
    points: List[SweepPoint] = field(default_factory=list)

    def values(self) -> List[object]:
        return [point.value for point in self.points]

    def metric(self, getter: Callable[[SimulationResult], float]) -> List[float]:
        return [getter(point.result) for point in self.points]

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps({
            "sweep": self.name,
            "workload": self.workload,
            "scheme": self.scheme,
            "points": [point.to_dict() for point in self.points],
        }, indent=indent)

    def format(self, metrics: Sequence[str] = ("cycles", "ipc",
                                               "nvm_write_lines")) -> str:
        header = f"{self.name:<16}" + "".join(f"{m:>18}" for m in metrics)
        lines = [f"sweep: {self.name} ({self.workload}/{self.scheme})",
                 header, "-" * len(header)]
        for point in self.points:
            row = f"{point.value!s:<16}"
            data = point.result.to_dict()
            for metric in metrics:
                value = data[metric]
                row += (f"{value:>18.3f}" if isinstance(value, float)
                        else f"{value:>18}")
            lines.append(row)
        return "\n".join(lines)


class Sweep:
    """A named knob plus the way it is applied to a machine config."""

    def __init__(self, name: str, values: Sequence[object],
                 configure: Configure) -> None:
        if not values:
            raise ValueError("a sweep needs at least one value")
        self.name = name
        self.values = list(values)
        self.configure = configure

    def run(self, workload: str, scheme: Union[str, SchemeName],
            base_config: Optional[MachineConfig] = None,
            engine: Optional[ExperimentEngine] = None, trace_dir=None,
            trace_epoch: int = 0, *, operations: int = 300,
            seed: int = 42, **workload_params) -> SweepOutcome:
        """Run the sweep grid: one experiment point per value, on
        ``engine`` (by default an inline
        :class:`~repro.sim.parallel.ExperimentEngine`: ``jobs=1``, no
        cache).  Every point's config is built **before** the first
        simulation starts, so a bad knob value raises immediately
        (prefixed ``sweep NAME=value:``) instead of minutes into the
        grid.

        ``trace_dir`` captures one Chrome trace per point, named by the
        point's cache key; ``trace_epoch`` turns on
        occupancy/queue-depth sampling every that-many cycles.
        """
        # the sweep always passes a config, so num_cores has no effect
        workload_params.pop("num_cores", None)
        base = base_config or small_machine_config()
        scheme_name = SchemeName.parse(scheme)
        configs = []
        for value in self.values:
            try:
                configs.append(self.configure(base, value))
            except ValueError as exc:
                raise ValueError(
                    f"sweep {self.name}={value!r}: {exc}") from exc
        grids = run_grid([workload], [scheme_name], configs,
                         operations=operations, seed=seed, engine=engine,
                         trace_dir=trace_dir, trace_epoch=trace_epoch,
                         **workload_params)
        return SweepOutcome(
            name=self.name, workload=workload, scheme=scheme_name.value,
            points=[SweepPoint(value=value,
                               result=grid[workload][scheme_name])
                    for value, grid in zip(self.values, grids)])


# -- ready-made sweeps -------------------------------------------------------
def tc_size_sweep(sizes: Sequence[int] = (1024, 2048, 4096, 8192)) -> Sweep:
    from dataclasses import replace

    return Sweep("tc_size_bytes", sizes,
                 lambda cfg, v: replace(
                     cfg, txcache=replace(cfg.txcache, size_bytes=v)))


def llc_size_sweep(sizes: Sequence[int] = (16 * 1024, 32 * 1024,
                                           64 * 1024, 128 * 1024)) -> Sweep:
    return Sweep("llc_size_bytes", sizes,
                 lambda cfg, v: cfg.scaled_llc(v))


def nvm_write_latency_sweep(
        latencies_ns: Sequence[float] = (76.0, 150.0, 350.0)) -> Sweep:
    from dataclasses import replace

    def configure(cfg: MachineConfig, value) -> MachineConfig:
        timing = replace(cfg.nvm.timing, write_ns=float(value))
        return replace(cfg, nvm=replace(cfg.nvm, timing=timing))

    return Sweep("nvm_write_ns", latencies_ns, configure)
