"""The hybrid memory system: one DRAM and one NVM controller behind a
single functional/timing facade.

* **Architectural contents** (`read`/`write` version payloads) update at
  enqueue time — a later read always observes the newest enqueued write,
  matching how the write queue forwards data.
* **Durable contents** (what survives a crash) update only when the NVM
  controller finishes the array write, recorded in the
  :class:`~repro.memory.controller.DurableImage` timeline.

A write may name an acknowledgment route (``on_ack``), so the
transaction cache can drain on completion messages (paper §4.3).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from ..common.config import MachineConfig
from ..common.event import Simulator
from ..common.stats import Stats
from ..common.types import (
    LINE_MASK,
    NVM_BASE,
    MemReqType,
    MemRequest,
    Version,
    line_addr,
)
from ..obs.tracer import NULL_TRACER, NullTracer
from .controller import DurableImage, MemoryController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.injector import FaultInjector

#: ``on_complete(line, version, cycle)`` of :meth:`MemorySystem.read`
ReadCallback = Callable[[int, Optional[Version], int], None]


class MemorySystem:
    """DRAM + NVM controllers plus the functional data map."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        stats: Stats,
        faults: Optional["FaultInjector"] = None,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.config = config
        #: fault injector shared with NVM-side consumers (the TC
        #: accelerator reads it off the memory system); None in the
        #: fault-free baseline
        self.faults = faults
        self.durable_image = DurableImage()
        self.nvm = MemoryController(
            sim,
            config.nvm,
            stats.scoped("mem.nvm"),
            config.freq_ghz,
            durable_image=self.durable_image,
            faults=faults,
            tracer=tracer,
        )
        self.dram = MemoryController(
            sim,
            config.dram,
            stats.scoped("mem.dram"),
            config.freq_ghz,
            tracer=tracer,
        )
        #: architectural (program-visible) contents, both spaces
        self._contents: Dict[int, Optional[Version]] = {}

    # ------------------------------------------------------------------
    def peek(self, addr: int) -> Optional[Version]:
        """Architectural contents of a line (no timing)."""
        return self._contents.get(line_addr(addr))

    def durable_now(self, addr: int) -> Optional[Version]:
        """Version physically in the NVM array right now (None if the
        line is volatile or was never written durably)."""
        return self.durable_image.current(line_addr(addr))

    def poke(self, addr: int, version: Optional[Version]) -> None:
        """Set architectural contents without timing (test/bootstrap)."""
        self._contents[line_addr(addr)] = version

    # ------------------------------------------------------------------
    def read(
        self,
        addr: int,
        on_complete: ReadCallback,
        source: str = "",
    ) -> None:
        """Read one line; ``on_complete(line, version, cycle)`` fires
        when the controller delivers the data."""
        line = addr & LINE_MASK
        request = MemRequest(line, MemReqType.READ, callback=self._read_done,
                             source=source)
        request.on_read = on_complete
        (self.nvm if line >= NVM_BASE else self.dram).enqueue(request)

    def _read_done(self, request: MemRequest, cycle: int) -> None:
        line = request.line
        request.on_read(line, self._contents.get(line), cycle)

    def write(
        self,
        addr: int,
        version: Optional[Version],
        persistent: bool = False,
        tx_id: Optional[int] = None,
        on_complete: Optional[Callable[[MemRequest, int], None]] = None,
        source: str = "",
        tc_seq: Optional[int] = None,
        on_ack: Optional[Callable[[MemRequest, int], None]] = None,
    ) -> None:
        """Write one line.  Architectural contents update immediately;
        durability (and ``on_ack(request, cycle)``, when given) happen
        at the cycle the controller finishes the array write."""
        line = addr & LINE_MASK
        self._contents[line] = version
        (self.nvm if line >= NVM_BASE else self.dram).enqueue(MemRequest(
            line, MemReqType.WRITE, persistent, tx_id, version, on_complete,
            source=source, tc_seq=tc_seq, on_ack=on_ack))

    # ------------------------------------------------------------------
    def busy(self) -> bool:
        return self.nvm.busy() or self.dram.busy()

    def durable_state_at(self, cycle: int) -> Dict[int, Optional[Version]]:
        """NVM contents as found after a crash at ``cycle``."""
        return self.durable_image.state_at(cycle)
