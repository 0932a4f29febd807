"""Persistence-scheme interface and the no-persistence baseline.

A scheme is the pluggable policy layer between the core's trace
execution and the cache/memory substrate.  The paper compares four
(§5.1): *Optimal* (native, no persistence), *SP* (software write-ahead
logging with flush/fence ordering), *Kiln* (nonvolatile LLC, [23]) and
*TC* (the proposed transaction-cache accelerator).

The interface is continuation-passing because operations may complete
synchronously (cache hit) or via a later event (memory fill, fence
drain, TC-full stall):

* ``load(core, op, on_complete)`` — ``on_complete(latency, version)``.
* ``store(core, op, on_issue, on_retire)`` — ``on_issue(latency)``
  fires when the core may move past the store (this is where a full
  transaction cache stalls the pipeline); ``on_retire(latency)`` fires
  when the store leaves the store buffer (L1 write done).
* ``tx_begin/tx_end/clwb/sfence(core, op, resume)`` — ``resume()``
  fires when the core may continue.

Schemes also expose the recovery model: :meth:`durable_lines` answers
"after a crash at cycle *t*, what line→version map does recovery
produce?" — the contract checked by the crash-consistency tests.
Recovering schemes build it from :meth:`home_image_at` with one of the
two routines in :mod:`repro.persistence.recovery`, and record each
transaction's durability point in :attr:`commit_cycle`, which the
default :meth:`durably_committed` reads.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from ..cache.hierarchy import CacheHierarchy
from ..common.config import MachineConfig
from ..common.event import Simulator
from ..common.stats import Stats
from ..common.types import SchemeName, Version
from ..cpu.trace import Trace
from ..memory.system import MemorySystem
from ..obs.tracer import NULL_TRACER, NullTracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cpu.core import Core

LoadComplete = Callable[[int, Optional[Version]], None]
StoreIssue = Callable[[int], None]
StoreRetire = Callable[[int], None]
Resume = Callable[[], None]


class PersistenceScheme:
    """Base class; behaves as the paper's *Optimal* (no persistence)."""

    name = SchemeName.OPTIMAL

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        stats: Stats,
        hierarchy: CacheHierarchy,
        memory: MemorySystem,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        self.sim = sim
        self.config = config
        self.stats = stats.scoped(f"scheme.{self.name.value}")
        self.hierarchy = hierarchy
        self.memory = memory
        self.tracer = tracer
        #: tx -> cycle at which its commit became durable (recovery
        #: treats it as committed from then on)
        self.commit_cycle: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # trace preparation
    # ------------------------------------------------------------------
    def prepare_trace(self, trace: Trace) -> Trace:
        """Transform a scheme-independent workload trace into what this
        scheme's software layer actually executes.  Default: unchanged
        (hardware schemes need no extra instructions — paper §5.1: only
        SP 'runs the transactions with logging operations')."""
        return trace

    # ------------------------------------------------------------------
    # execution hooks
    # ------------------------------------------------------------------
    def load(self, core: "Core", op, on_complete: LoadComplete) -> None:
        self.hierarchy.load(core.core_id, op.addr, on_complete)

    def store(self, core: "Core", op, on_issue: StoreIssue,
              on_retire: StoreRetire) -> None:
        self.hierarchy.store(
            core.core_id, op.addr, op.version,
            persistent=op.persistent, tx_id=op.tx_id,
            on_complete=on_retire,
        )
        on_issue(1)

    def tx_begin(self, core: "Core", op, resume: Resume) -> None:
        resume()

    def tx_end(self, core: "Core", op, resume: Resume) -> None:
        resume()

    def clwb(self, core: "Core", op, resume: Resume) -> None:
        # Hardware schemes never execute CLWB; treat as a no-op hint.
        resume()

    def sfence(self, core: "Core", op, resume: Resume) -> None:
        resume()

    # ------------------------------------------------------------------
    # completion / recovery
    # ------------------------------------------------------------------
    def busy(self) -> bool:
        """True while scheme-owned background work is still in flight."""
        return False

    def durable_lines(self, crash_cycle: int,
                      committed: Optional[set] = None,
                      ) -> Dict[int, Optional[Version]]:
        """Line→version map recovery would reconstruct after a crash at
        ``crash_cycle``.  The Optimal scheme guarantees nothing: it
        returns the raw NVM contents (which may tear transactions —
        that is exactly the paper's Fig. 2a failure case).

        ``committed``, when given, must be
        ``self.durably_committed(crash_cycle)``, which the caller has
        already computed: a recovery that reads the committed set
        (undo rollback, Kiln's NV-LLC replay) takes it instead of
        computing it again."""
        return self.memory.durable_state_at(crash_cycle)

    def home_image_at(self, crash_cycle: int) -> Dict[int, Optional[Version]]:
        """The NVM home region as found after a crash at
        ``crash_cycle`` (log and record lines filtered out) — the image
        recovery starts from."""
        return self.memory.durable_image.home_state_at(crash_cycle)

    def durably_committed(self, crash_cycle: int) -> set:
        """Transaction ids recovery would consider committed after a
        crash at ``crash_cycle``: those whose :attr:`commit_cycle` is
        not later.  Optimal records none."""
        return {tx for tx, cycle in self.commit_cycle.items()
                if cycle <= crash_cycle}


class OptimalScheme(PersistenceScheme):
    """Native execution without persistence guarantee (paper §5.1)."""

    name = SchemeName.OPTIMAL
