"""A deliberately broken persistence scheme: commit-before-flush.

The litmus matrix is only trustworthy if it can *fail*: this scheme
declares a transaction durably committed the moment its TX_END
retires, while doing nothing to push the transaction's writes out of
the volatile hierarchy (recovery sees the raw NVM home image, exactly
like the Optimal baseline).  Any crash between a commit claim and the
eventual (eviction-driven, unordered) write-backs exposes a torn
transaction — the paper's Fig. 2(a) failure, but with a recovery model
that *claims* atomicity.  The litmus runner and the crash oracle must
flag it, and the minimizer must shrink the counterexample to a single
store in a single transaction.

It is a :data:`~repro.common.types.NEGATIVE_CONTROLS` member: every
in-process entry point runs it, the service refuses it.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..common.types import SchemeName, Version
from .base import PersistenceScheme, Resume


class CommitBeforeFlushScheme(PersistenceScheme):
    """Claims commit at TX_END retire; never flushes anything."""

    name = SchemeName.BROKEN_COMMIT

    def tx_end(self, core, op, resume: Resume) -> None:
        # the bug: durability claimed with the writes still volatile
        self.commit_cycle[op.tx_id] = self.sim.now
        resume()

    def durable_lines(self, crash_cycle: int,
                      committed: Optional[set] = None,
                      ) -> Dict[int, Optional[Version]]:
        # no recovery story at all: whatever write-backs happened to
        # reach the NVM home region before the crash
        return self.home_image_at(crash_cycle)
