"""Timed post-crash recovery procedure for the persistent memory
accelerator.

The paper's recovery story (§3, Multiversioning) is stated but not
evaluated: after a failure, the nonvolatile TC still holds the
committed-but-unacknowledged entries, and recovery writes them to the
NVM in FIFO order; active entries are discarded.  This module makes
that procedure a first-class, *timed* simulation so recovery latency
can be studied (an extension the paper leaves open):

1. scan every core's TC array (one CAM access per entry),
2. discard active entries, then walk the scheme's replay plan
   (:meth:`~repro.persistence.TxCacheScheme.tc_replay_plan`) in commit
   order: committed TC entries are re-issued to the NVM controller at
   once; a fall-back transaction's lines are copied shadow → home, one
   shadow read before each write,
3. wait for all writes to drain — the machine may then restart.

The walk is the untimed model's own
:func:`~repro.persistence.recovery.replay`, run against the controller
instead of a dict, so it keeps the same "a later-committed owner keeps
its line" guard (a line the guard keeps costs no shadow read) and the
recovered image equals ``scheme.durable_lines(crash_cycle)``.

:func:`simulate_recovery` replays this on a *fresh* memory system
seeded with the crashed NVM image, returning the recovered image and
the recovery latency in cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..common.event import Simulator
from ..common.stats import Stats
from ..common.types import Version, is_home_line
from ..memory.system import MemorySystem

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..persistence.txcache_scheme import TxCacheScheme


@dataclass
class RecoveryResult:
    """Outcome of one timed recovery simulation."""

    cycles: int                      # crash-to-restart latency
    entries_scanned: int             # TC lines examined
    entries_replayed: int            # committed lines written to NVM
    entries_discarded: int           # active (uncommitted) lines dropped
    fallback_lines_copied: int       # COW shadow → home copies
    image: Dict[int, Optional[Version]] = field(default_factory=dict)


class _TimedImage(dict):
    """The crashed image as the replay target: every write recovery
    applies is also issued to the NVM controller at the procedure's
    clock, after a shadow read when it copies a fall-back line."""

    def __init__(self, crashed: Dict[int, Optional[Version]],
                 sim: Simulator, memory: MemorySystem, start: int,
                 read_cycles: int,
                 is_fallback: Callable[[Optional[int]], bool]) -> None:
        super().__init__(crashed)
        self.sim = sim
        self.memory = memory
        self.now = start
        self.read_cycles = read_cycles
        self.is_fallback = is_fallback
        self.replayed = 0
        self.copied = 0

    def __setitem__(self, line: int, version: Optional[Version]) -> None:
        if self.is_fallback(version.tx_id):
            self.now += self.read_cycles    # read the shadow copy
            self.copied += 1
        else:
            self.replayed += 1
        self.sim.schedule_at(self.now, self.memory.write, line, version)
        super().__setitem__(line, version)


def simulate_recovery(scheme: "TxCacheScheme",
                      crash_cycle: int) -> RecoveryResult:
    """Replay the hardware recovery procedure with timing.

    Args:
        scheme: the crashed machine's txcache scheme — its TCs are
            nonvolatile and are read in place; its NVM home image at
            ``crash_cycle`` is the starting point.
        crash_cycle: the crash point; fall-back transactions count as
            committed iff their record was durable by then.

    Returns:
        A :class:`RecoveryResult` whose ``image`` is the recovered NVM
        contents and whose ``cycles`` is the simulated recovery time.
    """
    # deferred: the persistence package imports this one's siblings
    from ..persistence.recovery import replay

    config = scheme.config
    crashed = scheme.home_image_at(crash_cycle)
    sim = Simulator()
    memory = MemorySystem(sim, config, Stats())
    for line, version in crashed.items():
        memory.poke(line, version)
        memory.durable_image.record(0, line, version)

    # 1. scan each TC (one CAM read per live entry); active entries
    #    are discarded.
    tcs = scheme.accelerator.tcs
    scanned = sum(len(tc.live_entries()) for tc in tcs)
    discarded = sum(len(tc.active_entries()) for tc in tcs)
    tc_latency = config.txcache.latency_cycles(config.freq_ghz)

    # 2. issue the replay plan's writes in plan order.
    target = _TimedImage(
        crashed, sim, memory, start=scanned * tc_latency,
        read_cycles=config.nvm.timing.read_cycles(config.freq_ghz,
                                                  row_hit=False),
        is_fallback=scheme.overflow.is_fallback)
    replay(target, scheme.tc_replay_plan(crash_cycle), scheme.commit_cycle)

    # 3. drain.
    sim.run()
    image = {
        line: version
        for line, version in memory.durable_image.final_state().items()
        if is_home_line(line)
    }
    return RecoveryResult(
        cycles=max(sim.now, target.now),
        entries_scanned=scanned,
        entries_replayed=target.replayed,
        entries_discarded=discarded,
        fallback_lines_copied=target.copied,
        image=image,
    )
