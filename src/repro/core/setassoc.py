"""Set-associative transaction buffer — the organization the CAM FIFO
is *better than*.

Paper §4.1: "the TC is not susceptible to cache associativity
overflows as prior studies do [23]".  Prior hardware schemes track
in-flight transactional lines in set-associative structures indexed by
address; a transaction whose lines collide in one set overflows that
set even when the structure is nearly empty.  The fully-associative
CAM FIFO admits any line as long as *total* capacity remains.

This module implements the set-associative alternative behind the same
interface as :class:`~repro.core.txcache.TransactionCache`, so the
accelerator (and therefore the whole TXCACHE scheme) can run with
either organization — the
``benchmarks/test_ablation_tc_organization.py`` bench shows
set-conflicting transactions forcing stalls/fall-backs under the
set-associative buffer while the CAM FIFO sails through.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..common.config import TxCacheConfig
from ..common.stats import ScopedStats
from ..common.types import CACHE_LINE_SIZE, Version, line_addr
from ..obs.tracer import NULL_TRACER, NullTracer
from .txcache import TxEntry, TxState


class SetAssocTransactionBuffer:
    """Address-indexed, set-associative transaction buffer.

    Entries are freed in place on acknowledgment (no tail sweep), but a
    write can be rejected with most of the buffer empty — the
    associativity overflow the paper's design avoids.
    """

    def __init__(self, config: TxCacheConfig, stats: ScopedStats,
                 seq_source: Optional[Callable[[], int]] = None,
                 tracer: NullTracer = NULL_TRACER, track: str = "tc",
                 clock: Optional[Callable[[], int]] = None) -> None:
        self.config = config
        self.stats = stats
        # same observability surface as TransactionCache (the sampler
        # probes __len__; per-event emission stays on the CAM FIFO)
        self.tracer = tracer
        self._track = track
        self._clock = clock or (lambda: 0)
        self.capacity = config.num_entries
        self.assoc = config.assoc
        self.num_sets = self.capacity // config.assoc
        self._sets: List[List[TxEntry]] = [[] for _ in range(self.num_sets)]
        self._seq_source = seq_source
        self._local_seq = 0
        self.set_conflict_rejections = 0

    # ------------------------------------------------------------------
    def _set_index(self, tag: int) -> int:
        return (tag // CACHE_LINE_SIZE) % self.num_sets

    def _next_seq(self) -> int:
        if self._seq_source is not None:
            return self._seq_source()
        self._local_seq += 1
        return self._local_seq

    def _all_entries(self) -> List[TxEntry]:
        out = [entry for bucket in self._sets for entry in bucket]
        out.sort(key=lambda entry: entry.seq)
        return out

    # ------------------------------------------------------------------
    # the TransactionCache interface
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def __len__(self) -> int:
        return self.occupancy

    def is_full(self) -> bool:
        return self.occupancy >= self.capacity

    def above_threshold(self) -> bool:
        return self.occupancy >= self.config.overflow_threshold * self.capacity

    def live_entries(self) -> List[TxEntry]:
        return self._all_entries()

    def count_active(self, tx_id: int) -> int:
        return sum(1 for entry in self._all_entries()
                   if entry.tx_id == tx_id and entry.state is TxState.ACTIVE)

    def write(self, tx_id: int, addr: int, version: Optional[Version]) -> bool:
        tag = line_addr(addr)
        bucket = self._sets[self._set_index(tag)]
        if self.config.coalesce_writes:
            for entry in bucket:
                if (entry.tx_id == tx_id and entry.tag == tag
                        and entry.state is TxState.ACTIVE):
                    entry.version = version
                    self.stats.inc("write.coalesced")
                    return True
        if len(bucket) >= self.assoc:
            # the associativity overflow: this *set* is full
            self.set_conflict_rejections += 1
            self.stats.inc("write.rejected_set_conflict")
            return False
        bucket.append(TxEntry(seq=self._next_seq(), tx_id=tx_id,
                              tag=tag, version=version))
        self.stats.inc("write.inserted")
        return True

    def commit(self, tx_id: int) -> List[TxEntry]:
        committed = []
        for entry in self._all_entries():
            if entry.tx_id == tx_id and entry.state is TxState.ACTIVE:
                entry.state = TxState.COMMITTED
                committed.append(entry)
        self.stats.inc("commit.requests")
        self.stats.inc("commit.entries", len(committed))
        return committed

    def take_issuable(self, limit: Optional[int] = None) -> List[TxEntry]:
        """Committed entries in global insertion (program) order,
        stopping at the first active entry — the same ordering contract
        as the FIFO, enforced here by seq-sorting."""
        out = []
        for entry in self._all_entries():
            if limit is not None and len(out) >= limit:
                break
            if entry.state is TxState.ACTIVE:
                break
            if entry.state is TxState.COMMITTED and not entry.issued:
                entry.issued = True
                out.append(entry)
        self.stats.inc("issue.entries", len(out))
        return out

    def ack(self, addr: int, seq: Optional[int] = None) -> Optional[TxEntry]:
        tag = line_addr(addr)
        bucket = self._sets[self._set_index(tag)]
        candidates = [entry for entry in bucket
                      if entry.tag == tag and entry.issued
                      and entry.state is TxState.COMMITTED
                      and (seq is None or entry.seq == seq)]
        if not candidates:
            self.stats.warn(
                "ack.unmatched",
                f"unmatched/duplicate NVM ack for line {tag:#x}"
                + (f" seq {seq}" if seq is not None else "")
                + " — no entry freed (idempotent drop)")
            return None
        oldest = min(candidates, key=lambda entry: entry.seq)
        bucket.remove(oldest)  # freed in place — no tail sweep needed
        self.stats.inc("ack.matched")
        return oldest

    def probe(self, addr: int) -> Optional[TxEntry]:
        tag = line_addr(addr)
        bucket = self._sets[self._set_index(tag)]
        candidates = [entry for entry in bucket if entry.tag == tag]
        if not candidates:
            self.stats.inc("probe.miss")
            return None
        self.stats.inc("probe.hit")
        return max(candidates, key=lambda entry: entry.seq)

    def drop_transaction(self, tx_id: int) -> List[TxEntry]:
        dropped = []
        for bucket in self._sets:
            keep = []
            for entry in bucket:
                if entry.tx_id == tx_id and entry.state is TxState.ACTIVE:
                    dropped.append(entry)
                else:
                    keep.append(entry)
            bucket[:] = keep
        dropped.sort(key=lambda entry: entry.seq)
        self.stats.inc("overflow.dropped_entries", len(dropped))
        return dropped

    def committed_unacked(self) -> List[TxEntry]:
        return [entry for entry in self._all_entries()
                if entry.state is TxState.COMMITTED]

    def active_entries(self) -> List[TxEntry]:
        return [entry for entry in self._all_entries()
                if entry.state is TxState.ACTIVE]
