"""The nonvolatile transaction cache (TC) — the paper's key component.

A content-addressable FIFO (CAM FIFO, §4.1): write requests from the
CPU are inserted at the head, committed entries are issued toward the
NVM from the tail in FIFO (= program) order, and entries are freed only
by the NVM controller's acknowledgment messages.

Each entry carries ``{TxID, State, Tag, Data}`` with
``State ∈ {available, active, committed}``:

* **write request** (CPU, in transaction mode): if the head entry is
  available, fill it and advance the head; otherwise the TC is full and
  the CPU stalls.
* **commit request** (CPU, at ``TX_END``): CAM-match on TxID; every
  active entry of the transaction becomes committed.  Committed
  entries are issued to the NVM in FIFO order.
* **acknowledgment** (NVM controller): CAM-match on the address; the
  matched entry *nearest the tail* becomes available (it was issued
  first), then the tail sweeps forward over available entries to make
  room — acks can complete out of order across banks.
* **miss request** (LLC): CAM-match on the address; the matched entry
  *nearest the head* is returned (it is the newest version, since
  insertion is in program order).

The implementation represents the ring as a deque in insertion order;
entries freed out of order stay in place as *available holes* until the
tail sweeps past them, exactly like the hardware head/tail pointers —
so capacity behaviour (and therefore CPU stall behaviour) matches the
paper's structure, not an idealized free list.

The CAM matches themselves are answered from lookup indexes kept in
step with the ring rather than by walking it: ``(tx_id, tag)`` for
write coalescing, ``tx_id`` for commit and drop, ``seq`` for acks and
``tag`` for probes.  Every state change of an entry goes through a
method of this class, and each one updates the indexes it affects;
:meth:`TransactionCache.check_invariants` cross-checks them against
the ring.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..common.config import MachineConfig, TxCacheConfig
from ..common.stats import ScopedStats
from ..common.types import CACHE_LINE_SIZE, Version, line_addr
from ..obs.tracer import NULL_TRACER, NullTracer


class TxState(enum.Enum):
    AVAILABLE = "available"
    ACTIVE = "active"
    COMMITTED = "committed"


class TxEntry:
    """One TC line: tag + data (version) + transaction bookkeeping.

    ``__slots__`` rather than a dataclass: the accelerator reads entry
    fields on every issue, ack and probe."""

    __slots__ = ("seq", "tx_id", "tag", "version", "state", "issued",
                 "issue_cycle", "reissues")

    def __init__(self, seq: int, tx_id: int, tag: int,
                 version: Optional[Version],
                 state: TxState = TxState.ACTIVE,
                 issued: bool = False, issue_cycle: int = -1,
                 reissues: int = 0) -> None:
        self.seq = seq                # global insertion order (head counter)
        self.tx_id = tx_id
        self.tag = tag                # cache-line address
        self.version = version
        self.state = state
        self.issued = issued          # write sent toward the NVM
        self.issue_cycle = issue_cycle  # cycle of the newest issue/reissue
        self.reissues = reissues      # ack-timeout reissues of this entry

    def __repr__(self) -> str:
        return (f"TxEntry(seq={self.seq}, tx_id={self.tx_id}, "
                f"tag={self.tag:#x}, state={self.state.name}, "
                f"issued={self.issued})")


class TransactionCache:
    """CAM-FIFO data array of one core's transaction cache."""

    def __init__(self, config: TxCacheConfig, stats: ScopedStats,
                 seq_source: Optional[Callable[[], int]] = None,
                 tracer: NullTracer = NULL_TRACER, track: str = "tc",
                 clock: Optional[Callable[[], int]] = None) -> None:
        self.config = config
        self.stats = stats
        # per-request counters are cells; the per-commit ones, which
        # may add 0 (and so create a 0 counter), stay registry calls
        self._counts = stats.cells("write.coalesced", "write.inserted",
                                   "ack.matched", "probe.hit", "probe.miss")
        self.capacity = config.num_entries
        self._ring: Deque[TxEntry] = deque()
        self._head_seq = 0  # total insertions (head pointer position)
        self._tail_seq = 0  # total reclamations (tail pointer position)
        #: entry ordering clock; shareable across TCs so cross-core
        #: probes can pick the globally newest entry
        self._seq_source = seq_source
        # CAM match indexes over the ring's live entries.
        #: (tx_id, tag) → the ACTIVE entry (coalescing only: a second
        #: insert of the pair only happens after the first left ACTIVE)
        self._active_idx: Dict[Tuple[int, int], TxEntry] = {}
        #: tx_id → ACTIVE entries, ring (program) order
        self._active_by_tx: Dict[int, List[TxEntry]] = {}
        #: seq → live entry (sequence numbers are unique)
        self._by_seq: Dict[int, TxEntry] = {}
        #: tag → live entries, ring order (newest last)
        self._by_tag: Dict[int, List[TxEntry]] = {}
        # observability: the TC is passive (no simulator reference), so
        # the accelerator hands it a cycle-clock for event timestamps
        self.tracer = tracer
        self._track = track
        self._clock = clock or (lambda: 0)

    def _trace_occupancy(self) -> None:
        self.tracer.counter("tc", self._track, "occupancy", self._clock(),
                            entries=len(self._ring))

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    @property
    def occupancy(self) -> int:
        """Slots between tail and head — holes count (hardware FIFO)."""
        return len(self._ring)

    def is_full(self) -> bool:
        return len(self._ring) >= self.capacity

    def above_threshold(self) -> bool:
        """True when the overflow fall-back should trigger (§4.1:
        'once the TC is almost filled, e.g., 90% full')."""
        return len(self._ring) >= self.config.overflow_threshold * self.capacity

    def live_entries(self) -> List[TxEntry]:
        """Non-available entries, oldest first."""
        return [e for e in self._ring if e.state is not TxState.AVAILABLE]

    def count_active(self, tx_id: int) -> int:
        """Active entries belonging to one transaction."""
        return len(self._active_by_tx.get(tx_id, ()))

    # ------------------------------------------------------------------
    # the four request types (§4.1)
    # ------------------------------------------------------------------
    def write(self, tx_id: int, addr: int, version: Optional[Version]) -> bool:
        """CPU write request: insert at head.  False when full.

        When ``coalesce_writes`` is set (default), a write whose
        transaction already has an *active* entry for the same line
        updates that entry in place — a 64-bit store into an already
        buffered 64 B line costs no new entry.  Ordering across
        transactions is unaffected (active entries are not yet in the
        issue stream)."""
        tag = line_addr(addr)
        coalesce = self.config.coalesce_writes
        if coalesce:
            entry = self._active_idx.get((tx_id, tag))
            if entry is not None:
                entry.version = version
                self._counts.write_coalesced += 1
                return True
        if self.is_full():
            self.stats.inc("write.rejected_full")
            if self.tracer.enabled:
                self.tracer.instant("tc", self._track, "write.rejected",
                                    self._clock(), tx=tx_id)
            return False
        seq = self._seq_source() if self._seq_source else self._head_seq
        entry = TxEntry(seq=seq, tx_id=tx_id, tag=tag, version=version)
        self._ring.append(entry)
        self._head_seq += 1
        if coalesce:
            self._active_idx[(tx_id, tag)] = entry
        self._active_by_tx.setdefault(tx_id, []).append(entry)
        self._by_seq[seq] = entry
        self._by_tag.setdefault(tag, []).append(entry)
        self._counts.write_inserted += 1
        if self.tracer.enabled:
            self._trace_occupancy()
        return True

    def commit(self, tx_id: int) -> List[TxEntry]:
        """CPU commit request: CAM-match TxID, active → committed.

        Returns the newly committed entries (oldest first)."""
        committed = self._active_by_tx.pop(tx_id, [])
        active_idx = self._active_idx
        for entry in committed:
            entry.state = TxState.COMMITTED
            active_idx.pop((tx_id, entry.tag), None)
        self.stats.inc("commit.requests")
        self.stats.inc("commit.entries", len(committed))
        if self.tracer.enabled:
            self.tracer.instant("tc", self._track, "commit",
                                self._clock(), tx=tx_id,
                                entries=len(committed))
        return committed

    def take_issuable(self, limit: Optional[int] = None) -> List[TxEntry]:
        """Committed-and-unissued entries, in FIFO order, stopping at
        the first active entry (writes must reach the NVM in program
        order; an active entry belongs to a younger transaction).
        ``limit`` caps how many are taken (issue pacing)."""
        out = []
        for entry in self._ring:
            if limit is not None and len(out) >= limit:
                break
            if entry.state is TxState.AVAILABLE:
                continue
            if entry.state is TxState.ACTIVE:
                break
            if not entry.issued:
                entry.issued = True
                out.append(entry)
        self.stats.inc("issue.entries", len(out))
        return out

    def ack(self, addr: int, seq: Optional[int] = None) -> Optional[TxEntry]:
        """NVM acknowledgment: free the matching issued entry nearest
        the tail, then sweep the tail over available holes.

        When ``seq`` is given the ack must name that exact entry — the
        sequence number travels with the write request, making acks
        **idempotent**: a duplicated or stale ack (its entry already
        freed) matches nothing and frees nothing.  Without ``seq`` the
        classic nearest-tail tag match applies; the two are equivalent
        in fault-free operation because the controller completes
        same-line writes in order."""
        tag = line_addr(addr)
        entry: Optional[TxEntry] = None
        if seq is not None:
            candidate = self._by_seq.get(seq)
            if (candidate is not None and candidate.tag == tag
                    and candidate.issued
                    and candidate.state is TxState.COMMITTED):
                entry = candidate
        else:
            for candidate in self._by_tag.get(tag, ()):  # oldest first
                if candidate.issued and candidate.state is TxState.COMMITTED:
                    entry = candidate
                    break
        if entry is not None:
            self._free(entry)
            self._counts.ack_matched += 1
            self._sweep_tail()
            if self.tracer.enabled:
                self._trace_occupancy()
            return entry
        self.stats.warn(
            "ack.unmatched",
            f"unmatched/duplicate NVM ack for line {tag:#x}"
            + (f" seq {seq}" if seq is not None else "")
            + " — no entry freed (idempotent drop)")
        return None

    def probe(self, addr: int) -> Optional[TxEntry]:
        """LLC miss request: newest (nearest-head) live entry for the
        line, or None."""
        entries = self._by_tag.get(line_addr(addr))
        if entries:
            self._counts.probe_hit += 1
            return entries[-1]
        self._counts.probe_miss += 1
        return None

    # ------------------------------------------------------------------
    # overflow fall-back support
    # ------------------------------------------------------------------
    def drop_transaction(self, tx_id: int) -> List[TxEntry]:
        """Free every entry of a (still-active) transaction — used when
        the overflow fall-back rewrites the transaction as a
        hardware-controlled copy-on-write (§4.1).  Returns the dropped
        entries in FIFO order."""
        dropped = self._active_by_tx.pop(tx_id, [])
        active_idx = self._active_idx
        for entry in dropped:
            self._free(entry)
            active_idx.pop((tx_id, entry.tag), None)
        self._sweep_tail()
        self.stats.inc("overflow.dropped_entries", len(dropped))
        if self.tracer.enabled and dropped:
            self.tracer.instant("tc", self._track, "overflow.drop",
                                self._clock(), tx=tx_id, entries=len(dropped))
            self._trace_occupancy()
        return dropped

    # ------------------------------------------------------------------
    def _free(self, entry: TxEntry) -> None:
        """Mark ``entry`` available and drop it from the live indexes
        (the ring keeps it as a hole until the tail sweeps past)."""
        entry.state = TxState.AVAILABLE
        del self._by_seq[entry.seq]
        entries = self._by_tag[entry.tag]
        entries.remove(entry)  # identity match (TxEntry has no __eq__)
        if not entries:
            del self._by_tag[entry.tag]

    def _sweep_tail(self) -> None:
        while self._ring and self._ring[0].state is TxState.AVAILABLE:
            self._ring.popleft()
            self._tail_seq += 1

    @property
    def head_seq(self) -> int:
        return self._head_seq

    @property
    def tail_seq(self) -> int:
        return self._tail_seq

    def check_invariants(self) -> None:
        """Structural head/tail invariants and index↔ring agreement;
        raises AssertionError on corruption (used by fault-injection
        tests to prove duplicate acks and reissues leave the FIFO
        sound)."""
        assert self._tail_seq <= self._head_seq, (
            f"tail_seq {self._tail_seq} ran past head_seq {self._head_seq}")
        assert len(self._ring) <= self.capacity, (
            f"occupancy {len(self._ring)} exceeds capacity {self.capacity}")
        assert self._head_seq - self._tail_seq == len(self._ring), (
            "head/tail pointers disagree with ring occupancy: "
            f"{self._head_seq} - {self._tail_seq} != {len(self._ring)}")
        live = self.live_entries()
        assert self._by_seq == {e.seq: e for e in live}, (
            "seq index disagrees with the ring's live entries")
        by_tag: Dict[int, List[TxEntry]] = {}
        by_tx: Dict[int, List[TxEntry]] = {}
        for e in live:
            by_tag.setdefault(e.tag, []).append(e)
            if e.state is TxState.ACTIVE:
                by_tx.setdefault(e.tx_id, []).append(e)
        assert self._by_tag == by_tag, (
            "tag index disagrees with the ring's live entries")
        assert self._active_by_tx == by_tx, (
            "transaction index disagrees with the ring's active entries")
        if self.config.coalesce_writes:
            assert self._active_idx == {
                (e.tx_id, e.tag): e for entries in by_tx.values()
                for e in entries}, (
                "coalescing index disagrees with the ring's active entries")

    # ------------------------------------------------------------------
    # recovery view
    # ------------------------------------------------------------------
    def committed_unacked(self) -> List[TxEntry]:
        """Entries that survived a crash and must be replayed: the TC
        array is nonvolatile, so committed entries whose ack had not
        arrived are recovered in FIFO order (§3, Multiversioning)."""
        return [e for e in self._ring if e.state is TxState.COMMITTED]

    def active_entries(self) -> List[TxEntry]:
        """Uncommitted entries — discarded by recovery."""
        return [e for e in self._ring if e.state is TxState.ACTIVE]


def hardware_overhead(config: MachineConfig) -> Dict[str, Dict[str, str]]:
    """Reproduce the paper's Table 1 (hardware overhead summary).

    With a 4 KB TC and 64 B lines there are at most 64 in-flight
    transactions per core (one line per transaction), so the TxID
    fields need log2(64) = 6 bits; the per-line state and P/V flags
    are 1 bit each.
    """
    entries = config.txcache.num_entries
    txid_bits = max(1, math.ceil(math.log2(max(2, entries))))
    line_bits = CACHE_LINE_SIZE * 8
    return {
        "CPU TxID/Mode register": {
            "type": "flip-flops", "size": f"{txid_bits} bits"},
        "CPU Next TxID register": {
            "type": "flip-flops", "size": f"{txid_bits} bits"},
        "Cache P/V flag": {
            "type": "SRAM", "size": "1 bit"},
        "TxID in TC data array": {
            "type": "STTRAM", "size": f"{txid_bits} bits"},
        "State in TC data array": {
            "type": "STTRAM", "size": "1 bit"},
        "TC head/tail pointer": {
            "type": "flip-flops",
            "size": f"{max(1, math.ceil(math.log2(max(2, entries))))} bits each"},
        "TC data array": {
            "type": "STTRAM",
            "size": (f"{config.txcache.size_bytes // 1024} KB/core "
                     f"({entries} lines x {line_bits} bits)")},
    }


def overhead_summary_bits(config: MachineConfig) -> Dict[str, int]:
    """Numeric totals behind Table 1's prose (§4.4)."""
    entries = config.txcache.num_entries
    txid_bits = max(1, math.ceil(math.log2(max(2, entries))))
    return {
        "txid_bits": txid_bits,
        "per_tc_line_extra_bits": txid_bits + 1,        # TxID + state
        "per_cache_line_extra_bits": 1,                 # P/V flag
        "tc_total_bytes_per_core": config.txcache.size_bytes,
        "tc_total_bytes_machine": config.txcache.size_bytes * config.num_cores,
    }
