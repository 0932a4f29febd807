"""Unit tests for the CAM-FIFO transaction cache (paper §4.1)."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import TxCacheConfig, paper_machine_config
from repro.common.stats import Stats
from repro.common.types import NVM_BASE, Version, line_addr
from repro.core.txcache import (
    TransactionCache,
    TxEntry,
    TxState,
    hardware_overhead,
    overhead_summary_bits,
)


def make_tc(entries=8, threshold=0.9):
    config = TxCacheConfig(size_bytes=entries * 64,
                           overflow_threshold=threshold)
    return TransactionCache(config, Stats().scoped("tc"))


def line(i):
    return NVM_BASE + i * 64


class TestWriteInsert:
    def test_insert_until_full(self):
        tc = make_tc(entries=4)
        for i in range(4):
            assert tc.write(1, line(i), Version(1, i))
        assert tc.is_full()
        assert not tc.write(1, line(9), Version(1, 9))

    def test_entries_enter_active_state(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        (entry,) = tc.live_entries()
        assert entry.state is TxState.ACTIVE
        assert entry.tx_id == 1
        assert entry.tag == line(0)

    def test_head_seq_tracks_insertions(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc.write(1, line(1), Version(1, 1))
        assert tc.head_seq == 2
        assert tc.tail_seq == 0


class TestCommitAndIssue:
    def test_commit_matches_txid(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc.write(2, line(1), Version(2, 0))
        committed = tc.commit(1)
        assert len(committed) == 1
        assert committed[0].tag == line(0)
        states = [e.state for e in tc.live_entries()]
        assert states == [TxState.COMMITTED, TxState.ACTIVE]

    def test_issue_in_fifo_order(self):
        tc = make_tc()
        for i in range(3):
            tc.write(1, line(i), Version(1, i))
        tc.commit(1)
        issued = tc.take_issuable()
        assert [e.tag for e in issued] == [line(0), line(1), line(2)]

    def test_issue_stops_at_active_entry(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc.commit(1)
        tc.write(2, line(1), Version(2, 0))
        # a later commit of tx 2 while tx 1 unissued: FIFO order holds
        issued = tc.take_issuable()
        assert [e.tag for e in issued] == [line(0)]

    def test_issue_is_idempotent(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc.commit(1)
        assert len(tc.take_issuable()) == 1
        assert tc.take_issuable() == []


class TestAck:
    def test_ack_frees_nearest_tail_match(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc.commit(1)
        tc.write(2, line(0), Version(2, 0))  # same line, younger tx
        tc.commit(2)
        tc.take_issuable()
        freed = tc.ack(line(0))
        assert freed.version == Version(1, 0)  # oldest copy freed first
        assert len(tc.live_entries()) == 1

    def test_same_tx_same_line_write_coalesces(self):
        tc = make_tc()
        assert tc.write(1, line(0), Version(1, 0))
        assert tc.write(1, line(0), Version(1, 3))
        assert tc.occupancy == 1
        assert tc.probe(line(0)).version == Version(1, 3)

    def test_coalescing_can_be_disabled(self):
        from repro.common.config import TxCacheConfig
        from repro.common.stats import Stats
        config = TxCacheConfig(size_bytes=8 * 64, coalesce_writes=False)
        tc = TransactionCache(config, Stats().scoped("tc"))
        tc.write(1, line(0), Version(1, 0))
        tc.write(1, line(0), Version(1, 1))
        assert tc.occupancy == 2

    def test_ack_requires_issued_entry(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc.commit(1)
        # not yet issued: ack must not match
        assert tc.ack(line(0)) is None

    def test_tail_sweeps_over_out_of_order_acks(self):
        tc = make_tc(entries=4)
        for i in range(3):
            tc.write(1, line(i), Version(1, i))
        tc.commit(1)
        tc.take_issuable()
        # acks arrive out of order: middle first
        tc.ack(line(1))
        assert tc.occupancy == 3  # hole: tail cannot move yet
        tc.ack(line(0))
        assert tc.occupancy == 1  # tail swept over entries 0 and 1
        tc.ack(line(2))
        assert tc.occupancy == 0
        assert tc.tail_seq == 3

    def test_freed_space_usable_after_sweep(self):
        tc = make_tc(entries=2)
        tc.write(1, line(0), Version(1, 0))
        tc.write(1, line(1), Version(1, 1))
        assert tc.is_full()
        tc.commit(1)
        tc.take_issuable()
        tc.ack(line(0))
        assert not tc.is_full()
        assert tc.write(2, line(2), Version(2, 0))


class TestProbe:
    def test_probe_returns_newest_version(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc.write(1, line(0), Version(1, 5))
        entry = tc.probe(line(0))
        assert entry.version == Version(1, 5)

    def test_probe_miss_returns_none(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        assert tc.probe(line(3)) is None

    def test_probe_ignores_available_holes(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc.commit(1)
        tc.take_issuable()
        tc.ack(line(0))
        assert tc.probe(line(0)) is None


class TestOverflow:
    def test_threshold_detection(self):
        tc = make_tc(entries=10, threshold=0.9)
        for i in range(8):
            tc.write(1, line(i), Version(1, i))
        assert not tc.above_threshold()
        tc.write(1, line(8), Version(1, 8))
        assert tc.above_threshold()

    def test_drop_transaction_frees_active_entries(self):
        tc = make_tc(entries=4)
        tc.write(1, line(0), Version(1, 0))
        tc.commit(1)
        tc.write(2, line(1), Version(2, 0))
        tc.write(2, line(2), Version(2, 1))
        dropped = tc.drop_transaction(2)
        assert [e.tag for e in dropped] == [line(1), line(2)]
        assert len(tc.live_entries()) == 1  # tx 1's committed entry remains


class TestRecoveryView:
    def test_committed_unacked_listed_in_fifo_order(self):
        tc = make_tc()
        for i in range(3):
            tc.write(1, line(i), Version(1, i))
        tc.commit(1)
        tc.take_issuable()
        tc.ack(line(0))
        remaining = tc.committed_unacked()
        assert [e.tag for e in remaining] == [line(1), line(2)]

    def test_active_entries_distinct_from_committed(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc.commit(1)
        tc.write(2, line(1), Version(2, 0))
        assert [e.tx_id for e in tc.committed_unacked()] == [1]
        assert [e.tx_id for e in tc.active_entries()] == [2]


class TestDuplicateAndUnmatchedAcks:
    """The ack path must be idempotent: the interconnect may drop,
    delay or duplicate acks, and the accelerator reissues on timeout —
    so the same (line, seq) ack can legally arrive twice."""

    def issued_entry(self, tc):
        tc.write(1, line(0), Version(1, 0))
        tc.commit(1)
        (entry,) = tc.take_issuable()
        return entry

    def test_duplicate_ack_never_frees_a_second_entry(self):
        tc = make_tc()
        entry = self.issued_entry(tc)
        assert tc.ack(line(0), seq=entry.seq) is entry
        assert tc.occupancy == 0
        # the duplicate: nothing to free, idempotent drop
        assert tc.ack(line(0), seq=entry.seq) is None
        assert tc.occupancy == 0
        tc.check_invariants()

    def test_duplicate_ack_cannot_free_a_younger_reuse_of_the_line(self):
        tc = make_tc()
        first = self.issued_entry(tc)
        tc.ack(line(0), seq=first.seq)
        # the line is reused by a younger transaction, not yet issued
        tc.write(2, line(0), Version(2, 0))
        tc.commit(2)
        # a stale duplicate of tx 1's ack arrives: seq does not match
        assert tc.ack(line(0), seq=first.seq) is None
        assert tc.occupancy == 1
        tc.check_invariants()

    def test_seqless_ack_keeps_legacy_nearest_tail_match(self):
        tc = make_tc()
        entry = self.issued_entry(tc)
        assert tc.ack(line(0)) is entry

    def test_unmatched_ack_surfaces_warning_event(self):
        tc = make_tc()
        entry = self.issued_entry(tc)
        tc.ack(line(0), seq=entry.seq)
        tc.ack(line(0), seq=entry.seq)  # duplicate
        assert tc.stats.counter("ack.unmatched") == 1
        events = tc.stats.events("ack.unmatched")
        assert len(events) == 1
        assert "idempotent drop" in events[0]

    def test_invariants_hold_under_ack_storm(self):
        tc = make_tc(entries=4)
        for i in range(3):
            tc.write(1, line(i), Version(1, i))
        tc.commit(1)
        issued = tc.take_issuable()
        # deliver every ack three times, out of order
        for _ in range(3):
            for entry in reversed(issued):
                tc.ack(entry.tag, seq=entry.seq)
                tc.check_invariants()
                assert tc.tail_seq <= tc.head_seq
                assert tc.occupancy <= tc.capacity
        assert tc.occupancy == 0
        assert tc.stats.counter("ack.unmatched") == 6

    def test_check_invariants_catches_corruption(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc._head_seq = -5  # corrupt: head behind tail
        with pytest.raises(AssertionError):
            tc.check_invariants()


class RingScanModel:
    """The CAM FIFO with every match a literal ring scan (paper §4.1):
    the reference the indexed :class:`TransactionCache` must equal."""

    def __init__(self, capacity, coalesce, next_seq):
        self.capacity, self.coalesce, self.next_seq = capacity, coalesce, next_seq
        self.ring, self.head, self.tail, self.stats = [], 0, 0, Counter()

    def _live(self, tx=None, tag=None, state=None):
        return [e for e in self.ring if e.state is not TxState.AVAILABLE
                and tx in (None, e.tx_id) and tag in (None, e.tag)
                and state in (None, e.state)]

    def _free(self, entries, stat):
        for e in entries:
            e.state = TxState.AVAILABLE
        self.stats[stat] += len(entries)
        while self.ring and self.ring[0].state is TxState.AVAILABLE:
            self.ring.pop(0)
            self.tail += 1
        return entries

    def write(self, tx, addr, version):
        mine = self._live(tx, line_addr(addr), TxState.ACTIVE)
        if self.coalesce and mine:
            mine[-1].version = version
            self.stats["write.coalesced"] += 1
            return True
        if len(self.ring) >= self.capacity:
            self.stats["write.rejected_full"] += 1
            return False
        seq = self.next_seq() if self.next_seq else self.head
        self.ring.append(TxEntry(seq, tx, line_addr(addr), version))
        self.head += 1
        self.stats["write.inserted"] += 1
        return True

    def commit(self, tx):
        committed = self._live(tx, state=TxState.ACTIVE)
        for e in committed:
            e.state = TxState.COMMITTED
        self.stats["commit.requests"] += 1
        self.stats["commit.entries"] += len(committed)
        return committed

    def take_issuable(self, limit=None):
        out = []
        for e in self._live():
            if e.state is TxState.ACTIVE or len(out) == limit:
                break
            if not e.issued:
                e.issued = True
                out.append(e)
        self.stats["issue.entries"] += len(out)
        return out

    def ack(self, addr, seq=None):
        for e in self._live(tag=line_addr(addr), state=TxState.COMMITTED):
            if e.issued and seq in (None, e.seq):
                return self._free([e], "ack.matched")[0]
        self.stats["ack.unmatched"] += 1
        return None

    def probe(self, addr):
        hits = self._live(tag=line_addr(addr))
        self.stats["probe.hit" if hits else "probe.miss"] += 1
        return hits[-1] if hits else None

    def drop_transaction(self, tx):
        return self._free(self._live(tx, state=TxState.ACTIVE),
                          "overflow.dropped_entries")


_LINES = st.integers(min_value=0, max_value=3)
# writes go to the current transaction or (interleaved) the next one;
# commit and drop end the current transaction
_WRITE = st.tuples(st.just("write"), _LINES, st.booleans())
_END = st.tuples(st.sampled_from(["commit", "commit", "drop"]))
_TAKE = st.tuples(st.just("take"), st.one_of(st.none(), st.integers(1, 3)))
# an ack naming a live issued entry (optionally with a wrong line), a
# re-sent earlier ack, an arbitrary (line, seq) pair, a seqless ack
_ACK = st.one_of(
    st.tuples(st.just("ack_issued"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("ack_again"), st.integers(0, 7)),
    st.tuples(st.just("ack_seq"), _LINES, st.integers(0, 12)),
    st.tuples(st.just("ack_line"), _LINES),
)
_TC_OPS = st.lists(st.one_of(
    _WRITE, _WRITE, _END, _TAKE, _ACK, st.tuples(st.just("probe"), _LINES),
), min_size=10, max_size=60)


def _view(entry):
    if entry is None:
        return None
    return (entry.seq, entry.tx_id, entry.tag, entry.version,
            entry.state, entry.issued)


def _views(entries):
    return [_view(e) for e in entries]


class TestIndexedMatchesRingScan:
    """Random op sequences: every return value, stat and structural
    view of the indexed TC equals the ring-scan model's, and the
    indexes agree with the ring after every op."""

    @settings(max_examples=300, deadline=None)
    @given(ops=_TC_OPS, entries=st.integers(1, 6),
           coalesce=st.booleans(), shared_seq=st.booleans())
    def test_random_ops_match_model(self, ops, entries, coalesce,
                                    shared_seq):
        stats = Stats()
        config = TxCacheConfig(size_bytes=entries * 64,
                               coalesce_writes=coalesce)
        seqs = (itertools.count(1).__next__, itertools.count(1).__next__)
        tc = TransactionCache(config, stats.scoped("tc"),
                              seq_source=seqs[0] if shared_seq else None)
        model = RingScanModel(tc.capacity, coalesce,
                              seqs[1] if shared_seq else None)
        acked = []  # (line, seq) of every ack sent, for duplicates
        versions = itertools.count()
        tx = 1  # the current transaction
        for op in ops:
            kind = op[0]
            if kind == "write":
                writer = tx + op[2]
                version = Version(writer, next(versions))
                got = tc.write(writer, line(op[1]), version)
                want = model.write(writer, line(op[1]), version)
            elif kind == "commit":
                got, want = _views(tc.commit(tx)), _views(model.commit(tx))
                tx += 1
            elif kind == "drop":
                got = _views(tc.drop_transaction(tx))
                want = _views(model.drop_transaction(tx))
                tx += 1
            elif kind == "take":
                got = _views(tc.take_issuable(op[1]))
                want = _views(model.take_issuable(op[1]))
            elif kind == "probe":
                got = _view(tc.probe(line(op[1])))
                want = _view(model.probe(line(op[1])))
            elif kind == "ack_line":
                got = _view(tc.ack(line(op[1])))
                want = _view(model.ack(line(op[1])))
            else:
                if kind == "ack_issued":  # optionally naming a wrong line
                    issued = [e for e in model._live() if e.issued]
                    entry = issued[op[1] % len(issued)] if issued else None
                    target = ((entry.tag + 64 * op[2], entry.seq) if entry
                              else (line(0), 0))
                elif kind == "ack_again":
                    target = (acked[op[1] % len(acked)] if acked
                              else (line(0), 0))
                else:
                    target = (line(op[1]), op[2])
                acked.append(target)
                got = _view(tc.ack(*target))
                want = _view(model.ack(*target))
            assert got == want, op
            tc.check_invariants()
            assert _views(tc._ring) == _views(model.ring)
            assert (tc.head_seq, tc.tail_seq) == (model.head, model.tail)
            assert stats.counters() == {f"tc.{k}": v
                                        for k, v in model.stats.items()}
            for writer in (tx, tx + 1):
                assert tc.count_active(writer) == \
                    len(model._live(writer, state=TxState.ACTIVE))

    def test_check_invariants_catches_stale_index(self):
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc.commit(1)
        (entry,) = tc.take_issuable()
        entry.state = TxState.AVAILABLE  # freed behind the indexes' back
        with pytest.raises(AssertionError, match="index"):
            tc.check_invariants()

    @staticmethod
    def _populated():
        """Tx 1 committed and issued, tx 2 still active: every index
        holds entries."""
        tc = make_tc()
        tc.write(1, line(0), Version(1, 0))
        tc.write(1, line(1), Version(1, 1))
        tc.commit(1)
        tc.take_issuable()
        tc.write(2, line(1), Version(2, 0))
        tc.check_invariants()
        return tc

    @pytest.mark.parametrize("corrupt,index", [
        (lambda tc: tc._by_seq.popitem(), "seq index"),
        (lambda tc: tc._by_tag[line(1)].reverse(), "tag index"),
        (lambda tc: tc._active_by_tx.pop(2), "transaction index"),
        (lambda tc: tc._active_idx.clear(), "coalescing index"),
    ], ids=["seq", "tag", "transaction", "coalescing"])
    def test_check_invariants_names_each_corrupted_index(self, corrupt,
                                                         index):
        tc = self._populated()
        corrupt(tc)
        with pytest.raises(AssertionError, match=index):
            tc.check_invariants()


class TestHardwareOverhead:
    def test_table1_txid_bits(self):
        config = paper_machine_config()
        rows = hardware_overhead(config)
        assert rows["CPU TxID/Mode register"]["size"] == "6 bits"
        assert rows["State in TC data array"]["size"] == "1 bit"
        assert "4 KB/core" in rows["TC data array"]["size"]

    def test_summary_bits(self):
        bits = overhead_summary_bits(paper_machine_config())
        assert bits["txid_bits"] == 6
        assert bits["per_tc_line_extra_bits"] == 7   # paper §4.4
        assert bits["per_cache_line_extra_bits"] == 1
        assert bits["tc_total_bytes_machine"] == 16 * 1024  # 4 x 4 KB
