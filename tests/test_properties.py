"""Property-based tests (hypothesis) on core structures and invariants."""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.level import CacheLevel
from repro.common.config import CacheLevelConfig, TxCacheConfig
from repro.common.stats import Stats
from repro.common.types import CACHE_LINE_SIZE, NVM_BASE, Version, line_addr
from repro.core.txcache import TransactionCache, TxState
from repro.cpu.trace import Trace, TraceOp
from repro.pheap.heap import BumpHeap

lines = st.integers(min_value=0, max_value=15).map(
    lambda i: NVM_BASE + i * CACHE_LINE_SIZE)


# ---------------------------------------------------------------------------
# CAM-FIFO transaction cache
# ---------------------------------------------------------------------------
@st.composite
def tc_scripts(draw):
    """A random interleaving of TC operations as (op, arg) pairs."""
    ops = []
    tx = 1
    open_stores = 0
    for _ in range(draw(st.integers(2, 40))):
        kind = draw(st.sampled_from(["write", "write", "commit", "drain"]))
        if kind == "write":
            ops.append(("write", tx, draw(lines)))
            open_stores += 1
        elif kind == "commit" and open_stores:
            ops.append(("commit", tx, None))
            tx += 1
            open_stores = 0
        elif kind == "drain":
            ops.append(("drain", None, None))
    ops.append(("commit", tx, None))
    ops.append(("drain", None, None))
    return ops


def drain_all(tc):
    """Issue + ack everything issuable until no committed entries remain."""
    progressed = True
    while progressed:
        progressed = False
        for entry in tc.take_issuable():
            progressed = True
        for entry in list(tc.committed_unacked()):
            if entry.issued:
                tc.ack(entry.tag)
                progressed = True


class TestTransactionCacheProperties:
    @given(tc_scripts())
    @settings(max_examples=80, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, script):
        tc = TransactionCache(TxCacheConfig(size_bytes=8 * 64),
                              Stats().scoped("tc"))
        seq = 0
        for op, tx, line in script:
            if op == "write":
                tc.write(tx, line, Version(tx, seq))
                seq += 1
            elif op == "commit":
                tc.commit(tx)
            else:
                drain_all(tc)
            assert 0 <= tc.occupancy <= tc.capacity

    @given(tc_scripts())
    @settings(max_examples=80, deadline=None)
    def test_probe_returns_newest_live_version(self, script):
        tc = TransactionCache(TxCacheConfig(size_bytes=64 * 64),
                              Stats().scoped("tc"))
        newest = {}
        seq = 0
        for op, tx, line in script:
            if op == "write":
                version = Version(tx, seq)
                seq += 1
                if tc.write(tx, line, version):
                    newest[line] = version
            elif op == "commit":
                tc.commit(tx)
            else:
                drain_all(tc)
                newest.clear()
        for line, version in newest.items():
            entry = tc.probe(line)
            assert entry is not None and entry.version == version

    @given(tc_scripts())
    @settings(max_examples=80, deadline=None)
    def test_full_drain_empties_the_fifo(self, script):
        tc = TransactionCache(TxCacheConfig(size_bytes=64 * 64),
                              Stats().scoped("tc"))
        seq = 0
        for op, tx, line in script:
            if op == "write":
                tc.write(tx, line, Version(tx, seq))
                seq += 1
            elif op == "commit":
                tc.commit(tx)
        # commit everything then drain: only active entries of the last
        # (never-committed) tx may survive — the script commits last.
        drain_all(tc)
        assert tc.committed_unacked() == []

    @given(st.lists(lines, min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_issue_order_matches_insertion_order(self, addrs):
        tc = TransactionCache(TxCacheConfig(size_bytes=64 * 64,
                                            coalesce_writes=False),
                              Stats().scoped("tc"))
        for seq, addr in enumerate(addrs):
            assert tc.write(1, addr, Version(1, seq))
        tc.commit(1)
        issued = tc.take_issuable()
        assert [e.version.seq for e in issued] == sorted(
            e.version.seq for e in issued)
        assert [e.tag for e in issued] == [line_addr(a) for a in addrs]


# ---------------------------------------------------------------------------
# cache array
# ---------------------------------------------------------------------------
def _tiny_level():
    """A 4-set, 2-way cache level."""
    return CacheLevel(CacheLevelConfig("t", 4 * 2 * 64, 2, 1.0),
                      Stats().scoped("t"), 1.0)


def _access_or_fill(level, line):
    """A timed lookup, filling the line on a miss as the hierarchy does."""
    if level.access(line) is None:
        level.array.fill(line, False, False, False, None, None)


class TestCacheArrayProperties:
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_resident_count_bounded_by_capacity(self, accesses):
        level = _tiny_level()
        for index in accesses:
            _access_or_fill(level, index * 64)
        assert sum(level.probe(index * 64) is not None
                   for index in set(accesses)) <= 4 * 2

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_most_recent_insert_always_resident(self, accesses):
        level = _tiny_level()
        for index in accesses:
            _access_or_fill(level, index * 64)
            assert level.probe(index * 64) is not None


# ---------------------------------------------------------------------------
# heap allocator
# ---------------------------------------------------------------------------
class TestHeapProperties:
    @given(st.lists(st.integers(1, 400), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_allocations_are_disjoint_and_aligned(self, sizes):
        heap = BumpHeap(base=1 << 20, capacity=1 << 20)
        spans = []
        for size in sizes:
            addr = heap.alloc(size)
            assert addr % 8 == 0
            for other_addr, other_size in spans:
                assert addr >= other_addr + other_size or \
                    addr + size <= other_addr
            spans.append((addr, size))


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------
op_strategy = st.builds(
    TraceOp,
    op=st.sampled_from(list(__import__(
        "repro.cpu.trace", fromlist=["OpType"]).OpType)),
    addr=st.integers(0, NVM_BASE + (1 << 20)),
    count=st.integers(1, 100),
    tx_id=st.one_of(st.none(), st.integers(1, 1000)),
    version=st.one_of(st.none(), st.builds(Version,
                                           tx_id=st.integers(1, 100),
                                           seq=st.integers(-1, 1000))),
)


class TestTraceSerializationProperties:
    @given(st.lists(op_strategy, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_preserves_ops(self, ops):
        trace = Trace("prop", ops)
        buffer = io.StringIO()
        trace.dump(buffer)
        buffer.seek(0)
        assert Trace.load(buffer).ops == ops
