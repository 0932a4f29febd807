"""Functional + trace tests for the workload generators."""

import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import repro.workloads
from repro.common.types import NVM_BASE, is_persistent_addr
from repro.cpu.trace import OpType
from repro.pheap import TransactionError
from repro.pheap.heap import OutOfMemory, PersistentHeap, VolatileHeap
from repro.workloads import (
    PAPER_WORKLOADS,
    WORD,
    WORKLOADS,
    BTreeWorkload,
    GraphWorkload,
    HashtableWorkload,
    RbTreeWorkload,
    SpsWorkload,
    Workload,
    create_workload,
    workload_table,
)


class TestHeaps:
    def test_persistent_heap_addresses_are_persistent(self):
        heap = PersistentHeap(core_id=0)
        addr = heap.alloc(64)
        assert is_persistent_addr(addr)

    def test_volatile_heap_addresses_are_volatile(self):
        heap = VolatileHeap(core_id=0)
        assert not is_persistent_addr(heap.alloc(64))

    def test_alignment(self):
        heap = PersistentHeap()
        heap.alloc(3)
        addr = heap.alloc(8)
        assert addr % 8 == 0

    def test_cores_get_disjoint_regions(self):
        a = PersistentHeap(core_id=0)
        b = PersistentHeap(core_id=1)
        assert not a.contains(b.alloc(64))

    def test_out_of_memory(self):
        heap = PersistentHeap(capacity=128)
        heap.alloc(100)
        with pytest.raises(OutOfMemory):
            heap.alloc(100)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            PersistentHeap().alloc(0)


class TestRegistry:
    def test_paper_workloads_registered(self):
        for name in PAPER_WORKLOADS:
            assert name in WORKLOADS

    def test_create_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            create_workload("nope")

    def test_table_holds_every_exported_workload_under_its_name(self):
        members = [getattr(repro.workloads, name)
                   for name in repro.workloads.__all__]
        exported = [cls for cls in members
                    if inspect.isclass(cls) and issubclass(cls, Workload)
                    and not inspect.isabstract(cls)]
        assert len(exported) == len(WORKLOADS)
        assert set(exported) == set(WORKLOADS.values())
        for name, cls in WORKLOADS.items():
            assert cls.name == name
        assert set(PAPER_WORKLOADS) < set(WORKLOADS)

    @pytest.mark.parametrize("module", ["repro.pheap",
                                        "repro.workloads.hashtable"])
    def test_imports_in_a_fresh_interpreter(self, module):
        """Guards the workloads -> pheap import direction: either side
        imported first must load without a cycle."""
        src = pathlib.Path(repro.workloads.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                       check=True, capture_output=True)

    def test_table3_descriptions(self):
        table = workload_table()
        assert table["graph"] == "Insert in an adjacency list graph."
        assert table["sps"] == "Randomly swap elements in an array."
        assert "B+tree" in table["btree"]


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
class TestAllWorkloadTraces:
    def test_trace_is_valid_and_transactional(self, name):
        workload = create_workload(name, seed=1)
        trace = workload.generate(50)
        trace.validate()
        assert trace.transactions > 0
        assert trace.persistent_stores > 0

    def test_deterministic_given_seed(self, name):
        t1 = create_workload(name, seed=3).generate(30)
        t2 = create_workload(name, seed=3).generate(30)
        assert t1.ops == t2.ops

    def test_different_seeds_differ(self, name):
        t1 = create_workload(name, seed=3).generate(30)
        t2 = create_workload(name, seed=4).generate(30)
        assert t1.ops != t2.ops

    def test_all_persistent_stores_inside_transactions(self, name):
        trace = create_workload(name, seed=1).generate(30)
        open_tx = False
        for op in trace.ops:
            if op.op is OpType.TX_BEGIN:
                open_tx = True
            elif op.op is OpType.TX_END:
                open_tx = False
            elif op.op is OpType.STORE and op.persistent:
                assert open_tx, f"{name}: persistent store outside tx"


class TestSps:
    def test_swaps_mirror_values(self):
        workload = SpsWorkload(seed=7, array_elements=64)
        workload.generate(100)
        assert sorted(workload.values) == list(range(64))

    def test_write_intensity_is_highest(self):
        sps = SpsWorkload(seed=1, array_elements=128).generate(100)
        graph = GraphWorkload(seed=1, vertices=128).generate(100)
        sps_ratio = sps.persistent_stores / sps.instructions
        graph_ratio = graph.persistent_stores / graph.instructions
        assert sps_ratio > graph_ratio


class TestGraph:
    def test_adjacency_mirrors_inserts(self):
        workload = GraphWorkload(seed=5, vertices=16)
        workload.generate(200)
        assert sum(workload.degree(v) for v in range(16)) == 200


class TestHashtable:
    def test_search_finds_inserted_values(self):
        table = HashtableWorkload(seed=2, buckets=32)
        table.setup()
        table.insert(10, 1010)
        table.insert(42, 4242)
        assert table.search(10) == 1010
        assert table.search(42) == 4242
        assert table.search(999) is None

    def test_chaining_collisions(self):
        table = HashtableWorkload(seed=2, buckets=1)
        table.setup()
        for key in range(20):
            table.insert(key, key * 2)
        for key in range(20):
            assert table.search(key) == key * 2

    def test_oracle_tracks_contents(self):
        table = HashtableWorkload(seed=9, buckets=64)
        table.setup()
        for index in range(200):
            table.run_operation(index)
        for key, value in list(table.contents.items())[:20]:
            assert table.search(key) == value

    def test_search_after_generate_is_refused(self):
        table = HashtableWorkload(seed=9, buckets=64)
        trace = table.generate(50)
        ops = list(trace.ops)
        with pytest.raises(TransactionError, match="finalized"):
            table.search(0)
        assert trace.ops == ops


class TestRbTree:
    def test_invariants_hold_after_many_inserts(self):
        tree = RbTreeWorkload(seed=3, initial_keys=0)
        for key in range(500):
            tree.insert(key * 37 % 1000, key)
        tree.check_invariants()

    def test_sorted_order(self):
        tree = RbTreeWorkload(seed=3, initial_keys=0)
        keys = [k * 131 % 997 for k in range(300)]
        for key in keys:
            tree.insert(key, key)
        assert tree.sorted_keys() == sorted(set(keys))

    def test_search(self):
        tree = RbTreeWorkload(seed=3, initial_keys=0)
        tree.insert(5, 50)
        tree.insert(1, 10)
        tree.insert(9, 90)
        assert tree.search(1) == 10
        assert tree.search(9) == 90
        assert tree.search(7) is None

    def test_update_existing_key(self):
        tree = RbTreeWorkload(seed=3, initial_keys=0)
        tree.insert(5, 50)
        tree.insert(5, 55)
        assert tree.search(5) == 55
        assert tree.sorted_keys() == [5]

    def test_generate_keeps_invariants(self):
        tree = RbTreeWorkload(seed=11, initial_keys=64)
        tree.generate(100)
        tree.check_invariants()


class TestBTree:
    def test_invariants_hold_after_many_inserts(self):
        tree = BTreeWorkload(seed=3, initial_keys=0)
        for key in range(500):
            tree.insert(key * 37 % 1000, key)
        tree.check_invariants()

    def test_sorted_leaf_chain(self):
        tree = BTreeWorkload(seed=3, initial_keys=0)
        keys = [k * 131 % 997 for k in range(300)]
        for key in keys:
            tree.insert(key, key)
        assert tree.sorted_keys() == sorted(set(keys))

    def test_search(self):
        tree = BTreeWorkload(seed=3, initial_keys=0)
        for key in range(100):
            tree.insert(key, key * 3)
        for key in range(100):
            assert tree.search(key) == key * 3
        assert tree.search(1000) is None

    def test_update_existing_key(self):
        tree = BTreeWorkload(seed=3, initial_keys=0)
        tree.insert(7, 70)
        tree.insert(7, 77)
        assert tree.search(7) == 77

    def test_root_splits_increase_depth(self):
        tree = BTreeWorkload(seed=3, initial_keys=0)
        for key in range(200):
            tree.insert(key, key)
        assert not tree.root.leaf
        tree.check_invariants()

    def test_generate_keeps_invariants(self):
        tree = BTreeWorkload(seed=11, initial_keys=64)
        tree.generate(100)
        tree.check_invariants()


class TestSynthetic:
    def test_store_count_matches_configuration(self):
        from repro.workloads import SyntheticWorkload
        workload = SyntheticWorkload(seed=1, footprint_lines=64,
                                     stores_per_tx=5, loads_per_tx=2)
        trace = workload.generate(10)
        # setup writes 64 lines + 10 tx x 5 stores
        assert trace.persistent_stores == 64 + 50


class _CounterWorkload(Workload):
    """One persistent word, bumped per operation; ``transactional``
    chooses whether the bump sits inside a transaction."""

    name = "counter"
    interop_compute = 0

    def __init__(self, core_id=0, seed=42, transactional=True):
        super().__init__(core_id=core_id, seed=seed)
        self.transactional = transactional
        self.cell = self.arena.p_malloc(WORD)

    def setup(self):
        pass

    def run_operation(self, index):
        if self.transactional:
            with self.arena.transaction():
                self.arena.write_word(self.cell)
        else:
            self.arena.write_word(self.cell)


class TestArenaRecording:
    def test_persistent_store_outside_transaction_raises(self):
        with pytest.raises(TransactionError, match="outside a transaction"):
            _CounterWorkload(transactional=False).generate(1)

    def test_volatile_scratch_stores_outside_transactions_pass(self):
        trace = _CounterWorkload().generate(20)
        scratch_stores = [op for op in trace.ops
                          if op.op is OpType.STORE and op.tx_id is None]
        assert scratch_stores
        assert not any(is_persistent_addr(op.addr) for op in scratch_stores)
        assert trace.persistent_stores == 20
