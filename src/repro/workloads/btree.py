"""btree — search/insert in a B+ tree (paper Table 3).

A real order-M B+ tree: internal nodes route by separator keys, leaves
hold the 64-bit key/value pairs and are chained for range scans.
Inserts shift slots and split nodes; every slot touched is an
instrumented load/store, so transaction sizes reflect genuine B+ tree
write amplification (several stores for a shift, ~2-4x on a split).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..pheap.arena import WORD
from .base import Workload

#: maximum keys per node (order); chosen so a split transaction still
#: fits comfortably in a default 64-entry transaction cache
ORDER = 8

# node layout: count (8 B) | keys (ORDER x 8 B) | payload ((ORDER+1) x 8 B)
OFF_COUNT = 0
OFF_KEYS = 8
OFF_PAYLOAD = 8 + ORDER * WORD
NODE_SIZE = OFF_PAYLOAD + (ORDER + 1) * WORD


@dataclass
class _BNode:
    addr: int
    leaf: bool
    keys: List[int] = field(default_factory=list)
    # leaves: values parallel to keys, plus a next-leaf pointer;
    # internals: children has len(keys) + 1 entries
    values: List[int] = field(default_factory=list)
    children: List["_BNode"] = field(default_factory=list)
    next: Optional["_BNode"] = None


class BTreeWorkload(Workload):
    name = "btree"
    description = "Search/Insert nodes in a B+tree."

    def __init__(self, core_id: int = 0, seed: int = 42,
                 initial_keys: int = 256, insert_ratio: float = 0.5) -> None:
        super().__init__(core_id=core_id, seed=seed)
        self.initial_keys = initial_keys
        self.insert_ratio = insert_ratio
        self.root = self._new_node(leaf=True)
        self.contents: dict = {}
        self._next_key = 0

    # -- instrumented helpers -------------------------------------------
    def _new_node(self, leaf: bool) -> _BNode:
        return _BNode(addr=self.arena.p_malloc(NODE_SIZE), leaf=leaf)

    def _rd_count(self, node: _BNode) -> None:
        self.arena.read_word(node.addr + OFF_COUNT)

    def _wr_count(self, node: _BNode) -> None:
        self.arena.write_word(node.addr + OFF_COUNT)

    def _rd_key(self, node: _BNode, slot: int) -> None:
        self.arena.read_word(node.addr + OFF_KEYS + slot * WORD)

    def _wr_key(self, node: _BNode, slot: int) -> None:
        self.arena.write_word(node.addr + OFF_KEYS + slot * WORD)

    def _rd_payload(self, node: _BNode, slot: int) -> None:
        self.arena.read_word(node.addr + OFF_PAYLOAD + slot * WORD)

    def _wr_payload(self, node: _BNode, slot: int) -> None:
        self.arena.write_word(node.addr + OFF_PAYLOAD + slot * WORD)

    # -- search -----------------------------------------------------------
    def _find_slot(self, node: _BNode, key: int) -> int:
        """Linear scan with instrumented key reads; returns the first
        slot whose key is >= key (== len(keys) if none)."""
        self._rd_count(node)
        for slot, existing in enumerate(node.keys):
            self._rd_key(node, slot)
            self.arena.compute(1)
            if key <= existing:
                return slot
        return len(node.keys)

    def _descend(self, key: int) -> Tuple[_BNode, List[Tuple[_BNode, int]]]:
        """Walk to the leaf for ``key``; returns (leaf, path of
        (internal node, child index))."""
        path: List[Tuple[_BNode, int]] = []
        node = self.root
        while not node.leaf:
            slot = self._find_slot(node, key)
            if slot < len(node.keys) and node.keys[slot] == key:
                slot += 1  # equal separators route right
            self._rd_payload(node, slot)
            path.append((node, slot))
            node = node.children[slot]
        return node, path

    def search(self, key: int) -> Optional[int]:
        result = None
        with self.arena.transaction():
            leaf, _path = self._descend(key)
            slot = self._find_slot(leaf, key)
            if slot < len(leaf.keys) and leaf.keys[slot] == key:
                self._rd_payload(leaf, slot)
                result = leaf.values[slot]
        return result

    # -- insert ------------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        with self.arena.transaction():
            leaf, path = self._descend(key)
            slot = self._find_slot(leaf, key)
            if slot < len(leaf.keys) and leaf.keys[slot] == key:
                leaf.values[slot] = value
                self._wr_payload(leaf, slot)
            else:
                self._leaf_insert(leaf, slot, key, value)
                if len(leaf.keys) > ORDER:
                    self._split(leaf, path)
        self.contents[key] = value

    def _leaf_insert(self, leaf: _BNode, slot: int, key: int, value: int) -> None:
        # shift slots right of the insertion point (instrumented stores)
        for moved in range(len(leaf.keys), slot, -1):
            self._wr_key(leaf, moved)
            self._wr_payload(leaf, moved)
        leaf.keys.insert(slot, key)
        leaf.values.insert(slot, value)
        self._wr_key(leaf, slot)
        self._wr_payload(leaf, slot)
        self._wr_count(leaf)

    def _split(self, node: _BNode, path: List[Tuple[_BNode, int]]) -> None:
        half = (len(node.keys) + 1) // 2
        sibling = self._new_node(leaf=node.leaf)
        if node.leaf:
            sibling.keys = node.keys[half:]
            sibling.values = node.values[half:]
            node.keys = node.keys[:half]
            node.values = node.values[:half]
            sibling.next = node.next
            node.next = sibling
            separator = sibling.keys[0]
            for slot in range(len(sibling.keys)):
                self._wr_key(sibling, slot)
                self._wr_payload(sibling, slot)
            self._wr_payload(sibling, ORDER)  # sibling.next
            self._wr_payload(node, ORDER)     # node.next
        else:
            separator = node.keys[half]
            sibling.keys = node.keys[half + 1:]
            sibling.children = node.children[half + 1:]
            node.keys = node.keys[:half]
            node.children = node.children[:half + 1]
            for slot in range(len(sibling.keys)):
                self._wr_key(sibling, slot)
            for slot in range(len(sibling.children)):
                self._wr_payload(sibling, slot)
        self._wr_count(sibling)
        self._wr_count(node)
        self._parent_insert(path, node, sibling, separator)

    def _parent_insert(self, path: List[Tuple[_BNode, int]],
                       left: _BNode, right: _BNode, separator: int) -> None:
        if not path:
            new_root = self._new_node(leaf=False)
            new_root.keys = [separator]
            new_root.children = [left, right]
            self._wr_key(new_root, 0)
            self._wr_payload(new_root, 0)
            self._wr_payload(new_root, 1)
            self._wr_count(new_root)
            self.root = new_root
            return
        parent, slot = path[-1]
        for moved in range(len(parent.keys), slot, -1):
            self._wr_key(parent, moved)
            self._wr_payload(parent, moved + 1)
        parent.keys.insert(slot, separator)
        parent.children.insert(slot + 1, right)
        self._wr_key(parent, slot)
        self._wr_payload(parent, slot + 1)
        self._wr_count(parent)
        if len(parent.keys) > ORDER:
            self._split(parent, path[:-1])

    # -- workload driver ----------------------------------------------------
    def setup(self) -> None:
        for _ in range(self.initial_keys):
            self._insert_random()
            self.interop_work()

    def _insert_random(self) -> None:
        key = self._next_key * 2654435761 % (1 << 31)
        self._next_key += 1
        self.insert(key, value=key ^ 0xABCD)

    def run_operation(self, index: int) -> None:
        if self.rng.random() < self.insert_ratio or not self.contents:
            self._insert_random()
        else:
            candidates = list(self.contents)
            key = candidates[self.rng.randrange(len(candidates))]
            self.search(key)

    # -- invariants for tests --------------------------------------------------
    def check_invariants(self) -> None:
        depths = set()

        def walk(node: _BNode, depth: int, low, high) -> None:
            assert node.keys == sorted(node.keys), "keys unsorted"
            assert len(node.keys) <= ORDER, "node overfull"
            for key in node.keys:
                assert (low is None or key >= low), "separator bound broken"
                assert (high is None or key < high) or node.leaf, \
                    "separator bound broken"
            if node.leaf:
                depths.add(depth)
                assert len(node.values) == len(node.keys)
            else:
                assert len(node.children) == len(node.keys) + 1
                bounds = [low] + node.keys + [high]
                for index, child in enumerate(node.children):
                    walk(child, depth + 1, bounds[index], bounds[index + 1])

        walk(self.root, 0, None, None)
        assert len(depths) == 1, "leaves at different depths"

    def sorted_keys(self) -> List[int]:
        node = self.root
        while not node.leaf:
            node = node.children[0]
        out: List[int] = []
        while node is not None:
            out.extend(node.keys)
            node = node.next
        return out
