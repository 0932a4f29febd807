"""hashtable — key-value search/insert with chaining (paper Table 3)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..pheap.arena import WORD
from .base import Workload

#: chain node layout: key (8 B) | value (8 B) | next (8 B)
NODE_KEY = 0
NODE_VALUE = 8
NODE_NEXT = 16
NODE_SIZE = 24

SETUP_BATCH = 16


@dataclass
class _Node:
    addr: int
    key: int
    value: int
    next: Optional["_Node"] = None


class HashtableWorkload(Workload):
    name = "hashtable"
    description = "Search/Insert a key-value pair in a hashtable."

    def __init__(self, core_id: int = 0, seed: int = 42,
                 buckets: int = 1024, insert_ratio: float = 0.5) -> None:
        super().__init__(core_id=core_id, seed=seed)
        self.num_buckets = buckets
        self.insert_ratio = insert_ratio
        self.buckets_base = self.arena.p_malloc(buckets * WORD)
        self.chains: List[Optional[_Node]] = [None] * buckets
        self.contents: Dict[int, int] = {}
        self._next_key = 0

    def _bucket_addr(self, bucket: int) -> int:
        return self.buckets_base + bucket * WORD

    def _hash(self, key: int) -> int:
        self.arena.compute(3)  # multiplicative hash
        return (key * 2654435761) % self.num_buckets

    def setup(self) -> None:
        for start in range(0, self.num_buckets, SETUP_BATCH):
            with self.arena.transaction():
                for bucket in range(start,
                                    min(start + SETUP_BATCH, self.num_buckets)):
                    # empty chain
                    self.arena.write_word(self._bucket_addr(bucket))

    # -- operations ----------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        with self.arena.transaction():
            bucket = self._hash(key)
            self.arena.read_word(self._bucket_addr(bucket))
            node = _Node(addr=self.arena.p_malloc(NODE_SIZE), key=key,
                         value=value, next=self.chains[bucket])
            self.arena.write_word(node.addr + NODE_KEY)
            self.arena.write_word(node.addr + NODE_VALUE)
            self.arena.write_word(node.addr + NODE_NEXT)
            self.arena.write_word(self._bucket_addr(bucket))  # publish
        self.chains[bucket] = node
        self.contents[key] = value

    def search(self, key: int) -> Optional[int]:
        with self.arena.transaction():
            bucket = self._hash(key)
            self.arena.read_word(self._bucket_addr(bucket))
            node = self.chains[bucket]
            found = None
            while node is not None:
                self.arena.read_word(node.addr + NODE_KEY)
                self.arena.compute(1)  # compare
                if node.key == key:
                    self.arena.read_word(node.addr + NODE_VALUE)
                    found = node.value
                    break
                self.arena.read_word(node.addr + NODE_NEXT)
                node = node.next
        return found

    def run_operation(self, index: int) -> None:
        if self.rng.random() < self.insert_ratio or not self.contents:
            key = self._next_key
            self._next_key += 1
            self.insert(key, value=key * 17 + 1)
        else:
            # search an existing key (hit) or a missing one (chain walk)
            if self.rng.random() < 0.8:
                key = self.rng.randrange(self._next_key)
            else:
                key = self._next_key + self.rng.randrange(1000)
            self.search(key)
