"""graph — adjacency-list edge insertion (paper Table 3).

A vertex table of head pointers plus linked edge nodes, the classic
structure whose dangling-pointer failure mode motivates persistent
memory ordering (paper §1): the new edge node's fields must be durable
before the head pointer that makes it reachable.
"""

from __future__ import annotations

from typing import Dict, List

from ..pheap.arena import WORD
from .base import Workload

#: edge node layout: dest (8 B) | next (8 B)
EDGE_DEST = 0
EDGE_NEXT = 8
EDGE_SIZE = 16

SETUP_BATCH = 16


class GraphWorkload(Workload):
    name = "graph"
    description = "Insert in an adjacency list graph."

    def __init__(self, core_id: int = 0, seed: int = 42,
                 vertices: int = 1024) -> None:
        super().__init__(core_id=core_id, seed=seed)
        self.vertices = vertices
        self.heads_base = self.arena.p_malloc(vertices * WORD)
        #: functional mirror: adjacency lists, newest edge first
        self.adjacency: Dict[int, List[int]] = {v: [] for v in range(vertices)}

    def _head_addr(self, vertex: int) -> int:
        return self.heads_base + vertex * WORD

    def setup(self) -> None:
        for start in range(0, self.vertices, SETUP_BATCH):
            with self.arena.transaction():
                for vertex in range(start,
                                    min(start + SETUP_BATCH, self.vertices)):
                    # head = null
                    self.arena.write_word(self._head_addr(vertex))

    def run_operation(self, index: int) -> None:
        src = self.rng.randrange(self.vertices)
        dst = self.rng.randrange(self.vertices)
        with self.arena.transaction():
            self.arena.compute(8)  # vertex selection + p_malloc
            self.arena.read_word(self._head_addr(src))   # old head
            node = self.arena.p_malloc(EDGE_SIZE)
            self.arena.write_word(node + EDGE_DEST)      # node value first...
            self.arena.write_word(node + EDGE_NEXT)      # ...then its link...
            self.arena.write_word(self._head_addr(src))  # ...then publish
        self.adjacency[src].insert(0, dst)

    def degree(self, vertex: int) -> int:
        return len(self.adjacency[vertex])
