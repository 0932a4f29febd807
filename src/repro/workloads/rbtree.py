"""rbtree — search/insert in a red-black tree (paper Table 3).

A complete CLRS-style red-black tree with parent pointers, recoloring
and rotations; every field access goes through the instrumentation
facade, so an insert transaction contains the real mix of pointer-chase
loads and fix-up stores.  The Python-side structure is fully
functional, letting tests check ordering and the red-black invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .base import Workload

# node layout: key | value | left | right | parent | color  (8 B each)
OFF_KEY = 0
OFF_VALUE = 8
OFF_LEFT = 16
OFF_RIGHT = 24
OFF_PARENT = 32
OFF_COLOR = 40
NODE_SIZE = 48

RED = True
BLACK = False


@dataclass
class _Node:
    addr: int
    key: int
    value: int
    color: bool = RED
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    parent: Optional["_Node"] = None


class RbTreeWorkload(Workload):
    name = "rbtree"
    description = "Search/Insert nodes in a red-black tree."

    def __init__(self, core_id: int = 0, seed: int = 42,
                 initial_keys: int = 256, insert_ratio: float = 0.5) -> None:
        super().__init__(core_id=core_id, seed=seed)
        self.initial_keys = initial_keys
        self.insert_ratio = insert_ratio
        self.root: Optional[_Node] = None
        self.keys: Dict[int, int] = {}
        self._next_key = 0

    # -- instrumented field access --------------------------------------
    def _rd(self, node: _Node, offset: int) -> None:
        self.arena.read_word(node.addr + offset)

    def _wr(self, node: _Node, offset: int) -> None:
        self.arena.write_word(node.addr + offset)

    # -- rotations (CLRS) ------------------------------------------------
    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        self._rd(x, OFF_RIGHT)
        x.right = y.left
        self._rd(y, OFF_LEFT)
        self._wr(x, OFF_RIGHT)
        if y.left is not None:
            y.left.parent = x
            self._wr(y.left, OFF_PARENT)
        y.parent = x.parent
        self._wr(y, OFF_PARENT)
        if x.parent is None:
            self.root = y
        elif x is x.parent.left:
            x.parent.left = y
            self._wr(x.parent, OFF_LEFT)
        else:
            x.parent.right = y
            self._wr(x.parent, OFF_RIGHT)
        y.left = x
        self._wr(y, OFF_LEFT)
        x.parent = y
        self._wr(x, OFF_PARENT)

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        self._rd(x, OFF_LEFT)
        x.left = y.right
        self._rd(y, OFF_RIGHT)
        self._wr(x, OFF_LEFT)
        if y.right is not None:
            y.right.parent = x
            self._wr(y.right, OFF_PARENT)
        y.parent = x.parent
        self._wr(y, OFF_PARENT)
        if x.parent is None:
            self.root = y
        elif x is x.parent.right:
            x.parent.right = y
            self._wr(x.parent, OFF_RIGHT)
        else:
            x.parent.left = y
            self._wr(x.parent, OFF_LEFT)
        y.right = x
        self._wr(y, OFF_RIGHT)
        x.parent = y
        self._wr(x, OFF_PARENT)

    # -- insert ------------------------------------------------------------
    def _insert_node(self, key: int, value: int) -> None:
        parent = None
        node = self.root
        while node is not None:
            parent = node
            self._rd(node, OFF_KEY)
            self.arena.compute(1)  # compare
            if key < node.key:
                self._rd(node, OFF_LEFT)
                node = node.left
            elif key > node.key:
                self._rd(node, OFF_RIGHT)
                node = node.right
            else:
                node.value = value
                self._wr(node, OFF_VALUE)
                return
        fresh = _Node(addr=self.arena.p_malloc(NODE_SIZE), key=key,
                      value=value, parent=parent)
        self._wr(fresh, OFF_KEY)
        self._wr(fresh, OFF_VALUE)
        self._wr(fresh, OFF_LEFT)
        self._wr(fresh, OFF_RIGHT)
        self._wr(fresh, OFF_PARENT)
        self._wr(fresh, OFF_COLOR)
        if parent is None:
            self.root = fresh
        elif key < parent.key:
            parent.left = fresh
            self._wr(parent, OFF_LEFT)
        else:
            parent.right = fresh
            self._wr(parent, OFF_RIGHT)
        self._fixup(fresh)

    def _fixup(self, z: _Node) -> None:
        while z.parent is not None and z.parent.color is RED:
            grandparent = z.parent.parent
            self._rd(z.parent, OFF_COLOR)
            if grandparent is None:
                break
            if z.parent is grandparent.left:
                uncle = grandparent.right
                self._rd(grandparent, OFF_RIGHT)
                if uncle is not None and uncle.color is RED:
                    self._rd(uncle, OFF_COLOR)
                    z.parent.color = BLACK
                    self._wr(z.parent, OFF_COLOR)
                    uncle.color = BLACK
                    self._wr(uncle, OFF_COLOR)
                    grandparent.color = RED
                    self._wr(grandparent, OFF_COLOR)
                    z = grandparent
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    self._wr(z.parent, OFF_COLOR)
                    grandparent.color = RED
                    self._wr(grandparent, OFF_COLOR)
                    self._rotate_right(grandparent)
            else:
                uncle = grandparent.left
                self._rd(grandparent, OFF_LEFT)
                if uncle is not None and uncle.color is RED:
                    self._rd(uncle, OFF_COLOR)
                    z.parent.color = BLACK
                    self._wr(z.parent, OFF_COLOR)
                    uncle.color = BLACK
                    self._wr(uncle, OFF_COLOR)
                    grandparent.color = RED
                    self._wr(grandparent, OFF_COLOR)
                    z = grandparent
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    self._wr(z.parent, OFF_COLOR)
                    grandparent.color = RED
                    self._wr(grandparent, OFF_COLOR)
                    self._rotate_left(grandparent)
        if self.root is not None and self.root.color is RED:
            self.root.color = BLACK
            self._wr(self.root, OFF_COLOR)

    # -- public ops ---------------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        with self.arena.transaction():
            self._insert_node(key, value)
        self.keys[key] = value

    def search(self, key: int) -> Optional[int]:
        result = None
        with self.arena.transaction():
            node = self.root
            while node is not None:
                self._rd(node, OFF_KEY)
                self.arena.compute(1)
                if key < node.key:
                    self._rd(node, OFF_LEFT)
                    node = node.left
                elif key > node.key:
                    self._rd(node, OFF_RIGHT)
                    node = node.right
                else:
                    self._rd(node, OFF_VALUE)
                    result = node.value
                    break
        return result

    # -- workload driver ------------------------------------------------------
    def setup(self) -> None:
        for _ in range(self.initial_keys):
            self._insert_random()
            self.interop_work()

    def _insert_random(self) -> None:
        key = self._next_key * 2654435761 % (1 << 31)
        self._next_key += 1
        self.insert(key, value=key ^ 0xFF)

    def run_operation(self, index: int) -> None:
        if self.rng.random() < self.insert_ratio or not self.keys:
            self._insert_random()
        else:
            candidates = list(self.keys)
            key = candidates[self.rng.randrange(len(candidates))]
            self.search(key)

    # -- invariants for tests --------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if red-black properties are violated."""
        assert self.root is None or self.root.color is BLACK, "root must be black"
        self._check(self.root)

    def _check(self, node: Optional[_Node]) -> int:
        if node is None:
            return 1  # nil leaves are black
        if node.color is RED:
            assert node.left is None or node.left.color is BLACK, \
                f"red node {node.key} has red left child"
            assert node.right is None or node.right.color is BLACK, \
                f"red node {node.key} has red right child"
        if node.left is not None:
            assert node.left.key < node.key, "BST order violated"
            assert node.left.parent is node, "parent link broken"
        if node.right is not None:
            assert node.right.key > node.key, "BST order violated"
            assert node.right.parent is node, "parent link broken"
        left_black = self._check(node.left)
        right_black = self._check(node.right)
        assert left_black == right_black, \
            f"black-height mismatch at {node.key}"
        return left_black + (0 if node.color is RED else 1)

    def sorted_keys(self) -> List[int]:
        out: List[int] = []

        def walk(node: Optional[_Node]) -> None:
            if node is None:
                return
            walk(node.left)
            out.append(node.key)
            walk(node.right)

        walk(self.root)
        return out
