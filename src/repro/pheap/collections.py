"""Persistent collections over a :class:`~repro.pheap.arena.PersistentArena`.

NV-heaps-style data types: fully functional Python containers whose
every persistent access is simultaneously recorded into the arena's
trace with a realistic memory layout.  Mutations must happen inside
``with arena.transaction():`` — the arena enforces it, exactly as the
paper's software interface requires.

Layouts (all fields 64-bit):

* :class:`PersistentDict` — bucket array of chain heads; chain nodes
  ``key | value | next``.
* :class:`PersistentList` — header ``length | capacity | data_ptr``
  plus a data array; appending past capacity reallocates and copies
  (every copied element is a real load + store in the trace).
* :class:`PersistentCounter` — one 64-bit cell.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from .arena import WORD, PersistentArena

# chain node layout
_NODE_KEY = 0
_NODE_VALUE = 8
_NODE_NEXT = 16
_NODE_SIZE = 24


def _stable_hash(key: object) -> int:
    """``hash(key)``, except that ``str`` and ``bytes`` keys hash
    through ``hashlib``: Python salts their built-in hash per process,
    which would give a string-keyed program a different bucket layout,
    and so a different trace, in every interpreter.  Int keys keep
    ``hash(int)``; keys of other types (a tuple holding a string, say)
    are still salted."""
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, bytes):
        digest = hashlib.blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little")
    return hash(key)


@dataclass
class _ChainNode:
    addr: int
    key: object
    value: object
    next: Optional["_ChainNode"] = None


class PersistentDict:
    """A persistent chained hash map."""

    def __init__(self, arena: PersistentArena, buckets: int = 64) -> None:
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.arena = arena
        self.num_buckets = buckets
        with self._implicit_setup_tx():
            self._buckets_base = arena.p_malloc(buckets * WORD)
            for index in range(buckets):
                arena.write_word(self._buckets_base + index * WORD)
        self._chains: List[Optional[_ChainNode]] = [None] * buckets
        self._len = 0

    def _implicit_setup_tx(self):
        # construction initializes persistent memory: needs a tx unless
        # the caller already opened one
        if self.arena.in_transaction:
            import contextlib
            return contextlib.nullcontext()
        return self.arena.transaction()

    def _bucket_of(self, key: object) -> int:
        self.arena.compute(3)  # hash
        return _stable_hash(key) % self.num_buckets

    def _bucket_addr(self, index: int) -> int:
        return self._buckets_base + index * WORD

    # ------------------------------------------------------------------
    def __setitem__(self, key: object, value: object) -> None:
        bucket = self._bucket_of(key)
        self.arena.read_word(self._bucket_addr(bucket))
        node = self._chains[bucket]
        while node is not None:
            self.arena.read_word(node.addr + _NODE_KEY)
            self.arena.compute(1)
            if node.key == key:
                node.value = value
                self.arena.write_word(node.addr + _NODE_VALUE)
                return
            self.arena.read_word(node.addr + _NODE_NEXT)
            node = node.next
        fresh = _ChainNode(addr=self.arena.p_malloc(_NODE_SIZE),
                           key=key, value=value,
                           next=self._chains[bucket])
        self.arena.write_word(fresh.addr + _NODE_KEY)
        self.arena.write_word(fresh.addr + _NODE_VALUE)
        self.arena.write_word(fresh.addr + _NODE_NEXT)
        self.arena.write_word(self._bucket_addr(bucket))  # publish
        self._chains[bucket] = fresh
        self._len += 1

    def __getitem__(self, key: object) -> object:
        bucket = self._bucket_of(key)
        self.arena.read_word(self._bucket_addr(bucket))
        node = self._chains[bucket]
        while node is not None:
            self.arena.read_word(node.addr + _NODE_KEY)
            self.arena.compute(1)
            if node.key == key:
                self.arena.read_word(node.addr + _NODE_VALUE)
                return node.value
            self.arena.read_word(node.addr + _NODE_NEXT)
            node = node.next
        raise KeyError(key)

    def get(self, key: object, default: object = None) -> object:
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: object) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __delitem__(self, key: object) -> None:
        bucket = self._bucket_of(key)
        self.arena.read_word(self._bucket_addr(bucket))
        previous = None
        node = self._chains[bucket]
        while node is not None:
            self.arena.read_word(node.addr + _NODE_KEY)
            self.arena.compute(1)
            if node.key == key:
                if previous is None:
                    self._chains[bucket] = node.next
                    self.arena.write_word(self._bucket_addr(bucket))
                else:
                    previous.next = node.next
                    self.arena.write_word(previous.addr + _NODE_NEXT)
                self._len -= 1
                return
            self.arena.read_word(node.addr + _NODE_NEXT)
            previous, node = node, node.next
        raise KeyError(key)

    def __len__(self) -> int:
        return self._len

    def keys(self) -> Iterator[object]:
        for chain in self._chains:
            node = chain
            while node is not None:
                yield node.key
                node = node.next


_MISSING = object()


# list header layout
_HDR_LENGTH = 0
_HDR_CAPACITY = 8
_HDR_DATA = 16
_HDR_SIZE = 24


class PersistentList:
    """A persistent growable array (vector)."""

    def __init__(self, arena: PersistentArena, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.arena = arena
        with PersistentDict._implicit_setup_tx(self):  # same guard
            self._header = arena.p_malloc(_HDR_SIZE)
            self._data = arena.p_malloc(capacity * WORD)
            arena.write_word(self._header + _HDR_LENGTH)
            arena.write_word(self._header + _HDR_CAPACITY)
            arena.write_word(self._header + _HDR_DATA)
        self._capacity = capacity
        self._items: List[object] = []

    def _slot(self, index: int) -> int:
        return self._data + index * WORD

    def append(self, value: object) -> None:
        self.arena.read_word(self._header + _HDR_LENGTH)
        self.arena.read_word(self._header + _HDR_CAPACITY)
        self.arena.compute(1)
        if len(self._items) >= self._capacity:
            self._grow()
        self.arena.write_word(self._slot(len(self._items)))  # the element
        self.arena.write_word(self._header + _HDR_LENGTH)    # then publish
        self._items.append(value)

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        new_data = self.arena.p_malloc(new_capacity * WORD)
        for index in range(len(self._items)):   # real copy traffic
            self.arena.read_word(self._slot(index))
            self.arena.write_word(new_data + index * WORD)
        self._data = new_data
        self._capacity = new_capacity
        self.arena.write_word(self._header + _HDR_DATA)
        self.arena.write_word(self._header + _HDR_CAPACITY)

    def __getitem__(self, index: int) -> object:
        if not -len(self._items) <= index < len(self._items):
            raise IndexError(index)
        index %= len(self._items)
        self.arena.read_word(self._header + _HDR_LENGTH)
        self.arena.read_word(self._slot(index))
        return self._items[index]

    def __setitem__(self, index: int, value: object) -> None:
        if not -len(self._items) <= index < len(self._items):
            raise IndexError(index)
        index %= len(self._items)
        self.arena.write_word(self._slot(index))
        self._items[index] = value

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[object]:
        for index in range(len(self._items)):
            yield self[index]


class PersistentCounter:
    """A single persistent 64-bit counter."""

    def __init__(self, arena: PersistentArena) -> None:
        self.arena = arena
        with PersistentDict._implicit_setup_tx(self):
            self._addr = arena.p_malloc(WORD)
            arena.write_word(self._addr)
        self._value = 0

    def increment(self, amount: int = 1) -> int:
        self.arena.read_word(self._addr)
        self.arena.compute(1)
        self.arena.write_word(self._addr)
        self._value += amount
        return self._value

    @property
    def value(self) -> int:
        self.arena.read_word(self._addr)
        return self._value
