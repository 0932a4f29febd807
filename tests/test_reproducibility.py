"""Value semantics of :class:`Version` and per-process stability of
string-keyed persistent programs."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.types import Version
from repro.pheap import PersistentArena, PersistentDict
from repro.pheap.collections import _stable_hash

SRC = Path(__file__).resolve().parents[1] / "src"


class TestVersion:
    def test_equality_and_hash_are_those_of_the_field_tuple(self):
        assert Version(3, 4) == Version(3, 4)
        assert Version(3, 4) != Version(3, 5)
        assert Version(None, 0) != Version(0, 0)
        assert Version(3, 4) != (3, 4)
        for tx_id, seq in ((3, 4), (None, -1), (2 ** 40, 7)):
            assert hash(Version(tx_id, seq)) == hash((tx_id, seq))
        versions = [Version(tx, seq) for tx in range(20) for seq in (-1, 0)]
        assert [(v.tx_id, v.seq) for v in set(versions)] == \
            list(set((v.tx_id, v.seq) for v in versions))

    def test_keywords_repr_and_json(self):
        version = Version(tx_id=None, seq=2)
        assert (version.tx_id, version.seq) == (None, 2)
        assert repr(Version(5, 1)) == "V(tx=5,seq=1)"
        assert json.dumps({"v": Version(5, 1)}, default=str) == \
            '{"v": "V(tx=5,seq=1)"}'

    def test_pickle_and_copy_round_trip(self):
        version = Version(9, 3)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(version, protocol)) == version
        assert copy.copy(version) == version
        assert copy.deepcopy({1: version}) == {1: version}

    def test_no_instance_dict(self):
        with pytest.raises(AttributeError):
            Version(1, 1).payload = b""


class TestStableKeyHash:
    def test_str_and_bytes_hash_through_hashlib(self):
        assert _stable_hash("sku1") == _stable_hash(b"sku1")
        # pinned: the bucket of a string key is part of its trace
        assert _stable_hash("sku1") == 0x491537BD210A5870
        assert _stable_hash(12) == hash(12)
        assert _stable_hash(-5) == hash(-5)

    def test_int_keys_keep_their_buckets(self):
        arena = PersistentArena("ints")
        table = PersistentDict(arena, buckets=8)
        assert [table._bucket_of(key) for key in range(-3, 20)] == \
            [hash(key) % 8 for key in range(-3, 20)]

    def test_string_keyed_trace_is_the_same_in_every_process(self):
        program = (
            "from repro.pheap import PersistentArena, PersistentDict\n"
            "arena = PersistentArena('s')\n"
            "table = PersistentDict(arena, buckets=4)\n"
            "for i in range(12):\n"
            "    with arena.transaction():\n"
            "        table[f'key{i}'] = i\n"
            "trace = arena.trace()\n"
            "print([(op.kind, op.addr) for op in trace.ops])\n")
        outputs = {
            subprocess.run(
                [sys.executable, "-c", program], check=True,
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC),
                         PYTHONHASHSEED=seed)).stdout
            for seed in ("1", "2")}
        assert len(outputs) == 1
