"""Config dicts, fingerprints and point keys stay byte-identical.

Every on-disk ``ResultCache`` entry is named by a point key, and every
point key folds in a config fingerprint.  These tests pin both against
a test-local reference -- canonical JSON of ``dataclasses.asdict`` --
so a change to how the config tree is walked, memoized or parsed
cannot silently re-key the cache.
"""

import dataclasses
import hashlib
import json
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (
    config_fingerprint,
    config_to_dict,
    paper_machine_config,
    small_machine_config,
)
from repro.serve import parse_request
from repro.sim import parallel
from repro.sim.parallel import CrashPoint, ExperimentPoint, LitmusPoint

PRESETS = {"small": small_machine_config, "paper": paper_machine_config}


def reference_fingerprint(config):
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def reference_key(point):
    spec = dict(point.spec(), config=reference_fingerprint(point.config))
    blob = json.dumps({"kind": point.kind,
                       "code": parallel._code_version(),
                       "spec": spec}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def leaf_paths(tree, prefix=()):
    """``(path, value)`` of every leaf of a nested config dict."""
    for name, value in tree.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, prefix + (name,))
        else:
            yield prefix + (name,), value


#: alternative strings for the leaves whose strings are validated
STRING_CHOICES = {"organization": ("cam_fifo", "set_assoc"),
                  "interleave": ("line", "row")}


def alternatives(path, value):
    """Values a leaf may take that keep every config class valid on
    both presets, in any combination: doubling keeps every cache and
    TC geometry divisible, halving keeps every rate and threshold in
    range, and ``ceil`` gives a float field an int (which keys apart
    from the equal float)."""
    if isinstance(value, bool):
        return [value, not value]
    if isinstance(value, int):
        return [value, value * 2]
    if isinstance(value, float):
        return [value, value * 0.5, math.ceil(value)]
    return list(STRING_CHOICES.get(path[-1], (value, value + "x")))


def nest(flat):
    """``{path: value}`` as a nested override tree."""
    tree = {}
    for path, value in flat.items():
        node = tree
        for name in path[:-1]:
            node = node.setdefault(name, {})
        node[path[-1]] = value
    return tree


def apply_overrides(config, tree):
    """The reference merge: ``replace`` down the tree."""
    changes = {name: (apply_overrides(getattr(config, name), sub)
                      if isinstance(sub, dict) else sub)
               for name, sub in tree.items()}
    return replace(config, **changes)


LEAVES = sorted(leaf_paths(config_to_dict(small_machine_config())))


@st.composite
def override_trees(draw):
    flat = {}
    for path, value in LEAVES:
        if draw(st.booleans()):
            flat[path] = draw(st.sampled_from(alternatives(path, value)))
    return nest(flat)


class TestConfigDictAndFingerprint:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("cores", range(1, 9))
    def test_presets_match_the_asdict_reference(self, preset, cores):
        shared = PRESETS[preset](cores)
        built = replace(PRESETS[preset](), num_cores=cores)
        for config in (shared, built):
            reference = dataclasses.asdict(config)
            assert config_to_dict(config) == reference
            assert json.dumps(config_to_dict(config)) == \
                json.dumps(reference)
            assert config_fingerprint(config) == \
                reference_fingerprint(config)
        assert config_fingerprint(shared) == config_fingerprint(built)

    def test_every_leaf_is_reachable_by_overrides(self):
        paths = {path for path, _value in LEAVES}
        assert ("nvm", "timing", "read_ns") in paths
        assert ("faults", "seed") in paths
        assert len(paths) == len(LEAVES) > 50

    @pytest.mark.parametrize("path,value", LEAVES,
                             ids=[".".join(path) for path, _ in LEAVES])
    def test_each_leaf_override_keys_like_the_reference(self, path, value):
        for alternative in alternatives(path, value):
            self.check_overrides("small", 1, nest({path: alternative}))

    @settings(max_examples=60, deadline=None)
    @given(preset=st.sampled_from(sorted(PRESETS)),
           cores=st.integers(1, 8), tree=override_trees())
    def test_override_trees_key_like_the_reference(self, preset, cores,
                                                   tree):
        self.check_overrides(preset, cores, tree)

    @staticmethod
    def check_overrides(preset, cores, tree):
        request = parse_request({
            "workload": "sps", "scheme": "txcache", "operations": 10,
            "config": {"preset": preset, "num_cores": cores,
                       "overrides": tree}})
        config = request.point.config
        expected = apply_overrides(PRESETS[preset](cores), tree)
        assert config == expected
        assert config_to_dict(config) == dataclasses.asdict(expected)
        assert config_fingerprint(config) == reference_fingerprint(expected)
        assert request.key == reference_key(request.point)

    def test_replace_does_not_inherit_the_fingerprint(self):
        config = small_machine_config(2)
        before = config_fingerprint(config)
        for copy in (replace(config, num_cores=3),
                     replace(config, faults=replace(config.faults, seed=9))):
            assert config_fingerprint(copy) == reference_fingerprint(copy)
            assert config_fingerprint(copy) != before
        assert config_fingerprint(replace(config)) == before

    def test_returned_dicts_are_fresh(self):
        config = paper_machine_config(2)
        first = config_to_dict(config)
        first["num_cores"] = 99
        first["core"]["issue_width"] = 99
        first["nvm"]["timing"]["read_ns"] = 1.0
        assert config_to_dict(config) == dataclasses.asdict(config)
        assert config_fingerprint(config) == reference_fingerprint(config)
        assert config.num_cores == 2
        assert config.nvm.timing.read_ns == 65.0


def points():
    from repro.litmus import default_suite

    program = default_suite(0)[0]
    config = small_machine_config(2)
    faulty = replace(config, faults=replace(config.faults,
                                            ack_loss_rate=0.01))
    return [
        ExperimentPoint("sps", "txcache", config, operations=20, seed=7),
        ExperimentPoint("hashtable", "kiln", paper_machine_config(),
                        workload_params=(("keys", 64),)),
        CrashPoint("queue", "sp", faulty, fractions=(1, 0.5)),
        CrashPoint("sps", "txcache", config),
        LitmusPoint(program.canonical_json(), "txcache", config),
        LitmusPoint(program.canonical_json(), "kiln", faulty,
                    check_every=3),
    ]


class TestPointKeys:
    @pytest.mark.parametrize("index", range(len(points())))
    def test_keys_match_the_reference(self, index):
        point = points()[index]
        assert point.key == reference_key(point)
        assert point.key == point.key

    @pytest.mark.parametrize("index", range(len(points())))
    def test_pickled_point_carries_its_key(self, index, monkeypatch):
        point = points()[index]
        key = point.key
        copy = pickle.loads(pickle.dumps(point))
        assert copy == point
        fresh = points()[index]

        def refuse(*_args):
            raise AssertionError("key recomputed after a pickle")

        expected = fresh.key
        monkeypatch.setattr(parallel, "point_key", refuse)
        assert copy.key == key == expected

    def test_replace_rekeys_the_point(self):
        point = points()[0]
        key = point.key
        moved = replace(point, seed=8)
        assert moved.key != key
        assert moved.key == reference_key(moved)
        traced = replace(point, trace_dir="unused")
        assert traced.key == key
