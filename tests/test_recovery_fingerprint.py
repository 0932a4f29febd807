"""Frozen recovery outputs at every crash state.

The litmus matrix checks that each recovered image is *some* member of
the legal persist set.  A change to a recovery routine that picks a
different legal image still passes it.  This test pins the exact
outputs instead: for every state that ``iter_crash_states`` yields, the
tuple ``(scheme, program, cycle, sorted durably_committed, sorted
durable_lines)`` is hashed, and the sha256 and count per run are frozen
in ``tests/data/recovery_fingerprint.json``.

The runs cover ``default_suite(0)`` under every recovering scheme and
the broken validator target, plus two copy-on-write traces under
txcache: one 100-store transaction that overflows the transaction
cache, and the COW-home-copy race of
``tests/test_cow_race_regression.py``.  Regenerate only for an
intended change of what recovery reconstructs::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/test_recovery_fingerprint.py
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.common.config import small_machine_config
from repro.common.types import NVM_BASE
from repro.cpu.trace import TraceBuilder
from repro.litmus import iter_crash_states
from repro.litmus.generator import default_suite
from repro.sim.system import System
from test_cow_race_regression import racing_trace

FINGERPRINT_PATH = (pathlib.Path(__file__).parent / "data"
                    / "recovery_fingerprint.json")

SCHEMES = ("sp", "kiln", "txcache", "undo_log", "redo_log", "hybrid_dram",
           "broken_commit")


def overflow_trace(stores=100):
    """One transaction that overflows the 64-entry TC onto COW."""
    builder = TraceBuilder("cow_overflow")
    builder.begin_tx()
    for index in range(stores):
        builder.store(NVM_BASE + index * 64)
    builder.end_tx()
    return builder.build()


def _runs():
    """Run name -> (scheme, program name, zero-argument trace factory,
    core count)."""
    runs = {}
    for scheme in SCHEMES:
        for program in default_suite(0):
            runs[f"{scheme}/{program.name}"] = (
                scheme, program.name, program.to_traces, program.num_cores)
    runs["txcache/cow_overflow"] = (
        "txcache", "cow_overflow", lambda: [overflow_trace()], 1)
    runs["txcache/cow_race"] = (
        "txcache", "cow_race", lambda: [racing_trace()], 1)
    return runs


RUNS = _runs()


def _image(lines):
    return [[line, None if version is None
             else [version.tx_id, version.seq]]
            for line, version in sorted(lines.items())]


def fingerprint(name):
    scheme, program, traces, num_cores = RUNS[name]
    system = System(small_machine_config(num_cores=num_cores), scheme)
    system.load_traces(traces())
    digest = hashlib.sha256()
    states = 0
    for cycle, committed, recovered in iter_crash_states(system):
        record = [scheme, program, cycle, sorted(committed),
                  _image(recovered)]
        digest.update(json.dumps(record).encode())
        states += 1
    return {"states": states, "sha256": digest.hexdigest()}


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        snapshot = {name: fingerprint(name) for name in RUNS}
        FINGERPRINT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")


def test_fingerprint_covers_every_run():
    frozen = json.loads(FINGERPRINT_PATH.read_text())
    assert sorted(frozen) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_recovery_outputs_match_fingerprint(name):
    frozen = json.loads(FINGERPRINT_PATH.read_text())[name]
    assert fingerprint(name) == frozen, (
        f"{name}: recovered images or committed sets moved "
        "(intentional? see module docstring)")
